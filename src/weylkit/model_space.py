"""The model apartment: Lambda-metric, hyperplane coordinates, hulls and galleries.

Points are tuples of Lambda-values in simple-root coordinates.  Affine walls
are indexed as {x : (alpha, x) = k} with alpha a positive root; for the
simply-laced normalisation (alpha, alpha) = 2 this coincides with the
co-root-pairing indexing ``<x, alpha^> = k``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from operator import mul, sub
from typing import Iterable, Sequence

from .root_system import RootSystem, _orbit_walk
from .scalars import ScalarDomainError, _clear_denominators, compare, sign


DEFAULT_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """An enumeration went past its configured state cap."""


class ModelSpaceError(ValueError):
    pass


def point_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def distance(rs: RootSystem, x, y):
    """d(x, y) = sum over positive roots of |<y - x, alpha^>|, on the cleared numerators of y and x."""
    return rs.coroot_forms.abs_sum(y, x)


def hyperplane_coords(rs: RootSystem, x) -> tuple:
    """The heights x^alpha = 1/2 <x, alpha^> over the walls through the origin."""
    return rs.height_forms.apply(x)


def point_from_hyperplane_coords(rs: RootSystem, coords) -> tuple:
    return rs.inverse_height_forms.apply(coords)


def distance_origin_via_coords(rs: RootSystem, x):
    """d(0, x) recomputed from the hyperplane coordinates alone.

    Each co-root expands over the simple co-roots, so <x, alpha^> is a fixed
    F-combination of the heights x^beta; summing absolute values per positive
    root recovers the metric.
    """
    return rs.coroot_height_forms.abs_sum(hyperplane_coords(rs, x))


# --------------------------------------------------------------------------
# segments


def segment_contains(rs: RootSystem, x, y, z) -> bool:
    """Whether z satisfies d(x, y) = d(x, z) + d(z, y)."""
    return compare(distance(rs, x, y), distance(rs, x, z) + distance(rs, z, y)) == 0


def _rational_parts(values) -> tuple:
    """(nums, den): rational ``values`` over their least common denominator."""
    parts = _clear_denominators(values)
    if parts is None:
        raise ScalarDomainError("lattice points need rational coordinates")
    return parts


def coroot_numerators(rs: RootSystem, *vectors) -> tuple:
    """(vectors, steps, den): rational vectors and the simple co-root steps as integers over one den.

    The simple co-root alpha_j^ is 2/(alpha_j, alpha_j) times the unit vector
    e_j, so the co-root lattice moves numerator j by its own step, steps[j].
    """
    n = rs.rank
    nums, den = _rational_parts([c for v in vectors for c in v] + [Fraction(2) / rs.gram[j][j] for j in range(n)])
    rows = [tuple(nums[k : k + n]) for k in range(0, len(nums), n)]
    return rows[:-1], rows[-1], den


def _coroot_coset_box(rs: RootSystem, x, points) -> list:
    """Per coordinate j, the values of x + (co-root lattice) in the range of ``points``."""
    (xn, *pn), steps, den = coroot_numerators(rs, x, *points)
    ranges = []
    for j, (a, s) in enumerate(zip(xn, steps)):
        lo = min(p[j] for p in pn)
        ranges.append([Fraction(v, den) for v in range(lo + (a - lo) % s, max(p[j] for p in pn) + 1, s)])
    return ranges


def segment_lattice_points(rs: RootSystem, x, y) -> tuple:
    """All points of (x + co-root lattice) on the segment from x to y.

    The segment lies in the box spanned by the heights of x and y, so the
    candidates are the coset points in the coordinate range of its corners.
    """
    if not rs.crystallographic:
        raise ModelSpaceError("segment enumeration needs a discrete lattice")
    heights = zip(rs.height_forms.apply(x), rs.height_forms.apply(y))
    corners = [rs.inverse_height_forms.apply(c) for c in itertools.product(*heights)]
    # a product of ascending ranges comes out sorted
    candidates = itertools.product(*_coroot_coset_box(rs, x, corners))
    return tuple(z for z in candidates if segment_contains(rs, x, y, z))


# --------------------------------------------------------------------------
# the orbit hull A^Q(x)


def in_AQ(rs: RootSystem, y, x_plus) -> bool:
    """Dominance test: x_plus - y+ has non-negative coordinates.

    ``x_plus`` is the dominant image of the orbit generator x, so this is
    membership in conv(W.x) with every translation allowed, which is the
    whole hull test on a non-crystallographic system.  Whether y lies in the
    co-root coset of x is the caller's job.  It tests one point at a time:
    the target of a descent, whose coset is then tested once with
    :meth:`RootSystem.coroot_coset_member`, and the rows of
    :func:`aq_triple_characterizations`.  The enumeration and the descent
    steps test dominance on integer numerators.
    """
    yp, _ = rs.dominant_rep(y)
    return all(compare(a, b) >= 0 for a, b in zip(x_plus, yp))


def hull_candidates(rs: RootSystem, x, cap: int = DEFAULT_CAP) -> tuple:
    """All co-root-coset points inside the coordinate bounding box of the orbit.

    For dominant x_plus every x_plus - w x_plus is a non-negative combination
    of simple roots, so x_plus is the coordinate-wise maximum of the orbit
    and w0 x_plus its minimum: the two corners span the box.  Raises
    :class:`CapExceeded`, before the box is built, when it holds more than
    ``cap`` points.
    """
    if not rs.crystallographic:
        raise ModelSpaceError("hull enumeration needs a crystallographic system")
    xp, _ = rs.dominant_rep(x)
    ranges = _coroot_coset_box(rs, x, (rs.longest_element().apply(xp), xp))
    n = prod(map(len, ranges))
    if n > cap:
        raise CapExceeded(f"hull enumeration exceeded {cap} candidates ({n} in the box)")
    return tuple(itertools.product(*ranges))


def _coset_words(rs: RootSystem, xn, steps) -> dict:
    """The co-root cosets met by the orbit of x = xn / den: residues -> a word taking x's coset onto it.

    W maps the co-root lattice onto itself, so s_k maps each coset onto a
    coset, and it acts on a residue vector r as on a point:
    r_k <- r_k - <r, alpha_k^>.  A word lists its letters in the order
    they are applied.
    """
    words = {tuple(a % s for a, s in zip(xn, steps)): ()}
    queue = list(words)
    for r in queue:  # grows while it is read
        for k, row in enumerate(rs.integer_cartan):
            img = r[:k] + ((r[k] - sum(map(mul, row, r))) % steps[k],) + r[k + 1 :]
            if img not in words:
                words[img] = words[r] + (k,)
                queue.append(img)
    return words


def _coset_system(rs: RootSystem, xn, steps) -> tuple:
    """(rows, system): the simple system of the stabilizer of the coset of x = xn / den, and its co-root rows.

    A positive root alpha keeps the coset when s_alpha moves x by a co-root
    lattice vector, -<x, alpha^> alpha.  These reflections generate the
    stabilizer of the coset in W: it is the image of the stabilizer of x in
    the affine Weyl group, which the reflections fixing x generate
    (Bourbaki, *Lie Groups and Lie Algebras* V.3.3).  So the stabilizer is a
    reflection group whose positive roots are the kept ones (M. Dyer,
    *Reflection subgroups of Coxeter systems*, J. Algebra 1990), and its
    simple roots are the kept positive roots that are not the sum of two
    kept positive roots.  rows[k] holds the pairing <., beta_k^> of simple
    root beta_k; the system is laid out as ``root_system._reflect`` reads it.
    """
    kept = []
    for b, row in zip(rs.integer_positive_roots, rs.coroot_forms.rows):
        r = tuple(map(int, row))
        t = sum(map(mul, r, xn))  # <x, alpha^> times den
        if all(t * a % s == 0 for a, s in zip(b, steps)):
            kept.append((b, r))
    roots = {b for b, _ in kept}
    simple = [(b, r) for b, r in kept if not any(tuple(map(sub, b, a)) in roots for a in roots)]
    columns = tuple(tuple((j, c) for j, (_, r) in enumerate(simple) if (c := sum(map(mul, r, b)))) for b, _ in simple)
    return [r for _, r in simple], (tuple(tuple((m, a) for m, a in enumerate(b) if a) for b, _ in simple), columns)


def _dominant_candidates(rs: RootSystem, residues, steps, top):
    """The dominant mu = ``residues`` mod ``steps`` with 0 <= mu <= ``top``.

    Coordinates are chosen in order, each pairing p_i = <mu, alpha_i^> kept
    as the sum over the coordinates chosen so far.  A Cartan matrix has 2 on
    its diagonal and no positive entry off it, so a later coordinate can
    only lower p_i: coordinate k starts where it makes p_k non-negative and
    stops where it would make an earlier p_i negative.  Every point yielded
    is dominant, and no dominant point of the box is missed.
    """
    n = rs.rank
    columns = tuple(zip(*rs.integer_cartan))
    stack = [((), (0,) * n)]
    while stack:
        mu, pairs = stack.pop()
        k = len(mu)
        if k == n:
            yield mu
            continue
        column = columns[k]
        lo = -(pairs[k] // 2)
        lo += (residues[k] - lo) % steps[k]
        hi = min([top[k]] + [pairs[i] // -column[i] for i in range(k) if column[i]])
        for v in range(lo, hi + 1, steps[k]):
            stack.append((mu + (v,), tuple(p + c * v for p, c in zip(pairs, column))))


def enumerate_AQ(rs: RootSystem, x, cap: int = DEFAULT_CAP) -> tuple:
    """All lattice points of dconv(W.x) in the coset of x, canonically sorted.

    The dominant image y+ of a hull point y lies in a coset w.x + Q^ of the
    co-root lattice Q^, for some w in W, and a dominant mu <= x+ has
    0 <= mu_j <= x+_j (Stembridge, *The partial order of dominant weights*,
    1998).  So the candidates are the dominant points of the cosets met by
    W.x in the box [0, x+], and the hull points are the points of their
    orbits in the coset of x; each candidate has at least one.  A word of
    the candidate's coset moves mu into the coset of x; there it walks to
    the dominant chamber of the coset's stabilizer (``_coset_system``), whose
    orbit of it is the rest.  It all runs on integer numerators over one
    denominator, which also clears the co-root steps.  ``cap`` bounds the
    candidates plus the hull points, checked at every point the walk yields.
    """
    if not rs.crystallographic:
        raise ModelSpaceError("hull enumeration needs a crystallographic system")
    xp, _ = rs.dominant_rep(x)
    (xn, xpn), steps, den = coroot_numerators(rs, x, xp)
    rows, system = _coset_system(rs, xn, steps)
    cartan = rs.integer_cartan
    out = []
    states = 0
    for residues, word in _coset_words(rs, xn, steps).items():
        for mu in _dominant_candidates(rs, residues, steps, xpn):
            states += 1
            # the inverse of the coset's word moves mu into the coset of x
            y = list(mu)
            for k in reversed(word):
                y[k] -= sum(map(mul, cartan[k], y))
            pairs = [sum(map(mul, row, y)) for row in rows]
            for z in _orbit_walk(y, pairs, system, mul, len(rs.positive_roots) + 1):
                out.append(z)
                if states + len(out) > cap:
                    raise CapExceeded(
                        f"hull enumeration exceeded {cap} states "
                        f"({states} dominant candidates and {len(out)} hull points so far)"
                    )
    out.sort()
    value = {c: Fraction(c, den) for c in {c for y in out for c in y}}
    return tuple(tuple(value[c] for c in y) for y in out)


# --------------------------------------------------------------------------
# chamber-counting distance between special vertices


def is_special_vertex(rs: RootSystem, x) -> bool:
    return rs.coweight_lattice_member(x)


def gallery_distance(rs: RootSystem, x, y) -> int:
    """1 + number of affine walls strictly separating the special vertices x, y."""
    if not rs.crystallographic:
        raise ModelSpaceError("gallery distance needs a crystallographic system")
    if not (is_special_vertex(rs, x) and is_special_vertex(rs, y)):
        raise ModelSpaceError("gallery distance is defined between special vertices")
    # (alpha, x - y) = sum_j a_j (L_j(x) - L_j(y)) / den for alpha = sum_j a_j alpha_j,
    # an integer at special vertices
    (lx, ly), den = rs.to_levels((x, y))
    diff = tuple(a - b for a, b in zip(lx, ly))
    walls = 0
    for alpha in rs.integer_positive_roots:
        walls += max(0, abs(sum(map(mul, alpha, diff))) // den - 1)
    return 1 + walls


# --------------------------------------------------------------------------
# dual convexity oracles


def dual_bounds(rs: RootSystem, points: Sequence, weyl_closed: bool = True):
    """(forms, extremes): the bounds of ``points`` along every dual direction.

    ``forms`` maps y to (y, d) for every direction d, as one LinearForms;
    extremes[k] is the least and the greatest value of row k over the
    points.  The directions are ``rs.dual_directions``, or the fundamental
    co-weights alone when not ``weyl_closed``.  None when there are no
    points: their hull is empty.
    """
    points = [tuple(p) for p in points]
    if not points:
        return None
    forms = rs.bilinear_forms(rs.dual_directions if weyl_closed else rs.fundamental_coweights())
    return forms, tuple((min(vals), max(vals)) for vals in zip(*map(forms.apply, points)))


def within_dual_bounds(bounds, y) -> bool:
    """Whether y lies between the bounds of every direction (``dual_bounds``)."""
    if bounds is None:
        return False
    forms, extremes = bounds
    return all(compare(v, lo) >= 0 and compare(v, hi) <= 0 for v, (lo, hi) in zip(forms.apply(tuple(y)), extremes))


def dual_hull_oracle(rs: RootSystem, points: Sequence, y, weyl_closed: bool = True) -> bool:
    """Membership of y in the intersection of dual half-apartments around ``points``."""
    return within_dual_bounds(dual_bounds(rs, points, weyl_closed), y)


def dual_reading_disagreements(rs: RootSystem, points: Sequence, candidates: Iterable) -> tuple:
    """Candidates on which the simple-roots-only and Weyl-closed hull readings differ.

    The two readings of "dual half-apartment" are not interchangeable in
    general; disagreements are reported, never reconciled silently.
    """
    narrow_bounds = dual_bounds(rs, points, weyl_closed=False)
    closed_bounds = dual_bounds(rs, points, weyl_closed=True)
    out = []
    for z in candidates:
        narrow = within_dual_bounds(narrow_bounds, z)
        closed = within_dual_bounds(closed_bounds, z)
        if narrow != closed:
            out.append((tuple(z), narrow, closed))
    return tuple(out)


def aq_triple_characterizations(rs: RootSystem, x) -> dict:
    """Evaluate the three membership characterizations of A^Q(x) on the whole box.

    Returns per-candidate triples (dominance test, Weyl-intersection test,
    dual-hull oracle + coset) plus a global agreement flag.
    """
    x = tuple(x)
    xp, _ = rs.dominant_rep(x)
    bounds = dual_bounds(rs, rs.weyl_orbit(x))
    group = rs.weyl_group()
    rows = []
    agree = True
    for z in hull_candidates(rs, x):
        dom = in_AQ(rs, z, xp)
        inter = True
        for w in group:
            diff = point_sub(xp, w.apply(z))
            if not (all(sign(c) >= 0 for c in diff) and rs.coroot_lattice_member(diff)):
                inter = False
                break
        dual = within_dual_bounds(bounds, z) and rs.coroot_coset_member(x, z)
        rows.append({"point": z, "dominance": dom, "intersection": inter, "dual": dual})
        if not (dom == inter == dual):
            agree = False
    return {"x": x, "agree": agree, "rows": rows}
