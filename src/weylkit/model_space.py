"""The model apartment: Lambda-metric, hyperplane coordinates, hulls and galleries.

Points are tuples of Lambda-values in simple-root coordinates.  Affine walls
are indexed as {x : (alpha, x) = k} with alpha a positive root; for the
simply-laced normalisation (alpha, alpha) = 2 this coincides with the
co-root-pairing indexing ``<x, alpha^> = k``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, prod
from typing import Iterable, Sequence

from .root_system import RootSystem
from .scalars import compare, sign


DEFAULT_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """An enumeration went past its configured state cap."""


class ModelSpaceError(ValueError):
    pass


def point_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def distance(rs: RootSystem, x, y):
    """d(x, y) = sum over positive roots of |<y - x, alpha^>|."""
    return rs.coroot_forms.abs_sum(point_sub(y, x))


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


def _coroot_coset_box(rs: RootSystem, x, points) -> list:
    """Per coordinate j, the values of x + (co-root lattice) in the range of ``points``.

    The simple co-root alpha_j^ is 2/(alpha_j, alpha_j) times the unit vector
    e_j, so the lattice moves each coordinate by its own step.
    """
    ranges = []
    for j in range(rs.rank):
        step = Fraction(2) / rs.gram[j][j]
        kmin = ceil(Fraction(min(p[j] for p in points) - x[j]) / step)
        kmax = floor(Fraction(max(p[j] for p in points) - x[j]) / step)
        ranges.append([x[j] + k * step for k in range(kmin, kmax + 1)])
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
    co-root coset of x is the caller's job: box points and descent steps lie
    in it by construction, and a point from outside is tested once with
    :meth:`RootSystem.coroot_coset_member`.
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


def enumerate_AQ(rs: RootSystem, x, cap: int = DEFAULT_CAP) -> tuple:
    """All lattice points of dconv(W.x) in the coset of x, canonically sorted."""
    xp, _ = rs.dominant_rep(x)
    # box points are x + sum k_j alpha_j^, so each lies in the coset of x
    out = [z for z in hull_candidates(rs, x, cap) if in_AQ(rs, z, xp)]
    return tuple(sorted(out))


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
    walls = 0
    for alpha in rs.positive_roots:
        walls += max(0, abs(rs.root_level(x, alpha) - rs.root_level(y, alpha)) - 1)
    return 1 + int(walls)


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
