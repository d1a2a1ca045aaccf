"""The model apartment: Lambda-metric, hyperplane coordinates, hulls and galleries.

Points are tuples of Lambda-values in simple-root coordinates.  Affine walls
are indexed as {x : (alpha, x) = k} with alpha a positive root; for the
simply-laced normalisation (alpha, alpha) = 2 this coincides with the
co-root-pairing indexing ``<x, alpha^> = k``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, prod
from typing import Iterable, Sequence

from .root_system import LinearForms, RootSystem, solve_linear
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
    return _cartan_inverse(rs).apply(coords)


_CARTAN_INV_CACHE: dict = {}


def _cartan_inverse(rs: RootSystem) -> LinearForms:
    """Rows 2 C^-1: the point with heights x^alpha_i, since <x, alpha_i^> = 2 x^alpha_i."""
    if rs.label not in _CARTAN_INV_CACHE:
        rhs = [[rs._f(1 if i == j else 0) for i in range(rs.rank)] for j in range(rs.rank)]
        cols = solve_linear(rs.cartan, rhs)
        # solve_linear returns solution columns of C X = I; X[j][i] indexed [row][col]
        _CARTAN_INV_CACHE[rs.label] = LinearForms(
            tuple(cols[i][j] * 2 for i in range(rs.rank)) for j in range(rs.rank)
        )
    return _CARTAN_INV_CACHE[rs.label]


def distance_origin_via_coords(rs: RootSystem, x):
    """d(0, x) recomputed from the hyperplane coordinates alone.

    Each co-root expands over the simple co-roots, so <x, alpha^> is a fixed
    F-combination of the heights x^beta; summing absolute values per positive
    root recovers the metric.
    """
    return _coroot_height_weights(rs).abs_sum(hyperplane_coords(rs, x))


_HEIGHT_WEIGHTS_CACHE: dict = {}


def _coroot_height_weights(rs: RootSystem) -> LinearForms:
    """Per positive root alpha, the w_b with <x, alpha^> = sum_b w_b x^beta_b.

    w_b = alpha_b (beta_b, beta_b) * 2 / (alpha, alpha): the coefficient of the
    simple co-root beta_b^ in alpha^, doubled because x^beta = 1/2 <x, beta^>.
    """
    if rs.label not in _HEIGHT_WEIGHTS_CACHE:
        rows = []
        for alpha in rs.positive_roots:
            nn = rs.norm_sq(alpha)
            rows.append(tuple(alpha[b] * rs.gram[b][b] * 2 / nn for b in range(rs.rank)))
        _HEIGHT_WEIGHTS_CACHE[rs.label] = LinearForms(rows)
    return _HEIGHT_WEIGHTS_CACHE[rs.label]


# --------------------------------------------------------------------------
# segments


def segment_contains(rs: RootSystem, x, y, z) -> bool:
    """Whether z satisfies d(x, y) = d(x, z) + d(z, y)."""
    return compare(distance(rs, x, y), distance(rs, x, z) + distance(rs, z, y)) == 0


def _coroot_step_matrix(rs: RootSystem):
    """M[j][i] = <alpha_i^, alpha_j^> over the rationals."""
    steps = [rs.coroot_of(a) for a in rs.simple_roots]
    return [[Fraction(rs.pairing(steps[i], rs.simple_roots[j])) for i in range(rs.rank)] for j in range(rs.rank)]


def _integer_box(rs: RootSystem, base_point, lo_vals, hi_vals):
    """Integer co-root offsets k with the pairing vector of base + k inside the box."""
    m = _coroot_step_matrix(rs)
    minv = solve_linear(m, [[Fraction(1 if i == j else 0) for i in range(rs.rank)] for j in range(rs.rank)])
    minv = [[minv[j][i] for j in range(rs.rank)] for i in range(rs.rank)]
    base = [Fraction(rs.pairing(base_point, a)) for a in rs.simple_roots]
    corners = []
    for choice in itertools.product(*[(lo_vals[j], hi_vals[j]) for j in range(rs.rank)]):
        v = [Fraction(choice[j]) - base[j] for j in range(rs.rank)]
        corners.append([sum(minv[i][j] * v[j] for j in range(rs.rank)) for i in range(rs.rank)])
    ranges = []
    for i in range(rs.rank):
        vals = [c[i] for c in corners]
        ranges.append(range(ceil(min(vals)), floor(max(vals)) + 1))
    return itertools.product(*ranges)


def segment_lattice_points(rs: RootSystem, x, y) -> tuple:
    """All points of (x + co-root lattice) on the segment from x to y."""
    if not rs.crystallographic:
        raise ModelSpaceError("segment enumeration needs a discrete lattice")
    steps = [rs.coroot_of(a) for a in rs.simple_roots]
    px = [Fraction(rs.pairing(x, a)) for a in rs.simple_roots]
    py = [Fraction(rs.pairing(y, a)) for a in rs.simple_roots]
    lo = [min(a, b) for a, b in zip(px, py)]
    hi = [max(a, b) for a, b in zip(px, py)]
    out = []
    for ks in _integer_box(rs, x, lo, hi):
        z = list(x)
        for i, k in enumerate(ks):
            for j in range(rs.rank):
                z[j] = z[j] + k * steps[i][j]
        z = tuple(z)
        if segment_contains(rs, x, y, z):
            out.append(z)
    return tuple(sorted(set(out)))


# --------------------------------------------------------------------------
# the orbit hull A^Q(x)


@dataclass(frozen=True)
class DualHyperplane:
    """The locus {x : (x, cw) = k} for the co-weight dual to a simple root."""

    rs_label: str
    alpha_index: int
    k: object

    def contains(self, rs: RootSystem, x) -> bool:
        if rs.label != self.rs_label:
            raise ModelSpaceError("hyperplane belongs to a different system")
        cw = rs.fundamental_coweight(self.alpha_index)
        return compare(rs.bilinear(tuple(x), cw), self.k) == 0

    def side(self, rs: RootSystem, x) -> int:
        """-1, 0, +1 for the two half-apartments and the wall itself."""
        cw = rs.fundamental_coweight(self.alpha_index)
        return compare(rs.bilinear(tuple(x), cw), self.k)


def dual_hyperplane_through(rs: RootSystem, alpha_index: int, x) -> DualHyperplane:
    """The dual hyperplane in the alpha-direction passing through x."""
    cw = rs.fundamental_coweight(alpha_index)
    return DualHyperplane(rs.label, alpha_index, rs.bilinear(tuple(x), cw))


@dataclass(frozen=True)
class HullQuery:
    """An orbit-hull membership query for the Weyl orbit of ``x``.

    ``lattice`` is "coroot" (translation group = co-root lattice; requires a
    crystallographic system) or "all" (every translation allowed, the
    non-crystallographic reading).
    """

    x: tuple
    lattice: str = "coroot"
    # x+ per root-system label, filled on first use; every candidate reuses it
    _x_plus: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def x_plus(self, rs: RootSystem):
        xp = self._x_plus.get(rs.label)
        if xp is None:
            xp = self._x_plus[rs.label] = rs.dominant_walk(self.x)[0]
        return xp


def in_AQ(rs: RootSystem, y, query) -> bool:
    """Dominance test: x+ - y+ has non-negative coordinates, plus the coset test."""
    if not isinstance(query, HullQuery):
        query = HullQuery(tuple(query))
    xp = query.x_plus(rs)
    yp, _ = rs.dominant_walk(tuple(y))
    diff = point_sub(xp, yp)
    if not all(sign(c) >= 0 for c in diff):
        return False
    if query.lattice == "coroot":
        return rs.coroot_coset_member(query.x, tuple(y))
    return True


def orbit_coordinate_box(rs: RootSystem, x):
    orbit = rs.weyl_orbit(x)
    lo = [min(p[j] for p in orbit) for j in range(rs.rank)]
    hi = [max(p[j] for p in orbit) for j in range(rs.rank)]
    return orbit, lo, hi


def hull_candidates(rs: RootSystem, x, cap: int = DEFAULT_CAP) -> tuple:
    """All co-root-coset points inside the coordinate bounding box of the orbit.

    Raises :class:`CapExceeded`, before the box is built, when it holds more
    than ``cap`` points.
    """
    if not rs.crystallographic:
        raise ModelSpaceError("hull enumeration needs a crystallographic system")
    _, lo, hi = orbit_coordinate_box(rs, x)
    ranges = []
    for j in range(rs.rank):
        step = Fraction(2) / rs.gram[j][j]  # coordinate step of alpha_j co-root moves
        kmin = ceil(Fraction(lo[j] - x[j]) / step)
        kmax = floor(Fraction(hi[j] - x[j]) / step)
        ranges.append([x[j] + k * step for k in range(kmin, kmax + 1)])
    n = prod(map(len, ranges))
    if n > cap:
        raise CapExceeded(f"hull enumeration exceeded {cap} candidates ({n} in the box)")
    return tuple(itertools.product(*ranges))


def enumerate_AQ(rs: RootSystem, x, cap: int = DEFAULT_CAP) -> tuple:
    """All lattice points of dconv(W.x) in the coset of x, canonically sorted."""
    q = HullQuery(tuple(x))
    out = [z for z in hull_candidates(rs, x, cap) if in_AQ(rs, z, q)]
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
        a = Fraction(rs.root_level(x, alpha))
        b = Fraction(rs.root_level(y, alpha))
        walls += max(0, abs(a - b) - 1)
    return 1 + int(walls)


# --------------------------------------------------------------------------
# dual convexity oracles


def dual_directions(rs: RootSystem, weyl_closed: bool = True) -> tuple:
    dirs = list(rs.fundamental_coweights())
    if not weyl_closed:
        return tuple(dirs)
    seen = []
    for d in dirs:
        for img in rs.weyl_orbit(d):
            if img not in seen:
                seen.append(img)
    return tuple(seen)


def dual_hull_oracle(rs: RootSystem, points: Sequence, y, weyl_closed: bool = True) -> bool:
    """Membership of y in the intersection of dual half-apartments around ``points``."""
    points = [tuple(p) for p in points]
    if not points:
        return False
    for d in dual_directions(rs, weyl_closed):
        vals = [rs.bilinear(p, d) for p in points]
        lo, hi = min(vals), max(vals)
        val = rs.bilinear(tuple(y), d)
        if compare(val, lo) < 0 or compare(val, hi) > 0:
            return False
    return True


def dual_reading_disagreements(rs: RootSystem, points: Sequence, candidates: Iterable) -> tuple:
    """Candidates on which the simple-roots-only and Weyl-closed hull readings differ.

    The two readings of "dual half-apartment" are not interchangeable in
    general; disagreements are reported, never reconciled silently.
    """
    out = []
    for z in candidates:
        narrow = dual_hull_oracle(rs, points, z, weyl_closed=False)
        closed = dual_hull_oracle(rs, points, z, weyl_closed=True)
        if narrow != closed:
            out.append((tuple(z), narrow, closed))
    return tuple(out)


def aq_triple_characterizations(rs: RootSystem, x) -> dict:
    """Evaluate the three membership characterizations of A^Q(x) on the whole box.

    Returns per-candidate triples (dominance test, Weyl-intersection test,
    dual-hull oracle + coset) plus a global agreement flag.
    """
    x = tuple(x)
    q = HullQuery(x)
    xp = q.x_plus(rs)
    orbit = rs.weyl_orbit(x)
    group = rs.weyl_group()
    rows = []
    agree = True
    for z in hull_candidates(rs, x):
        dom = in_AQ(rs, z, q)
        inter = True
        for w in group:
            diff = point_sub(xp, w.apply(z))
            if not (all(sign(c) >= 0 for c in diff) and rs.coroot_lattice_member(diff)):
                inter = False
                break
        dual = dual_hull_oracle(rs, orbit, z, weyl_closed=True) and rs.coroot_coset_member(x, z)
        rows.append({"point": z, "dominance": dom, "intersection": inter, "dual": dual})
        if not (dom == inter == dual):
            agree = False
    return {"x": x, "agree": agree, "rows": rows}
