"""Piecewise-linear paths, root operators, positive folds and alcove-walk galleries.

Paths start at the origin and are kept in a reparametrization normal form: a
tuple of displacement vectors in which no two consecutive displacements point
in the same direction.  The height of a path against a simple root alpha is
``h(t) = (pi(t), alpha)``; the lowering data of the root operator then lives
on integer levels, and applying the operator shifts the endpoint by exactly
the co-root ``2 alpha / (alpha, alpha)``.

Galleries are alcove walks: a state is an affine Weyl element ``u`` (the map
carrying the fundamental-alcove frame to the current alcove) and a step of
type ``j`` either crosses the ``j``-panel (``u -> u s_j``) or folds at it.  A
fold is positive when the wall separates the retained alcove from the
antidominant direction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable, Optional, Sequence, Tuple

from .model_space import HullQuery, gallery_distance, in_AQ, point_sub
from .root_system import LinearForms, RootSystem, apply_matrix, mat_mul

class CapExceeded(RuntimeError):
    """An enumeration went past its configured state cap."""


class PathModelError(ValueError):
    pass


# --------------------------------------------------------------------------
# paths


def _is_positive_multiple(v, w) -> bool:
    piv = next((j for j, c in enumerate(v) if c != 0), None)
    if piv is None or w[piv] == 0:
        return False
    c = Fraction(w[piv]) / Fraction(v[piv])
    if c <= 0:
        return False
    return all(Fraction(wj) == c * Fraction(vj) for vj, wj in zip(v, w))


def _canonical_steps(steps: Iterable[tuple]) -> tuple:
    out: list[tuple] = []
    for v in steps:
        v = tuple(Fraction(c) for c in v)
        if all(c == 0 for c in v):
            continue
        if out and _is_positive_multiple(out[-1], v):
            out[-1] = tuple(a + b for a, b in zip(out[-1], v))
        else:
            out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class PLPath:
    """A piecewise-linear path from the origin, as canonical displacement steps."""

    steps: Tuple[Tuple[Fraction, ...], ...]

    def endpoint(self) -> tuple:
        if not self.steps:
            return ()
        acc = tuple(Fraction(0) for _ in self.steps[0])
        for v in self.steps:
            acc = tuple(a + b for a, b in zip(acc, v))
        return acc

    def breakpoints(self) -> list[tuple[Fraction, tuple]]:
        """(time, point) pairs at uniform parameter speed."""
        m = max(1, len(self.steps))
        pts = [(Fraction(0), tuple())]
        if self.steps:
            cur = tuple(Fraction(0) for _ in self.steps[0])
            pts = [(Fraction(0), cur)]
            for k, v in enumerate(self.steps, 1):
                cur = tuple(a + b for a, b in zip(cur, v))
                pts.append((Fraction(k, m), cur))
        return pts

    def __len__(self):
        return len(self.steps)


def path_from_steps(steps: Iterable[Sequence]) -> PLPath:
    return PLPath(_canonical_steps(tuple(tuple(v) for v in steps)))


def path_from_points(points: Sequence[Sequence]) -> PLPath:
    pts = [tuple(Fraction(c) for c in p) for p in points]
    steps = [point_sub(b, a) for a, b in zip(pts, pts[1:])]
    return path_from_steps(steps)


def straight_path_to(x) -> PLPath:
    return path_from_steps([tuple(Fraction(c) for c in x)])


def zero_path(rank: int) -> PLPath:
    return PLPath(())


def concat(p1: PLPath, p2: PLPath) -> PLPath:
    return path_from_steps(p1.steps + p2.steps)


# --------------------------------------------------------------------------
# the raising root operator


@dataclass(frozen=True)
class HeightFunction:
    """The PL height of a path against a simple root, with its minimum."""

    samples: Tuple[Tuple[Fraction, Fraction], ...]  # (time, value) at breakpoints
    minimum: Fraction


def height_function(rs: RootSystem, path: PLPath, i: int) -> HeightFunction:
    """(pi(t), alpha_i) at the breakpoints; PL, so the minimum sits at one."""
    alpha = rs.simple_roots[i]
    values = [Fraction(0)]
    for v in path.steps:
        values.append(values[-1] + Fraction(rs.root_level(v, alpha)))
    m = max(1, len(path.steps))
    samples = tuple((Fraction(k, m), h) for k, h in enumerate(values))
    return HeightFunction(samples, min(values))


def _reflect_step(rs: RootSystem, i: int, v: tuple) -> tuple:
    pairing = sum(Fraction(rs.cartan[i][j]) * v[j] for j in range(rs.rank))
    return tuple(c - pairing if j == i else c for j, c in enumerate(v))


def _split_step(v: tuple, f: Fraction) -> tuple[tuple, tuple]:
    head = tuple(c * f for c in v)
    tail = tuple(c * (1 - f) for c in v)
    return head, tail


def root_operator_e(rs: RootSystem, path: PLPath, i: int) -> Optional[PLPath]:
    """The raising operator for the i-th simple root; None when it does not apply."""
    alpha = rs.simple_roots[i]
    steps = list(path.steps)
    if not steps:
        return None
    incs = [Fraction(rs.root_level(v, alpha)) for v in steps]
    heights = [Fraction(0)]
    for d in incs:
        heights.append(heights[-1] + d)
    n = min(heights)
    if n > -1:
        return None
    idx1 = heights.index(n)
    # first strict undershoot of n + 1 along the prefix
    s = 0
    while heights[s + 1] >= n + 1:
        s += 1
    if heights[s] == n + 1:
        prefix = steps[:s]
        middle = deque(steps[s:idx1])
    else:
        f = (heights[s] - (n + 1)) / (heights[s] - heights[s + 1])
        head, tail = _split_step(steps[s], f)
        prefix = steps[:s] + [head]
        middle = deque([tail] + steps[s + 1 : idx1])
    suffix = steps[idx1:]

    out: list[tuple] = []
    while middle:
        v = middle.popleft()
        inc = Fraction(rs.root_level(v, alpha))
        if inc < 0:
            out.append(_reflect_step(rs, i, v))
        elif inc == 0:
            out.append(v)
        else:
            # an excursion above the running minimum: keep it, up to its return
            acc = inc
            out.append(v)
            while acc > 0:
                w = middle.popleft()
                winc = Fraction(rs.root_level(w, alpha))
                if acc + winc >= 0:
                    out.append(w)
                    acc += winc
                else:
                    f = acc / (-winc)
                    head, tail = _split_step(w, f)
                    out.append(head)
                    middle.appendleft(tail)
                    acc = Fraction(0)
    return path_from_steps(prefix + out + suffix)


# --------------------------------------------------------------------------
# positive folds of paths


def positive_fold_closure(rs: RootSystem, path: PLPath, cap: int = 100_000) -> tuple:
    """The least e-closed set of paths containing ``path``; returns (paths, endpoints)."""
    seen = {path}
    queue = deque([path])
    while queue:
        cur = queue.popleft()
        for i in range(rs.rank):
            nxt = root_operator_e(rs, cur, i)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                if len(seen) > cap:
                    raise CapExceeded(f"positive fold closure exceeded {cap} paths")
                queue.append(nxt)
    paths = tuple(sorted(seen, key=lambda p: p.steps))
    endpoints = tuple(sorted({p.endpoint() for p in paths}))
    return paths, endpoints


def _validate_w0_word(rs: RootSystem, word) -> tuple:
    word = tuple(word)
    w = rs.identity_element()
    for i in word:
        w = rs.multiply(w, rs.simple_reflection(i))
    w0 = rs.longest_element()
    if w.matrix != w0.matrix or len(word) != len(rs.positive_roots):
        raise PathModelError("not a reduced word for the longest element")
    return word


def parkinson_ram_chain(rs: RootSystem, x, y, w0_word=None) -> tuple[list, list]:
    """The greedy co-root descent y = y_0, ..., y_n; the last point is w0.x."""
    x = tuple(Fraction(c) for c in x)
    y = tuple(Fraction(c) for c in y)
    query = HullQuery(x)
    if not in_AQ(rs, y, query):
        raise PathModelError("target point is outside the orbit hull")
    word = _validate_w0_word(rs, w0_word if w0_word is not None else rs.longest_element().word)
    ys = [y]
    ms = []
    for i_k in word:
        coroot = rs.coroot_of(rs.simple_roots[i_k])
        m = 0
        cur = ys[-1]
        while True:
            cand = tuple(c - (m + 1) * s for c, s in zip(ys[-1], coroot))
            if not in_AQ(rs, cand, query):
                break
            m += 1
            cur = cand
        ys.append(cur)
        ms.append(m)
    w0x = rs.longest_element().apply(x)
    if ys[-1] != tuple(w0x):
        raise PathModelError("descent chain did not reach the opposite extreme point")
    return ys, ms


def parkinson_ram_unfold(rs: RootSystem, x, y, w0_word=None) -> tuple[list, list, PLPath]:
    """The descent chain (ys, multiplicities) and the path unfolded from it."""
    x = tuple(Fraction(c) for c in x)
    if not rs.is_dominant(x):
        raise PathModelError("the orbit generator must be dominant")
    word = _validate_w0_word(rs, w0_word if w0_word is not None else rs.longest_element().word)
    ys, ms = parkinson_ram_chain(rs, x, tuple(Fraction(c) for c in y), word)
    pi = straight_path_to(rs.longest_element().apply(x))
    for i_k, m_k in zip(reversed(word), reversed(ms)):
        for _ in range(m_k):
            nxt = root_operator_e(rs, pi, i_k)
            if nxt is None:
                raise PathModelError(
                    "root operator unexpectedly inapplicable during the unfold"
                )
            pi = nxt
    if pi.endpoint() != tuple(Fraction(c) for c in y):
        raise PathModelError("folded path missed its target")  # pragma: no cover
    return ys, ms, pi


def parkinson_ram_fold(rs: RootSystem, x, y, w0_word=None) -> PLPath:
    """A positively folded path from 0 to y, folded out of the extreme straight path."""
    return parkinson_ram_unfold(rs, x, y, w0_word)[2]


# --------------------------------------------------------------------------
# alcove walks


@dataclass(frozen=True)
class AffineMap:
    """An affine transformation x -> M x + t with rational data."""

    linear: Tuple[Tuple[Fraction, ...], ...]
    trans: Tuple[Fraction, ...]

    def apply(self, pt):
        img = apply_matrix(self.linear, pt)
        return tuple(a + b for a, b in zip(img, self.trans))

    def compose(self, other: "AffineMap") -> "AffineMap":
        lin = mat_mul(self.linear, other.linear)
        tr = tuple(
            a + b for a, b in zip(apply_matrix(self.linear, other.trans), self.trans)
        )
        return AffineMap(lin, tr)


def _identity_map(rs: RootSystem) -> AffineMap:
    eye = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(rs.rank)) for i in range(rs.rank)
    )
    return AffineMap(eye, tuple(Fraction(0) for _ in range(rs.rank)))


def _linear_map(rs: RootSystem, matrix) -> AffineMap:
    return AffineMap(
        tuple(tuple(Fraction(c) for c in row) for row in matrix),
        tuple(Fraction(0) for _ in range(rs.rank)),
    )


def fundamental_walls(rs: RootSystem) -> tuple:
    """Walls of the fundamental alcove as (root, level): index 0 is the far wall."""
    theta = rs.highest_root()
    walls = [(theta, Fraction(1))]
    for a in rs.simple_roots:
        walls.append((a, Fraction(0)))
    return tuple(walls)


def _generator_maps(rs: RootSystem) -> tuple:
    walls = fundamental_walls(rs)
    maps = []
    for j, (beta, k) in enumerate(walls):
        lin = tuple(
            tuple(Fraction(c) for c in col)
            for col in zip(*[rs.reflect(beta, rs.simple_roots[t]) for t in range(rs.rank)])
        )
        if k == 0:
            maps.append(AffineMap(lin, tuple(Fraction(0) for _ in range(rs.rank))))
        else:
            shift = tuple(Fraction(c) * k for c in rs.coroot_of(beta))
            maps.append(AffineMap(lin, shift))
    return tuple(maps)


_INTERIOR_CACHE: dict = {}


def interior_alcove_point(rs: RootSystem) -> tuple:
    """A generic rational point inside the fundamental alcove."""
    if rs.label in _INTERIOR_CACHE:
        return _INTERIOR_CACHE[rs.label]
    cw = rs.fundamental_coweights()
    weights = [Fraction(2 * i + 1, 2 * i + 2) for i in range(rs.rank)]
    d = tuple(
        sum(weights[i] * Fraction(cw[i][j]) for i in range(rs.rank)) for j in range(rs.rank)
    )
    mx = max(Fraction(rs.root_level(d, a)) for a in rs.positive_roots)
    p0 = tuple(c / (mx * 2 + 1) for c in d)
    assert all(0 < Fraction(rs.root_level(p0, a)) < 1 for a in rs.positive_roots)
    _INTERIOR_CACHE[rs.label] = p0
    return p0


@dataclass(frozen=True)
class FoldedGallery:
    """An alcove walk of fixed type with a cross/fold mask and its weight."""

    gallery_type: Tuple[int, ...]
    fold_mask: Tuple[bool, ...]
    initial: AffineMap
    alcove_track: Tuple[AffineMap, ...]
    target_in_frame: Tuple[Fraction, ...]
    weight: Tuple[Fraction, ...]

    def __len__(self):
        return len(self.gallery_type)


def _dominant_gallery_data(rs: RootSystem, xp) -> tuple:
    """Type word and crossing walls of a minimal walk from the base alcove to xp."""
    walls = fundamental_walls(rs)
    gens = _generator_maps(rs)
    for scale in (1, 2, 3, 5, 7, 11, 13, 17, 19, 23):
        p0 = tuple(c / scale for c in interior_alcove_point(rs))
        events = []
        for alpha in rs.positive_roots:
            a0 = Fraction(rs.root_level(p0, alpha))
            a1 = Fraction(rs.root_level(xp, alpha))
            if a1 == a0:
                continue
            lo, hi = (a0, a1) if a0 < a1 else (a1, a0)
            for k in range(ceil(lo), int(hi) + 1):
                if lo < k < hi:
                    t = (k - a0) / (a1 - a0)
                    if 0 < t < 1:
                        events.append((t, alpha, Fraction(k)))
        times = [e[0] for e in events]
        if len(set(times)) != len(times):
            continue
        events.sort(key=lambda e: e[0])
        u = _identity_map(rs)
        u_inv = _identity_map(rs)
        word = []
        crossings = []
        ok = True
        for t, alpha, k in events:
            q = tuple(a + t * (b - a) for a, b in zip(p0, xp))
            z = u_inv.apply(q)
            hits = [
                j
                for j, (beta, kk) in enumerate(walls)
                if Fraction(rs.root_level(z, beta)) == kk
            ]
            if len(hits) != 1:
                ok = False
                break
            j = hits[0]
            word.append(j)
            crossings.append((alpha, k))
            u = u.compose(gens[j])
            u_inv = gens[j].compose(u_inv)
        if not ok:
            continue
        x0 = u_inv.apply(tuple(Fraction(c) for c in xp))
        return tuple(word), tuple(crossings), x0, u
    raise PathModelError("could not find a generic interior base point")  # pragma: no cover


def minimal_gallery(rs: RootSystem, x) -> FoldedGallery:
    """A fold-free minimal walk from an alcove at the origin to an alcove at x."""
    if not rs.crystallographic:
        raise PathModelError("galleries need a crystallographic system")
    x = tuple(Fraction(c) for c in x)
    from .model_space import is_special_vertex

    if not is_special_vertex(rs, x):
        raise PathModelError("gallery targets must be special vertices")
    xp, w = rs.dominant_rep(x)
    winv = rs.inverse(w)
    word, crossings, x0, u_ref = _dominant_gallery_data(rs, xp)
    initial = _linear_map(rs, winv.matrix)
    gens = _generator_maps(rs)
    track = [initial]
    u = initial
    for j in word:
        u = u.compose(gens[j])
        track.append(u)
    weight = u.apply(x0)
    if weight != x:
        raise PathModelError("gallery construction lost its target")  # pragma: no cover
    expected = gallery_distance(rs, rs.zero_point(), x) - 1
    if len(word) != expected:
        raise PathModelError("gallery is not minimal")  # pragma: no cover
    return FoldedGallery(
        gallery_type=tuple(word),
        fold_mask=tuple(False for _ in word),
        initial=initial,
        alcove_track=tuple(track),
        target_in_frame=tuple(x0),
        weight=x,
    )


def folded_galleries(
    rs: RootSystem, minimal: FoldedGallery, cap: int = 1_000_000
) -> Iterable[FoldedGallery]:
    """All positively folded walks of the given type from the origin vertex.

    The source alcove ranges over the spherical orbit of the base alcove (the
    type pins panels, not the first alcove); every fold must put the retained
    alcove on the non-antidominant side of its wall.
    """
    walls = fundamental_walls(rs)
    gens = _generator_maps(rs)
    bary = interior_alcove_point(rs)
    d_int = tuple(Fraction(c) for c in rs.interior_dominant_f())
    word = minimal.gallery_type
    x0 = minimal.target_in_frame
    budget = [cap]

    own_side = {}
    for j, (beta, k) in enumerate(walls):
        own_side[j] = 1 if Fraction(rs.root_level(bary, beta)) - k > 0 else -1

    # rec carries v = (linear part of u^-1) . d_int, the one thing it reads of
    # the inverse map; crossing wall j replaces u^-1 by gens[j] . u^-1
    gen_forms = tuple(LinearForms(g.linear) for g in gens)

    def rec(idx: int, u: AffineMap, v: tuple, mask: tuple, track: tuple):
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceeded(f"gallery enumeration exceeded {cap} states")
        if idx == len(word):
            yield FoldedGallery(
                gallery_type=word,
                fold_mask=mask,
                initial=track[0],
                alcove_track=track,
                target_in_frame=x0,
                weight=u.apply(x0),
            )
            return
        j = word[idx]
        beta, _ = walls[j]
        # cross
        crossed = u.compose(gens[j])
        yield from rec(idx + 1, crossed, gen_forms[j].apply(v), mask + (False,), track + (crossed,))
        # fold, kept only when positive
        lin = Fraction(rs.root_level(v, beta))
        if own_side[j] == (1 if lin > 0 else -1):
            yield from rec(idx + 1, u, v, mask + (True,), track + (u,))

    for w in rs.weyl_group():
        start = _linear_map(rs, w.matrix)
        yield from rec(0, start, rs.inverse(w).apply(d_int), (), (start,))


def folded_gallery_endpoints(rs: RootSystem, minimal: FoldedGallery, cap: int = 1_000_000) -> tuple:
    """The set of weights of all positively folded walks of the given type."""
    return tuple(sorted({g.weight for g in folded_galleries(rs, minimal, cap)}))
