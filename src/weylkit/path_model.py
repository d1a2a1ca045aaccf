"""Piecewise-linear paths, root operators, positive folds and alcove-walk galleries.

Paths start at the origin and are kept in a reparametrization normal form: a
tuple of displacement vectors in which no two consecutive displacements point
in the same direction.  The height of a path against a simple root alpha is
``h(t) = (pi(t), alpha)``; the lowering data of the root operator then lives
on integer levels, and applying the operator shifts the endpoint by exactly
the co-root ``2 alpha / (alpha, alpha)``.

The kernels run on Python ints, in level coordinates L_j = (alpha_j, v)
(``RootSystem.to_levels``).  A path is held as its level steps over one
common denominator D, reduced so that D and the entries share no factor; the
height of a step against alpha_i is its component i, and s_i moves a step by
L <- L - L_i * cartan[i].  A split of a step at a height fraction that is not
exact over D rescales the whole path, never rounds it.  ``PLPath`` values,
with their simple-root ``Fraction`` steps, are built only for what a public
function returns: ``root_operator_e`` converts its path in, applies the one
kernel and converts the result back.

Galleries are alcove walks.  A walk is a start word ``w``, a type word and
a fold mask: step ``i`` either crosses the panel of type ``word[i]`` or
folds at it, and these three fix every alcove of the walk.  A point moves
through a walk by the reflections in the walls of the fundamental alcove,
each an integer map of level vectors (``RootSystem.alcove_walls``); no
affine maps are composed.  A fold is positive when the wall separates the
retained alcove from the antidominant direction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Tuple

from .model_space import (
    DEFAULT_CAP, CapExceeded, coroot_numerators, gallery_distance, in_AQ, is_special_vertex, point_sub,
)
from .root_system import RootSystem
from .scalars import ScalarDomainError


class PathModelError(ValueError):
    pass


def _require_lattice(rs: RootSystem) -> None:
    if not rs.crystallographic:
        raise PathModelError("paths need a crystallographic system")


# --------------------------------------------------------------------------
# paths


def _is_positive_multiple(v, w) -> bool:
    """Whether w = c v for some c > 0, decided by cross-multiplication at v's pivot."""
    piv = next((j for j, c in enumerate(v) if c != 0), None)
    if piv is None or w[piv] == 0 or (w[piv] > 0) != (v[piv] > 0):
        return False
    return all(wj * v[piv] == vj * w[piv] for vj, wj in zip(v, w))


def _canonical_steps(steps: Iterable[tuple]) -> tuple:
    """Exact steps in normal form: zero steps dropped, positively parallel neighbours merged."""
    out: list[tuple] = []
    for v in steps:
        if not any(v):
            continue
        if out and _is_positive_multiple(out[-1], v):
            out[-1] = tuple(a + b for a, b in zip(out[-1], v))
        else:
            out.append(v)
    return tuple(out)


def _joined(prefix: tuple, middle: Sequence, suffix: tuple) -> tuple:
    """``_canonical_steps(prefix + middle + suffix)`` for canonical ``prefix`` and ``suffix``.

    Only the middle and the two steps that meet it can merge: a step merged
    into prefix[-1] or suffix[0] keeps its direction, which differs from that
    of its other canonical neighbour.
    """
    return prefix[:-1] + _canonical_steps((*prefix[-1:], *middle, *suffix[:1])) + suffix[1:]


@dataclass(frozen=True)
class PLPath:
    """A piecewise-linear path from the origin of rank-``rank`` space, as canonical displacement steps."""

    steps: Tuple[Tuple[Fraction, ...], ...]
    rank: int

    def endpoint(self) -> tuple:
        acc = (Fraction(0),) * self.rank
        for v in self.steps:
            acc = tuple(a + b for a, b in zip(acc, v))
        return acc

    def breakpoints(self) -> list[tuple[Fraction, tuple]]:
        """(time, point) pairs at uniform parameter speed."""
        m = max(1, len(self.steps))
        cur = (Fraction(0),) * self.rank
        pts = [(Fraction(0), cur)]
        for k, v in enumerate(self.steps, 1):
            cur = tuple(a + b for a, b in zip(cur, v))
            pts.append((Fraction(k, m), cur))
        return pts

    def __len__(self):
        return len(self.steps)


def _exact(v) -> tuple:
    """The coordinates of v as Fractions; ``ScalarDomainError`` for a lex or number-field value."""
    try:
        return tuple(Fraction(c) for c in v)
    except TypeError:
        raise ScalarDomainError("paths and galleries need rational coordinates") from None


def path_from_steps(steps: Iterable[Sequence], rank: Optional[int] = None) -> PLPath:
    """The path of the given steps, made exact here; ``rank`` is needed only when there are none."""
    steps = tuple(map(_exact, steps))
    if steps:
        rank = len(steps[0])
    if rank is None:
        raise PathModelError("a path without steps needs a rank")
    return PLPath(_canonical_steps(steps), rank)


def path_from_points(points: Sequence[Sequence]) -> PLPath:
    steps = [point_sub(b, a) for a, b in zip(points, points[1:])]
    return path_from_steps(steps, len(points[0]))


def straight_path_to(x) -> PLPath:
    return path_from_steps([x])


# --------------------------------------------------------------------------
# the raising root operator


def _reduced(steps: tuple, den: int) -> tuple:
    """(steps, den) divided by the greatest common factor of den and every entry."""
    g = den
    for v in steps:
        g = gcd(g, *v)
        if g == 1:
            return steps, den
    return tuple(tuple(c // g for c in v) for v in steps), den // g


def _levels_of(rs: RootSystem, path: PLPath) -> tuple:
    """The path as (level steps, den)."""
    steps, den = rs.to_levels(path.steps)
    return _reduced(tuple(steps), den)


def _path_of(rs: RootSystem, steps: tuple, den: int, rank: int) -> PLPath:
    """The PLPath of (level steps, den)."""
    return PLPath(tuple(rs.from_levels(v, den) for v in steps), rank)


def _sorted_paths(rs: RootSystem, paths, rank: int) -> tuple:
    """The PLPaths of the (level steps, den) in ``paths``, sorted by their steps.

    Each distinct step is converted once.
    """
    steps_of = {key: rs.from_levels(*key) for key in {(v, den) for steps, den in paths for v in steps}}
    out = [PLPath(tuple(steps_of[(v, den)] for v in steps), rank) for steps, den in paths]
    return tuple(sorted(out, key=lambda p: p.steps))


def _raise(rs: RootSystem, i: int, steps: tuple, den: int) -> Optional[tuple]:
    """e_i on the canonical (level steps, den), reduced; None when it does not apply.

    Heights are component i of the partial sums, integers over den.  A step
    split at height fraction a / b is kept as the piece (v, a, b), the vector
    a / b * v, until the end; one common factor m, taken as each piece is
    made, then makes every piece an integer vector over den * m.
    """
    row = rs.integer_cartan[i]  # s_i moves a level vector v by v - v[i] * row
    heights = list(accumulate((v[i] for v in steps), initial=0))
    n = min(heights)
    if n > -den:
        return None
    idx1 = heights.index(n)
    # first strict undershoot of n + 1 along the prefix
    top = n + den
    s = 0
    while heights[s + 1] >= top:
        s += 1
    pieces = []
    m = 1
    middle = deque((v, 1, 1) for v in steps[s:idx1])
    if heights[s] != top:
        a, b = heights[s] - top, heights[s] - heights[s + 1]
        pieces.append((steps[s], a, b))
        m = b // gcd(b, a * gcd(*steps[s]))
        middle[0] = (steps[s], b - a, b)

    while middle:
        v, p, q = middle.popleft()
        if q != 1:
            # s_i is an integer involution, so it keeps gcd(*v): v's factor serves its image
            m = lcm(m, q // gcd(q, p * gcd(*v)))
        inc = v[i] * p // q
        if inc < 0:
            vi = v[i]
            pieces.append((tuple([c - vi * r for c, r in zip(v, row)]), p, q))
        elif inc == 0:
            pieces.append((v, p, q))
        else:
            # an excursion above the running minimum: keep it, up to its return
            acc = inc
            pieces.append((v, p, q))
            while acc > 0:
                w, p, q = middle.popleft()
                winc = w[i] * p // q
                if acc + winc >= 0:
                    acc += winc
                else:
                    # the rest of w goes back to the middle, and its factor is taken when it is popped
                    middle.appendleft((w, p * (-winc - acc), q * -winc))
                    p, q, acc = p * acc, q * -winc, 0
                pieces.append((w, p, q))
                if q != 1:
                    m = lcm(m, q // gcd(q, p * gcd(*w)))
    out = [v if m == q == 1 else tuple([c * p * m // q for c in v]) for v, p, q in pieces]
    prefix, suffix = steps[:s], steps[idx1:]
    if m != 1:
        prefix = tuple([tuple([c * m for c in v]) for v in prefix])
        suffix = tuple([tuple([c * m for c in v]) for v in suffix])
    return _reduced(_joined(prefix, out, suffix), den * m)


def root_operator_e(rs: RootSystem, path: PLPath, i: int) -> Optional[PLPath]:
    """The raising operator for the i-th simple root; None when it does not apply."""
    _require_lattice(rs)
    nxt = _raise(rs, i, *_levels_of(rs, path))
    return None if nxt is None else _path_of(rs, *nxt, path.rank)


# --------------------------------------------------------------------------
# positive folds of paths


def positive_fold_closure(rs: RootSystem, path: PLPath, cap: int = DEFAULT_CAP, *, paths: bool = True) -> tuple:
    """The least e-closed set of paths containing ``path``; returns (paths, endpoints).

    With ``paths=False`` the first element is the set of explored states,
    (level steps, den) pairs, and no ``PLPath`` is built.
    """
    _require_lattice(rs)
    start = _levels_of(rs, path)
    seen = {start}
    queue = deque([start])
    while queue:
        steps, den = queue.popleft()
        for i in range(rs.rank):
            nxt = _raise(rs, i, steps, den)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                if len(seen) > cap:
                    raise CapExceeded(f"positive fold closure exceeded {cap} paths")
                queue.append(nxt)
    # () for the empty path: the origin
    endpoints = rs.sorted_from_levels((tuple(map(sum, zip(*steps))), den) for steps, den in seen)
    return (_sorted_paths(rs, seen, path.rank) if paths else seen), endpoints


def _validate_w0_word(rs: RootSystem, word=None) -> tuple:
    """The given reduced word for w0, checked; w0's own word, which needs no check, when None."""
    if word is None:
        return rs.longest_element().word
    word = tuple(word)
    if not all(0 <= i < rs.rank for i in word):
        raise PathModelError(f"w0 word letters must lie in 0..{rs.rank - 1}")
    if rs.element(word).matrix != rs.longest_element().matrix or len(word) != len(rs.positive_roots):
        raise PathModelError("not a reduced word for the longest element")
    return word


def parkinson_ram_chain(rs: RootSystem, x, y, w0_word=None) -> tuple[list, list]:
    """The greedy co-root descent y = y_0, ..., y_n; the last point is w0.x.

    Step k moves y_{k-1} by the largest multiple m_k of the simple co-root of
    letter k that keeps it in the hull.  The steps run on the numerators of
    y and x+ over one denominator that clears the co-root steps too: each
    candidate is one integer dominance walk, compared with x+.  x must be a
    special vertex: off the co-weight lattice w0.x is not in the co-root
    coset of x, so no descent reaches it.
    """
    xp, _ = rs.dominant_rep(x)
    (cur, xpn), steps, den = coroot_numerators(rs, y, xp)
    if not is_special_vertex(rs, x):
        raise PathModelError("the orbit generator must be a special vertex (a co-weight lattice point)")
    if not (in_AQ(rs, y, xp) and rs.coroot_coset_member(x, y)):
        raise PathModelError("target point is outside the orbit hull")
    word = _validate_w0_word(rs, w0_word)
    chain = [cur]
    ms = []
    for i_k in word:
        # y - m alpha^ stays in the coset of y, which was tested above
        cand = list(chain[-1])
        m = 0
        while True:
            cand[i_k] -= steps[i_k]
            if any(a < b for a, b in zip(xpn, rs.dominant_numerators(cand)[0])):
                break
            m += 1
        cand[i_k] += steps[i_k]
        chain.append(tuple(cand))
        ms.append(m)
    value = {c: Fraction(c, den) for c in {c for v in chain for c in v}}
    ys = [tuple(value[c] for c in v) for v in chain]
    if ys[-1] != rs.longest_element().apply(x):
        raise PathModelError("descent chain did not reach the opposite extreme point")
    return ys, ms


def parkinson_ram_unfold(rs: RootSystem, x, y, w0_word=None) -> tuple[list, list, PLPath]:
    """The descent chain (ys, multiplicities) and the path unfolded from it."""
    if not rs.is_dominant(x):
        raise PathModelError("the orbit generator must be dominant")
    try:
        ys, ms = parkinson_ram_chain(rs, x, y, w0_word)
    except PathModelError:
        # the chain checks the target before the word; an unfold reports a bad word first
        _validate_w0_word(rs, w0_word)
        raise
    word = tuple(w0_word) if w0_word is not None else rs.longest_element().word
    path = _levels_of(rs, straight_path_to(ys[-1]))  # w0.x, where the chain ends
    for i_k, m_k in zip(reversed(word), reversed(ms)):
        for _ in range(m_k):
            path = _raise(rs, i_k, *path)
            if path is None:
                raise PathModelError(
                    "root operator unexpectedly inapplicable during the unfold"
                )
    pi = _path_of(rs, *path, rs.rank)
    if pi.endpoint() != ys[0]:
        raise PathModelError("folded path missed its target")  # pragma: no cover
    return ys, ms, pi


def parkinson_ram_fold(rs: RootSystem, x, y, w0_word=None) -> PLPath:
    """A positively folded path from 0 to y, folded out of the extreme straight path."""
    return parkinson_ram_unfold(rs, x, y, w0_word)[2]


# --------------------------------------------------------------------------
# alcove walks


def _reflect_levels(walls, word, y, den: int) -> tuple:
    """The level vector y / den reflected in the ``walls`` of ``word``, first letter first.

    ``walls`` is ``RootSystem.alcove_walls``.  With den = 0 only the linear
    parts act, as on a direction.
    """
    for j in word:
        beta, k, c = walls[j]
        t = sum(map(mul, beta, y)) - k * den
        if t:
            y = tuple(a - t * b for a, b in zip(y, c))
    return y


@dataclass(frozen=True)
class FoldedGallery:
    """An alcove walk of fixed type: a start, a type word and a fold mask, with its weight.

    The walk begins at the alcove w A_0, for w the element of the word
    ``start`` and A_0 the fundamental alcove; step i crosses the panel of type
    ``gallery_type[i]``, or folds at it when ``fold_mask[i]`` is set.  The
    ``target`` (in the frame of the last alcove) and the ``weight``, which is
    the target reflected in the crossed walls, last first, and moved by w,
    are (integer level vector, den) pairs (``RootSystem.to_levels``).
    """

    gallery_type: Tuple[int, ...]
    fold_mask: Tuple[bool, ...]
    start: Tuple[int, ...]
    target: tuple
    weight: tuple

    def __len__(self):
        return len(self.gallery_type)


def _dominant_gallery_data(rs: RootSystem, xp) -> tuple:
    """(type word, (levels, den) of xp in the frame of the last alcove) of a minimal walk from the base alcove to xp.

    The walk starts at q = xp + e (p0 - xp), for p0 inside the fundamental
    alcove and 0 < e < 1 / (1 + (theta, xp)); (theta, xp) is the largest
    (alpha, xp), xp being dominant.  Every (alpha, xp) is an integer, so q
    lies on no wall, inside the alcove at xp nearest the base alcove.  While
    q lies beyond a wall of the base alcove, q is reflected in it.  Each
    reflection crosses one wall separating q's alcove from the base alcove,
    so the letters are a reduced word, and the type of a minimal walk.
    """
    walls = rs.alcove_walls
    (x,), x_den = rs.to_levels((xp,))
    # wall 0 is (-theta, x) = -1, so (theta, xp) = -(beta_0 . x) / x_den
    e = Fraction(x_den, 2 * x_den - sum(map(mul, walls[0][0], x)))
    q = tuple(a + e * (b - a) for a, b in zip(xp, rs.interior_alcove_point))
    (q,), den = rs.to_levels((q,))
    word: list[int] = []
    while True:
        # reflections permute the walls, so q stays on none: no level equals k
        j = next((j for j, (beta, k, _) in enumerate(walls) if sum(map(mul, beta, q)) < k * den), None)
        if j is None:
            return tuple(word), (_reflect_levels(walls, word, x, x_den), x_den)
        q = _reflect_levels(walls, (j,), q, den)
        word.append(j)


def minimal_gallery(rs: RootSystem, x) -> FoldedGallery:
    """A fold-free minimal walk from an alcove at the origin to an alcove at x."""
    if not rs.crystallographic:
        raise PathModelError("galleries need a crystallographic system")
    x = _exact(x)
    if not is_special_vertex(rs, x):
        raise PathModelError("gallery targets must be special vertices")
    xp, to_dominant = rs.dominant_rep(x)
    word, target = _dominant_gallery_data(rs, xp)
    # the target reflected in every letter, last first, then moved by the start, the inverse of to_dominant
    y, den = target
    y = _reflect_levels(rs.alcove_walls, (*reversed(word), *(i + 1 for i in to_dominant)), y, den)
    if rs.from_levels(y, den) != x:
        raise PathModelError("gallery construction lost its target")  # pragma: no cover
    expected = gallery_distance(rs, rs.zero_point(), x) - 1
    if len(word) != expected:
        raise PathModelError("gallery is not minimal")  # pragma: no cover
    return FoldedGallery(
        gallery_type=word,
        fold_mask=tuple(False for _ in word),
        start=tuple(reversed(to_dominant)),
        target=target,
        weight=(y, den),
    )


def folded_galleries(
    rs: RootSystem, minimal: FoldedGallery, cap: int = DEFAULT_CAP
) -> Iterable[FoldedGallery]:
    """All positively folded walks of the given type from the origin vertex.

    The source alcove ranges over the spherical orbit of the base alcove (the
    type pins panels, not the first alcove); every fold must put the retained
    alcove on the non-antidominant side of its wall.  Each start w is walked
    depth first, crossing before folding; every node of the walk tree costs
    one state of ``cap``.
    """
    walls = rs.alcove_walls
    word = minimal.gallery_type
    target, den = minimal.target
    # crossed letters c -> the target reflected in them, c[-1] first: each
    # distinct suffix costs one reflection
    inner = {(): target}

    def reflected(crossed: tuple) -> tuple:
        y = inner.get(crossed)
        if y is None:
            y = inner[crossed] = _reflect_levels(walls, crossed[:1], reflected(crossed[1:]), den)
        return y

    # every start costs a state: past the cap, the Weyl group is not built
    if rs.weyl_order > cap:
        raise CapExceeded(f"gallery enumeration exceeded {cap} states")
    budget = cap
    n = len(word)
    # a node is (idx, v, mask, crossed); v = (linear part of u^-1) . d as
    # levels, for u the affine map from the fundamental alcove to the current
    # one and d the regular dominant vector with every level 1: the one thing
    # the walk reads of u.  Crossing wall j moves v by the linear part of that
    # wall's reflection.  The weight of a leaf is M_w applied to the target
    # reflected in its crossed letters.  A leaf is built as
    # ``ProjectiveValuation._closed`` builds its valuations: its fields go
    # into the instance dict in one update, past the frozen dataclass's
    # ``__init__``, and it compares, hashes and prints as the dataclass does.
    new, given = object.__new__, minimal.target
    for w, start, m_w in rs.alcove_walk_starts:
        stack = [(0, start, (), ())]
        while stack:
            idx, v, mask, crossed = stack.pop()
            budget -= 1
            if budget < 0:
                raise CapExceeded(f"gallery enumeration exceeded {cap} states")
            if idx == n:
                z = reflected(crossed)
                y = tuple([sum(map(mul, row, z)) for row in m_w])
                leaf = new(FoldedGallery)
                vars(leaf).update(gallery_type=word, fold_mask=mask, start=w, target=given, weight=(y, den))
                yield leaf
                continue
            j = word[idx]
            beta, _, c = walls[j]
            t = sum(map(mul, beta, v))
            # fold, kept only when positive: (beta, v) > 0 for the oriented
            # wall.  v is a Weyl image of d, so (beta, v) is never 0
            if t > 0:
                stack.append((idx + 1, v, mask + (True,), crossed))
            # cross, pushed last so that it is walked first
            stack.append((idx + 1, tuple([a - t * e for a, e in zip(v, c)]), mask + (False,), crossed + (j,)))


def folded_gallery_endpoints(rs: RootSystem, minimal: FoldedGallery, cap: int = DEFAULT_CAP) -> tuple:
    """The set of weights of all positively folded walks of the given type, sorted."""
    return rs.sorted_from_levels(g.weight for g in folded_galleries(rs, minimal, cap))
