"""Rank-one geometry: projective valuations, rooted tree data and their round trip.

An end-set with a quadruple table (the projective valuation) determines a
tree; the tree returns a canonical valuation; the two must agree exactly.
Everything here is finite and exhaustively checkable, with values in any
ordered abelian group from :mod:`weylkit.scalars`.  A check reads one view of
a table, a list in ``permutations(ends, 4)`` order of the values' integer
codes (:func:`_encode`) or of the values, through the layout of its number
of ends (:func:`_layout`).  It decides with ``map`` over ``itemgetter``s and
loops over the quadruples only to list what a failed decision found.

A partial table, as the ``tree`` command or :func:`valuation_from_entries`
gives it, has one reader, :func:`valuation_from_lists`, which reads it in one
pass: the end labels of its keys become positions through the layout, each
distinct value object is encoded and negated once, and the view is closed
orbit by orbit.  No dict keyed by quadruples of end labels is built;
``ProjectiveValuation.table`` is derived from the view when it is first read.
A table it cannot close is refused by one loop over the entries
(:func:`_refuse`), which names the first of: an end listed twice, a value
whose negation or comparison raises, a bad key, a conflict, a missing quadruple.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .scalars import INF, Infinity, LexPair, ScalarDomainError, _clear_denominators, compare, sign, zero_like


class TreeError(ValueError):
    pass


_EVEN_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # of a base triple
_PARTNERS = ((2, 3, 0, 1), (0, 1, 3, 2), (0, 3, 2, 1), (0, 2, 1, 3))
_EXCHANGED, _COMPANION = "exchange of b and d changed a positive value", "companion quadruple is not zero"


# --------------------------------------------------------------------------
# tables on cleared integers, read through positions


def _encode(values: list) -> Optional[list]:
    """Integer codes that order sums of the values exactly as the values do.

    Fractions are scaled by the lcm L of their denominators.  A lex pair of
    Fractions (hi, lo) becomes H*M + Lo, where H = hi*L, Lo = lo*L, L is the
    lcm over every hi and lo, and M = 16*max|Lo| + 1.  For integers c_i with
    sum |c_i| <= 16, sum c_i*code_i = H*M + Lo with H = sum c_i*H_i and
    |Lo| = |sum c_i*Lo_i| < M: zero exactly when H = Lo = 0, else of the
    lex sign of sum c_i*v_i.  The largest sum compared here, the round
    trip's kappa(a,b,d) - kappa(a,b,c) - omega(q), has sum |c_i| <= 7.
    None unless all values are Fractions or all lex pairs of Fractions.
    """
    lex = bool(values) and set(map(type, values)) == {LexPair}
    flat = [v.hi for v in values] + [v.lo for v in values] if lex else values
    if not set(map(type, flat)) <= {Fraction}:
        return None
    codes = _clear_denominators(flat)[0]
    if not lex:
        return codes
    his, los = codes[: len(values)], codes[len(values) :]
    m = 16 * max(map(abs, los), default=0) + 1
    return [h * m + lo for h, lo in zip(his, los)]


def _distinct(values: list) -> tuple:
    """``(distinct, which)``: the distinct objects among the values, in order of first
    use, and for each value its index in them."""
    ids = list(map(id, values))
    by_id = dict(zip(ids, values))
    return list(by_id.values()), _getter(ids)(dict(zip(by_id, itertools.count())))


def _getter(positions) -> Callable:
    """``operator.itemgetter(*positions)``, returning a tuple however few the positions."""
    positions = tuple(positions)
    return operator.itemgetter(*positions) if len(positions) > 1 else lambda items: tuple(items[p] for p in positions)


class _Layout(NamedTuple):
    """Positions for n ends, and getters of them; quadruples, pairs, triples in permutations(range(n), k) order."""

    partners: Tuple[Callable, ...]  # quadruple (a, b, c, d) -> (c, d, a, b), (a, b, d, c), (a, d, c, b), (a, c, b, d)
    slot: Tuple[int, ...]  # quadruple -> 2*orbit + 1 on the half of its PV1 orbit's first quadruple, else 2*orbit
    heads: Tuple[Callable, ...]  # slot -> its first quadruple (a, b, c, d), and that one's (a, d, c, b), (a, c, b, d)
    where: Dict[tuple, int]  # quadruple (a, b, c, d) of end indices -> its position
    cocycle: Tuple[Tuple[Callable, ...], ...]  # of the blocks d < e, then of their mirrors: (a, b, d, e), (a, r, d, e)
    # and (b, r, d, e) of each check of _failed_blocks
    medians: Tuple[Callable, ...]  # quadruple (a, b, c, d) -> triples (a, b, d) and (a, b, c)
    wedges: Tuple[Callable, ...]  # triple (a, b, c) -> pairs (a, b), (a, c) and (b, c)
    blocks: Tuple[tuple, ...]  # each block's quadruples (a, b, d, e), a != b, for _cocycle_failures, in block order
    block_triples: Tuple[tuple, ...]  # permutations(range(n - 2), 3), a block's triples of ends by rank
    block_sums: Tuple[Callable, ...]  # block triple (i, j, k) -> block pairs (i, j), (i, k) and (j, k)


@functools.cache
def _layout(n: int) -> _Layout:
    """The layout of n ends, built on first use: a pure function of n.

    Block 2k is the k-th pair (d, e) of ``combinations(range(n), 2)`` and
    block 2k + 1 its mirror (e, d); both have the same other ends, in order.
    """
    quads, pairs, triples, block, block_triples = (
        list(itertools.permutations(range(m), k)) for m, k in ((n, 4), (n, 2), (n, 3), (n - 2, 2), (n - 2, 3))
    )
    where, tri, pair, blk = ({k: i for i, k in enumerate(keys)} for keys in (quads, triples, pairs, block))
    slot, heads = [None] * len(quads), []

    def spots(items, index, *order):  # the position in index of each item's entries, taken in order
        return list(map(index.__getitem__, map(operator.itemgetter(*order), items)))

    for quad, p in where.items():
        # an orbit's first quadruple (a, b, c, d) has a least and c < d, so (a, b, d, c) heads its minus half
        if slot[p] is None:
            s, (a, b, c, d) = len(heads), quad
            for half, members in zip((1, 0), _pv1_orbit(quad)):
                for q in members:
                    slot[where[q]] = s + half
            heads += [where[a, b, d, c], p]
    lower, upper, blocks, sides = [], [], [], ((0, 1), (0, 2), (1, 2))
    for d, e in itertools.combinations(range(n), 2):
        rest = [x for x in range(n) if x != d and x != e]
        for f, g, checks in ((d, e, lower), (e, d, upper)):
            blocks.append([where[rest[i], rest[j], f, g] for i, j in block])
            checks += [
                (where[a, b, f, g], where[a, rest[0], f, g] if a != rest[0] else len(quads), where[b, rest[0], f, g])
                for a, b in itertools.permutations(rest, 2)
                if n >= 5 and b != rest[0]
            ]
    partners = [spots(quads, where, *order) for order in _PARTNERS]
    return _Layout(
        partners=tuple(map(_getter, partners)),
        slot=tuple(slot),
        heads=(_getter(heads), *(_getter(map(partners[k].__getitem__, heads)) for k in (2, 3))),
        where=where,
        cocycle=tuple(tuple(map(_getter, zip(*checks))) for checks in (lower, upper)),
        medians=tuple(_getter(spots(quads, tri, 0, 1, k)) for k in (3, 2)),
        wedges=tuple(_getter(spots(triples, pair, i, j)) for i, j in sides),
        blocks=tuple(map(tuple, blocks)),
        block_triples=tuple(block_triples),
        block_sums=tuple(_getter(spots(block_triples, blk, i, j)) for i, j in sides),
    )


def _view(pv: "ProjectiveValuation") -> tuple:
    """``(list, cmp, sgn)``: pv's codes with ``operator.sub`` and ``operator.pos``, or its values."""
    return (pv._values, compare, sign) if pv.codes is None else (pv.codes, operator.sub, operator.pos)


# --------------------------------------------------------------------------
# projective valuations


def _pv1_orbit(quad: tuple) -> tuple:
    a, b, c, d = quad
    plus = ((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a))
    return plus, ((a, b, d, c), (b, a, c, d), (d, c, a, b), (c, d, b, a))


def _refuse(ends: tuple, names: list, values: list) -> None:
    """Raise what the entries of :func:`valuation_from_lists` break first; return where they break nothing.

    Of two entries that name one quadruple, the later value is read at the
    earlier entry's place.  Each entry is compared, half by half, with what its
    PV1 orbit's previous entry wrote there: the value, or where the halves of
    the two entries are swapped, its negation.  The first of these raises: an
    end listed twice; the first entry whose negation or comparison raises; the
    first key with a name that is no end (then one that repeats an end); the
    first three quadruples whose value a later entry contradicts, each as
    "written vs new"; the first missing quadruple in ``permutations(ends, 4)``.
    """
    for i, e in enumerate(ends):
        if e in ends[:i]:
            raise TreeError(f"end {e!r} is listed twice")
    # previous: orbit -> the minus half, value and negation of the orbit's latest entry
    entries, previous, conflicts = dict(zip(zip(*[iter(names)] * 4), values)), {}, []
    for quad, val in entries.items():
        neg, (plus, minus) = -val, _pv1_orbit(quad)
        orbit = frozenset(plus + minus)
        if orbit in previous:
            p_minus, p_val, p_neg = previous[orbit]
            swapped = quad in p_minus
            for half, old, new in ((plus, p_neg if swapped else p_val, val), (minus, p_val if swapped else p_neg, neg)):
                if compare(old, new) != 0:
                    conflicts += [("PV1", q, f"{old!r} vs {new!r}") for q in half]
        elif len(orbit) < 8:  # a key that repeats an end writes a quadruple twice: the two values are compared
            compare(val, neg)
        previous[orbit] = minus, val, neg
    known = set(ends)
    for quad in entries:
        outside = [e for e in quad if e not in known]
        if outside:
            raise TreeError(f"bad quadruple key {quad}: {outside[0]!r} is not an end")
        if len(set(quad)) != 4:
            raise TreeError(f"bad quadruple key {quad}: it must name four distinct ends")
    if conflicts:
        raise TreeError(f"inconsistent table under the symmetry axiom: {conflicts[:3]}")
    for quad in itertools.permutations(ends, 4):
        if frozenset(itertools.chain(*_pv1_orbit(quad))) not in previous:
            raise TreeError(f"incomplete table, e.g. {quad}")


class ProjectiveValuation:
    """A complete table of values on ordered quadruples of pairwise distinct ends; its view is derived on first use.

    A valuation read from entries (:func:`valuation_from_lists`) holds its view
    and no table; its table is derived from the view on first read.
    """

    # set on an instance, as its view is, when it is read from entries: the
    # table was closed under PV1 without a conflict, so PV1 holds on every quadruple
    _closed_under_pv1 = False

    def __init__(self, ends: Tuple[str, ...], table: Dict[tuple, object]):
        vars(self).update(ends=ends, table=table)

    @classmethod
    def _closed(cls, ends: Tuple[str, ...], values: list, codes: Optional[list]) -> "ProjectiveValuation":
        """The valuation of a table closed under PV1 without a conflict, given by its view."""
        pv = cls.__new__(cls)
        vars(pv).update(ends=ends, _values=values, codes=codes, _closed_under_pv1=True)
        return pv

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @functools.cached_property
    def table(self) -> Dict[tuple, object]:
        """{quadruple: value} in ``quadruples()`` order, for a valuation built without one."""
        return dict(zip(self.quadruples(), self._values))

    @functools.cached_property
    def _values(self) -> list:
        """The table's values in ``quadruples()`` order; a missing quadruple raises TreeError."""
        try:
            return list(map(self.table.__getitem__, self.quadruples()))
        except KeyError as exc:
            raise TreeError(f"missing quadruple {exc.args[0]}") from None

    @functools.cached_property
    def codes(self) -> Optional[list]:
        """Codes of the values (:func:`_encode`) in ``quadruples()`` order, or None: the view of the values.

        None unless the ends are distinct and the table complete; no part of eq, hash or repr."""
        try:
            return _encode(self._values) if len(set(self.ends)) == len(self.ends) else None
        except TreeError:
            return None

    def value(self, a, b, c, d):
        try:
            return self.table[(a, b, c, d)]
        except KeyError:
            raise TreeError(f"missing quadruple {(a, b, c, d)}") from None

    def quadruples(self):
        return itertools.permutations(self.ends, 4)

    def __eq__(self, other):
        return isinstance(other, ProjectiveValuation) and self.ends == other.ends and self.table == other.table

    def __hash__(self):  # tables are dicts; identity hash is enough here
        return hash(self.ends)

    def __repr__(self):
        return f"ProjectiveValuation(ends={self.ends!r}, table={self.table!r})"


def valuation_from_entries(ends: Sequence[str], entries: Dict[tuple, object]) -> ProjectiveValuation:
    """The valuation of a partial table, read as :func:`valuation_from_lists` reads its keys' names and values.

    A key that is not a tuple of four names raises TreeError.
    """
    for key in entries:
        if not isinstance(key, tuple) or len(key) != 4:
            raise TreeError(f"bad quadruple key {key!r}: it must be a tuple of four ends")
    return valuation_from_lists(ends, list(itertools.chain.from_iterable(entries)), list(entries.values()))


def valuation_from_lists(ends: Sequence[str], names: list, values: list) -> ProjectiveValuation:
    """The valuation of the entries ``names[4i : 4i + 4]`` -> ``values[i]``, closed under PV1 in one pass.

    Of two entries that name one quadruple, the later value is read at the
    earlier entry's place.  Each orbit takes the values its last entry writes,
    and each distinct value object is encoded, negated and compared once.
    Each entry must equal its orbit's previous entry; on codes, or on values
    of one group, that holds exactly when it equals the orbit's last entry.
    Where that decision fails or cannot be made, :func:`_refuse` decides.
    """
    ends = tuple(ends)
    index = dict(zip(ends, itertools.count()))
    refuse = functools.partial(_refuse, ends, names, values)
    if len(index) < len(ends):
        refuse()  # raises: an end listed twice, before a layout is built for them
    lay = _layout(len(ends))
    try:
        positions = list(map(lay.where.__getitem__, zip(*[iter(_getter(names)(index))] * 4)))
    except KeyError:  # a name that is no end, or a key that repeats one
        refuse()  # raises: a bad key
    if len(set(positions)) < len(positions):
        kept = dict(zip(positions, values))
        positions, values = list(kept), list(kept.values())
    slots = _getter(positions)(lay.slot)
    last = dict(zip(map(operator.rshift, slots, itertools.repeat(1)), itertools.count()))  # orbit -> its last entry
    distinct, which = _distinct(values)
    codes = _encode(distinct)
    # slot -> the index in signed of the value it takes: its orbit's last entry's, or that negated
    lasts = _getter(last.values())
    ref = dict(zip(lasts(slots), lasts(which)))
    ref.update([(s ^ 1, k + len(distinct)) for s, k in ref.items()])
    try:
        signed = distinct + list(map(operator.neg, distinct))
        keys, cmp = (signed, compare) if codes is None else (codes + list(map(operator.neg, codes)), operator.sub)
        decided = (
            8 * len(last) == len(lay.slot)  # every orbit is written
            and (codes is not None or len(set(map(zero_like, distinct))) < 2)
            and not any(map(cmp, _getter(which)(keys), _getter(_getter(slots)(ref))(keys)))
        )
    except TypeError:  # a value without a negation, a zero or a comparison
        decided = False
    if not decided:
        refuse()
    closed = _getter(lay.slot)(ref)
    values, codes = list(map(signed.__getitem__, closed)), codes and list(map(keys.__getitem__, closed))
    return ProjectiveValuation._closed(ends, values, codes)


@dataclass(frozen=True)
class PVReport:
    violations: Tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_pv(pv: ProjectiveValuation) -> PVReport:
    """Verify the three valuation axioms; violations are data.

    Each axiom is decided with ``map`` over the layout's getters, and only a
    decision that fails is listed, in quadruple order and then in 5-tuple order.
    PV1 is decided first, except on a table that :func:`valuation_from_lists` or
    :func:`valuation_from_entries` closed.  Where it holds, PV1 maps the
    exchange and companion partners of every quadruple of a half-orbit onto
    those of its first quadruple, its head: PV2 is decided on the exchanges of
    the positive heads (a nonzero companion comes with a changed exchange), and
    listed at the members of the half-orbits whose head fails.  A table where
    PV1 fails is listed by a loop over the quadruples.  PV3 is decided by
    :func:`_failed_blocks`, on the blocks d < e alone where PV1 holds, and
    listed by :func:`_cocycle_failures` on the blocks that fail.  Values of two
    groups, or of none, are not decided: the listings raise as the loops over
    quadruples and 5-tuples do.
    """
    n, (view, cmp, sgn), pv1 = len(pv.ends), _view(pv), not pv._closed_under_pv1
    lay, out = _layout(n), []
    try:
        decide = cmp is not compare or len(set(map(zero_like, dict(zip(map(id, view), view)).values()))) < 2
    except ScalarDomainError:
        decide = False
    swapped, flipped = lay.partners[:2]
    closed = decide and not (
        pv1 and (any(map(cmp, view, swapped(view))) or any(map(cmp, view, map(operator.neg, flipped(view)))))
    )
    if closed:
        heads, exchanged, companions = lay.heads
        at = heads(view)
        positive = list(itertools.compress(range(len(at)), map((0).__lt__, map(sgn, at))))
        get = _getter(positive)
        moved = list(map(cmp, get(exchanged(view)), get(at)))
        # listed at each member of a failed half-orbit, as at its head
        if any(moved):
            nonzero = map(sgn, get(companions(view)))
            failed = {s: (x, c) for s, x, c in zip(positive, moved, nonzero) if x or c}
            for q, s in itertools.compress(zip(pv.quadruples(), lay.slot), map(failed.__contains__, lay.slot)):
                x, c = failed[s]
                if x:
                    out.append(("PV2", q, _EXCHANGED))
                if c:
                    out.append(("PV2", q, _COMPANION))
    else:
        partners = [get(view) for get in lay.partners]
        for q, v, s, f, x, c in zip(pv.quadruples(), view, *partners):
            if pv1 and cmp(v, s) != 0:
                out.append(("PV1", q, "pair swap changed the value"))
            if pv1 and cmp(v, -f) != 0:
                out.append(("PV1", q, "flip of the second pair did not negate"))
            if sgn(v) > 0:
                if cmp(x, v) != 0:
                    out.append(("PV2", q, _EXCHANGED))
                if sgn(c) != 0:
                    out.append(("PV2", q, _COMPANION))
    blocks = _failed_blocks(n, view, cmp, closed) if decide else range(n * (n - 1))
    for t in _cocycle_failures(n, view, cmp, blocks) if blocks else ():
        out.append(("PV3", tuple(pv.ends[i] for i in t), "cocycle sum failed"))
    return PVReport(tuple(out))


def _failed_blocks(n: int, view: list, cmp: Callable, closed: bool = False) -> list:
    """PV3 decided in O(n^4) on the view of n ends and its comparison: the blocks where it fails.

    Fix d, e, write g(a, b) = omega(a, b, d, e) on the other ends S, let r
    be the first of S and f(x) = g(x, r), f(r) = 0 (read past the view's
    end).  The cocycle g(a, b) + g(b, c) = g(a, c) on S holds exactly when
    g(a, b) + g(b, r) = f(a) for distinct a, b of S, b != r: then g(a, b) =
    f(a) - f(b) and sums telescope; conversely this is the cocycle at
    (a, b, r), or for a = r the sum of those at (r, b, c) and (b, r, c).
    Only the group law is used, so codes and values of one group qualify.
    With fewer than five ends there is no 5-tuple.

    A block is named by its index in the layout's block order (:func:`_layout`).
    On a table closed under PV1, g at (e, d) is -g at (d, e): its check is the
    negation of the check at (d, e), so only the blocks d < e are read, and
    each that fails is given with its mirror.
    """
    if n < 5:
        return []
    lay, view, size = _layout(n), [*view, view[0] - view[0]], (n - 3) ** 2
    halves = [
        list(map(any, zip(*[map(cmp, map(operator.add, q(view), y(view)), x(view))] * size)))
        for q, x, y in (lay.cocycle[:1] if closed else lay.cocycle)
    ]
    lower, upper = halves * 2 if closed else halves
    return list(itertools.compress(itertools.count(), itertools.chain.from_iterable(zip(lower, upper))))


def _cocycle_failures(n: int, view: list, cmp: Callable, blocks) -> list:
    """The 5-tuples of end indices where PV3 fails in the given blocks, in ``permutations(range(n), 5)`` order.

    Each block (d, e), the values at (a, b, d, e), sums all its triples
    (a, b, c) at once.  Where two groups meet, the error of the first 5-tuple
    that raises is raised, as the loop over the 5-tuples raises it.
    """
    lay, pairs = _layout(n), list(itertools.combinations(range(n), 2))
    ij, ik, jk = lay.block_sums
    out, raised = [], []
    for k in blocks:
        d, e = pairs[k >> 1][:: -1 if k & 1 else 1]
        block = list(map(view.__getitem__, lay.blocks[k]))
        rest, sums = [x for x in range(n) if x != d and x != e], []
        try:
            sums.extend(map(cmp, map(operator.add, ij(block), jk(block)), ik(block)))
        except TypeError as exc:
            raised.append(((*(rest[i] for i in lay.block_triples[len(sums)]), d, e), exc))
        out += [(rest[i], rest[j], rest[c], d, e) for i, j, c in itertools.compress(lay.block_triples, sums)]
    if raised:
        raise min(raised, key=operator.itemgetter(0))[1]
    return sorted(out)


def three_point_case(pv: ProjectiveValuation, a, a1, a2, a3) -> int:
    """Which of the four mutually exclusive positions a takes against a1, a2, a3."""
    if len({a, a1, a2, a3}) != 4:
        raise TreeError("ends must be pairwise distinct")
    base = (a1, a2, a3)
    value = lambda i, j, k: pv.value(base[i], a, base[j], base[k])
    positives = [idx for idx, perm in enumerate(_EVEN_PERMS, start=1) if sign(value(*perm)) > 0]
    if len(positives) == 1:
        return positives[0]
    if not positives and all(sign(value(*perm)) == 0 for perm in itertools.permutations(range(3))):
        return 4
    raise TreeError(f"trichotomy violated at {a} vs {base}; the table is not a valuation")


# --------------------------------------------------------------------------
# rooted tree data


@dataclass(frozen=True)
class RootedTreeDatum:
    ends: Tuple[str, ...]
    base_triple: Tuple[str, str, str]
    _wedge: Dict[tuple, object]
    # set by build_datum: the valuation it read, and where that has codes, the wedges'
    # codes on its scale in permutations(ends, 2) order; None: the view of the values
    _codes_of: Optional[ProjectiveValuation] = field(default=None, compare=False, repr=False)
    codes: Optional[list] = field(default=None, compare=False, repr=False)

    def wedge(self, a, b):
        if a == b:
            return INF
        return self._wedge[(a, b)]

    def finite_wedges(self) -> list:
        return [self.wedge(a, b) for a, b in itertools.combinations(self.ends, 2)]


def checked_base(pv: ProjectiveValuation, base_triple: Sequence[str]) -> tuple:
    """The base triple as a tuple; one that names no three distinct ends of pv raises TreeError."""
    base = tuple(base_triple)
    if len(base) != 3 or len(set(base)) != 3 or any(e not in pv.ends for e in base):
        raise TreeError("base triple must be three distinct ends")
    return base


def datum_from_valuation(pv: ProjectiveValuation, base_triple: Sequence[str]) -> RootedTreeDatum:
    """Build the wedge table of the rooted tree determined by pv and a base triple.

    Validates its input: the base triple first, then pv with one
    :func:`check_pv`; a non-valuation raises :class:`TreeError`.
    """
    base, report = checked_base(pv, base_triple), check_pv(pv)
    if not report.ok:
        raise TreeError(f"not a projective valuation: {report.violations[0]}")
    return build_datum(pv, base)


def build_datum(pv: ProjectiveValuation, base_triple: Sequence[str]) -> RootedTreeDatum:
    """The wedge table of :func:`datum_from_valuation` for a pv already known to pass
    :func:`check_pv`; only the base triple is validated here.

    Every wedge is pv's value at a quadruple, or zero, put past the end of
    pv's view: so the datum carries its codes on pv's scale where pv has them.
    """
    base = checked_base(pv, base_triple)
    ends, values, (view, cmp, _) = pv.ends, pv._values, _view(pv)
    n, where, zero = len(ends), _layout(len(ends)).where, zero_like(values[0]) if values else Fraction(0)
    floor, rows, order = zero if cmp is compare else 0, {}, functools.cmp_to_key(cmp)
    for a in (a for a, e in enumerate(ends) if e not in base):
        # a's distinguished pair: x, y of the even permutation (x, y, z) of the base whose (x, a, y, z) is largest
        x, y, _ = max(
            ([ends.index(base[i]) for i in perm] for perm in _EVEN_PERMS),
            key=lambda t: order(view[where[t[0], a, t[1], t[2]]]),
        )
        rows[a] = ends[x], ends[y], [where.get((x, a, y, c)) for c in range(n)]  # (x, a, y, c) over c

    def spot(a, c):  # a outside the base: the wedge's position, past the view where it is zero
        x, y, row = rows[a]
        return len(view) if ends[c] in (x, y) or cmp(view[row[c]], floor) <= 0 else row[c]

    inside = [e in base for e in ends]
    spots = [
        len(view) if inside[a] and inside[c] else spot(c, a) if inside[a] else spot(a, c)
        for a, c in itertools.permutations(range(n), 2)
    ]
    table = dict(zip(itertools.permutations(ends, 2), map([*values, zero].__getitem__, spots)))
    return RootedTreeDatum(ends, base, table, pv, None if cmp is compare else list(map([*view, 0].__getitem__, spots)))


def datum_axiom_violations(datum: RootedTreeDatum) -> tuple:
    """(RT0), (RT1), (RT2) checked exhaustively, on the datum's codes or, where it has none, its wedges."""
    ends, n = datum.ends, len(datum.ends)
    wedges, cmp, sgn = (datum.codes, operator.sub, operator.pos) if datum.codes is not None else (
        [datum.wedge(*p) for p in itertools.permutations(ends, 2)], compare, sign)
    out, wedge = [], lambda a, b: wedges[a * (n - 1) + b - (b > a)]  # the pair (a, b) by position
    for a, b in itertools.combinations(range(n), 2):
        if not isinstance(wedge(a, b), Infinity) and sgn(wedge(a, b)) < 0:
            out.append(("RT0", (ends[a], ends[b])))
        if cmp(wedge(a, b), wedge(b, a)) != 0:
            out.append(("RT1", (ends[a], ends[b])))
    ab, ac, bc = (get(wedges) for get in _layout(n).wedges)
    rt2 = datum.codes is not None and min(map(cmp, ac, map(min, ab, bc)), default=0) >= 0  # decided on codes
    for (a, b, c), wab, wac, wbc in zip(itertools.permutations(range(n), 3), ab, ac, bc) if not rt2 else ():
        if cmp(wac, min(wab, wbc)) < 0:
            out.append(("RT2", (ends[a], ends[b], ends[c])))
    return tuple(out)


# --------------------------------------------------------------------------
# points of the tree


@dataclass(frozen=True)
class TreePoint:
    """A canonical point <end, height> of the tree built from a datum."""

    end: str
    height: object

    def __repr__(self):
        return f"<{self.end},{self.height}>"


def canonical_point(datum: RootedTreeDatum, end: str, height) -> TreePoint:
    if sign(height) < 0:
        raise TreeError("heights are non-negative")
    reps = [f for f in datum.ends if compare(datum.wedge(f, end), height) >= 0]
    return TreePoint(min(reps), height)


def tree_distance(datum: RootedTreeDatum, p: TreePoint, q: TreePoint):
    """The pseudo-metric of the end/height construction (a metric on canonical points)."""
    if p.end == q.end:
        return abs(p.height - q.height)
    w = datum.wedge(p.end, q.end)
    if compare(p.height, w) <= 0 and compare(q.height, w) <= 0:
        return abs(p.height - q.height)
    return abs(p.height - w) + abs(q.height - w)


def branch_point(datum: RootedTreeDatum, a: str, b: str, c: str) -> TreePoint:
    """The common point of the three lines through a, b, c (their median)."""
    if len({a, b, c}) != 3:
        raise TreeError("ends must be pairwise distinct")
    wab, wac, wbc = datum.wedge(a, b), datum.wedge(a, c), datum.wedge(b, c)
    if compare(wbc, wab) > 0 and compare(wbc, wac) > 0:
        return canonical_point(datum, b, wbc)
    h = wab if compare(wab, wac) >= 0 else wac
    return canonical_point(datum, a, h)


def _kappa(cmp: Callable, wab, wac, wbc):
    """Signed coordinate of the median of (a, b, c) on the line [ab], b-direction positive,
    from the wedges of (a, b), (a, c) and (b, c)."""
    if cmp(wbc, wac) > 0:
        return wbc - (wab + wab)
    return -(wab if cmp(wab, wac) >= 0 else wac)


def _median_coord(datum: RootedTreeDatum, a: str, b: str, c: str):
    return _kappa(compare, datum.wedge(a, b), datum.wedge(a, c), datum.wedge(b, c))


def canonical_valuation(datum: RootedTreeDatum, a: str, b: str, c: str, d: str):
    """Signed distance along [ab] between the medians of (a,b,c) and (a,b,d)."""
    if len({a, b, c, d}) != 4:
        raise TreeError("ends must be pairwise distinct")
    return _median_coord(datum, a, b, d) - _median_coord(datum, a, b, c)


@dataclass(frozen=True)
class RoundtripReport:
    mismatches: Tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def roundtrip_check(pv: ProjectiveValuation, datum: RootedTreeDatum) -> RoundtripReport:
    """Compare the canonical valuation of an already built datum with pv, exactly.

    pv is not validated here: :func:`datum_from_valuation` runs one :func:`check_pv`.
    pv and the datum are read on one scale: their codes when the datum was
    built from this pv, their values otherwise (denominators may differ).
    Each median coordinate is computed once and all quadruples decided at
    once; a failed decision loops over the quadruples on the values, and
    :func:`canonical_valuation` rebuilds each mismatch ``(q, want, got)``.
    """
    if datum._codes_of is pv and datum.codes is not None:
        view, wedges, cmp = pv.codes, datum.codes, operator.sub
    else:
        view, wedges, cmp = pv._values, [datum.wedge(*p) for p in itertools.permutations(pv.ends, 2)], compare
    lay = _layout(len(pv.ends))
    try:
        coords = list(map(functools.partial(_kappa, cmp), *(get(wedges) for get in lay.wedges)))
        if not any(map(cmp, map(operator.sub, *(get(coords) for get in lay.medians)), view)):
            return RoundtripReport(())
    except TypeError:
        pass
    coord = functools.cache(functools.partial(_median_coord, datum))
    bad = [(q, v) for q, v in zip(pv.quadruples(), pv._values) if compare(coord(*q[:2], q[3]) - coord(*q[:3]), v) != 0]
    return RoundtripReport(tuple((q, v, canonical_valuation(datum, *q)) for q, v in bad))


# --------------------------------------------------------------------------
# base change


def lex_first_projection(value):
    """The shipped ordered-group epimorphism: a lex pair to its leading entry."""
    if isinstance(value, Infinity):
        return INF
    if not isinstance(value, LexPair):
        raise TreeError("lex projection expects lex pairs")
    return value.hi


def base_change(datum: RootedTreeDatum, e: Callable) -> RootedTreeDatum:
    """Push the wedge table through an order-preserving homomorphism."""

    image = lambda v: INF if isinstance(v, Infinity) else e(v)
    finite = sorted(set(datum.finite_wedges()))
    for u, v in zip(finite, finite[1:]):
        if compare(image(u), image(v)) > 0:
            raise TreeError("map is not order preserving on the wedge values")
    zero = zero_like(finite[0]) if finite else Fraction(0)
    if finite and compare(image(zero), zero_like(image(finite[0]))) != 0:
        raise TreeError("map does not send zero to zero")
    table = {k: image(v) for k, v in datum._wedge.items()}
    return RootedTreeDatum(datum.ends, datum.base_triple, table)


def map_point(datum_src: RootedTreeDatum, datum_dst: RootedTreeDatum, e: Callable, p: TreePoint) -> TreePoint:
    return canonical_point(datum_dst, p.end, e(p.height))


# --------------------------------------------------------------------------
# explicit finite trees (the independent oracle)


class ExplicitTree:
    """A rooted finite metric tree whose leaves carry end labels."""

    def __init__(self):
        self.parent: Dict[int, int] = {}
        self.edge_len: Dict[int, object] = {}
        self.children: Dict[int, list] = {0: []}
        self.leaf_of: Dict[str, int] = {}
        self._next = 1

    def add_node(self, parent: int, length) -> int:
        node, self._next = self._next, self._next + 1
        self.parent[node], self.edge_len[node] = parent, length
        self.children.setdefault(parent, []).append(node)
        self.children[node] = []
        return node

    def attach_end(self, label: str, parent: int, length):
        self.leaf_of[label] = self.add_node(parent, length)

    def subdivide(self, node: int, head_len, tail_len) -> int:
        """Split the edge above ``node``; returns the new middle node."""
        parent = self.parent[node]
        mid = self.add_node(parent, head_len)
        self.children[parent].remove(node)
        self.parent[node], self.edge_len[node] = mid, tail_len
        self.children[mid].append(node)
        return mid

    def _path_to_root(self, node: int) -> list:
        out = [node]
        while out[-1] != 0:
            out.append(self.parent[out[-1]])
        return out

    def node_path(self, a: str, b: str) -> tuple[list, list]:
        """Nodes from leaf a to leaf b plus cumulative positions from a."""
        pa, pb = self._path_to_root(self.leaf_of[a]), self._path_to_root(self.leaf_of[b])
        meet = next(n for n in pa if n in pb)
        nodes = pa[: pa.index(meet) + 1] + pb[: pb.index(meet)][::-1]
        pos = [zero_like(self.edge_len[nodes[0]])]
        for prev, cur in zip(nodes, nodes[1:]):
            pos.append(pos[-1] + (self.edge_len[cur] if self.parent.get(cur) == prev else self.edge_len[prev]))
        return nodes, pos

    def valuation(self) -> ProjectiveValuation:
        ends = tuple(sorted(self.leaf_of))
        paths = {(a, b): self.node_path(a, b) for a, b in itertools.permutations(ends, 2)}
        table = {q: _omega_on_paths(paths, *q) for q in itertools.permutations(ends, 4)}
        return ProjectiveValuation(ends, table)


def _common_prefix_end(nodes_ab: list, nodes_ac: list) -> int:
    """The last node two paths from the same leaf share: the median of their three leaves."""
    shared = [u for u, v in itertools.takewhile(lambda uv: uv[0] == uv[1], zip(nodes_ab, nodes_ac))]
    return shared[-1] if shared else None


def _omega_on_paths(paths: dict, a: str, b: str, c: str, d: str):
    """omega(a, b, c, d) of an explicit tree, from its leaf-to-leaf paths ``paths[x, y]``."""
    nodes, pos = paths[a, b]
    x = _common_prefix_end(nodes, paths[a, c][0])
    y = _common_prefix_end(nodes, paths[a, d][0])
    return pos[nodes.index(y)] - pos[nodes.index(x)]


_END_LABELS = "abcdefghijklmnop"


def star_tree(n_ends: int, length) -> ExplicitTree:
    t = ExplicitTree()
    for i in range(n_ends):
        t.attach_end(_END_LABELS[i], 0, length)
    return t


def h_tree(bar_length, arm_length) -> ExplicitTree:
    """Ends a, b on one side of a bar, c, d on the other."""
    t = ExplicitTree()
    t.attach_end("a", 0, arm_length)
    t.attach_end("b", 0, arm_length)
    far = t.add_node(0, bar_length)
    t.attach_end("c", far, arm_length)
    t.attach_end("d", far, arm_length)
    return t


def _random_length(rng: random.Random, lam: str):
    if lam == "Z":
        return Fraction(rng.randint(1, 6))
    if lam == "Z2lex":
        hi = rng.randint(0, 2)
        lo = rng.randint(1, 5) if hi == 0 else rng.randint(-3, 5)
        return LexPair(Fraction(hi), Fraction(lo))
    raise TreeError(f"unknown length domain {lam!r}")


def _split_length(rng: random.Random, L):
    if isinstance(L, Fraction) and L >= 2:
        head = Fraction(rng.randint(1, int(L) - 1))
    elif isinstance(L, LexPair) and L.hi >= 2:
        head = LexPair(Fraction(1), Fraction(0))
    elif isinstance(L, LexPair) and L.hi == 0 and L.lo >= 2:
        head = LexPair(Fraction(0), Fraction(rng.randint(1, int(L.lo) - 1)))
    else:
        return None
    return head, L - head


def tree_generator(seed: int, n_ends: int, lam: str = "Z") -> tuple[ExplicitTree, ProjectiveValuation]:
    """A random finite tree with ``n_ends`` leaves and its quadruple table."""
    if n_ends < 4:
        raise TreeError("need at least four ends")
    rng = random.Random(seed)
    t = ExplicitTree()
    t.attach_end(_END_LABELS[0], 0, _random_length(rng, lam))
    t.attach_end(_END_LABELS[1], 0, _random_length(rng, lam))
    for i in range(2, n_ends):
        label = _END_LABELS[i]
        if rng.random() < 0.5:
            nodes = [0] + [n for n in t.parent if t.children.get(n)]
            t.attach_end(label, rng.choice(sorted(nodes)), _random_length(rng, lam))
        else:
            candidates = sorted(t.parent)
            rng.shuffle(candidates)
            for node in candidates:
                split = _split_length(rng, t.edge_len[node])
                if split is not None:
                    t.attach_end(label, t.subdivide(node, *split), _random_length(rng, lam))
                    break
            else:
                t.attach_end(label, 0, _random_length(rng, lam))
    return t, t.valuation()


# --------------------------------------------------------------------------
# text rendering


def render_datum_text(datum: RootedTreeDatum) -> str:
    """An indented picture of the rooted tree: branch heights and end labels."""
    lines: list[str] = []

    def clusters(ends: list, level) -> list[list]:
        groups: list[list] = []
        for e in ends:
            for g in groups:
                if compare(datum.wedge(e, g[0]), level) > 0:
                    g.append(e)
                    break
            else:
                groups.append([e])
        return groups

    def emit(ends: list, level, indent: int):
        pad = "  " * indent
        if len(ends) == 1:
            lines.append(f"{pad}end {ends[0]}")
            return
        split = min(datum.wedge(a, b) for a, b in itertools.combinations(ends, 2))
        lines.append(f"{pad}branch at height {split!r}")
        for g in clusters(ends, split):
            emit(g, split, indent + 1)

    zero = zero_like(datum.finite_wedges()[0]) if len(datum.ends) > 1 else Fraction(0)
    lines.append(f"root (base triple {', '.join(datum.base_triple)})")
    for g in clusters(list(datum.ends), zero):
        emit(g, zero, 1)
    return "\n".join(lines)
