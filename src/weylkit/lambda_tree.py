"""Rank-one geometry: projective valuations, rooted tree data and their round trip.

An end-set with a quadruple table (the projective valuation) determines a
tree; the tree returns a canonical valuation; the two must agree exactly.
Everything here is finite and exhaustively checkable, with values in any
ordered abelian group from :mod:`weylkit.scalars`.  Each check runs one
algorithm over one view of its values: their integer codes where
:func:`_encode` covers them, the values themselves otherwise.  A valuation
carries its codes, and so does the datum built from it, so a job encodes
its table once.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

from .scalars import INF, Infinity, LexPair, _clear_denominators, compare, sign, zero_like


class TreeError(ValueError):
    pass


_EVEN_PERMS = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


# --------------------------------------------------------------------------
# tables on cleared integers


def _encode(values: list) -> Optional[list]:
    """Integer codes that order sums of the values exactly as the values do.

    Fractions are scaled by the lcm L of their denominators.  A lex pair of
    Fractions (hi, lo) becomes H*M + Lo, where H = hi*L, Lo = lo*L, L is
    the lcm over every hi and lo, and M = 16*max|Lo| + 1.  Take values v_i,
    integer coefficients c_i with sum |c_i| <= 16, H = sum c_i*H_i and
    Lo = sum c_i*Lo_i.  Then sum c_i*code_i = H*M + Lo with
    |Lo| <= 16*max|Lo| < M, so it is zero exactly when H = Lo = 0, and
    otherwise has the sign of H if H != 0 and of Lo if not: the lex sign of
    sum c_i*v_i.  Comparing two such sums compares their difference, and the
    largest difference compared in this module is the round trip's
    kappa(a,b,d) - kappa(a,b,c) - omega(q), with coefficients summing to at
    most 7.

    Returns None when the values are not all Fractions or not all lex pairs
    of Fractions (ints, QuadInt, number-field, infinite or mixed values);
    the view of such values is the values themselves.
    """
    lex = bool(values) and all(type(v) is LexPair for v in values)
    flat = [v.hi for v in values] + [v.lo for v in values] if lex else values
    if not all(type(x) is Fraction for x in flat):
        return None
    codes = _clear_denominators(flat)[0]
    if not lex:
        return codes
    his, los = codes[: len(values)], codes[len(values) :]
    m = 16 * max(map(abs, los), default=0) + 1
    return [h * m + lo for h, lo in zip(his, los)]


def _getters(gets: list, *codes) -> tuple:
    """``(getters, cmp, sgn)``: the code dicts' lookups, or the ``gets`` on the values if any is None.

    On codes ``cmp`` is ``operator.sub`` (the difference of two codes orders
    them) and ``sgn`` is ``operator.pos`` (a code is its own sign).  On values
    they are :func:`compare` and :func:`sign`, and a missing key raises in
    its ``get``, as the checks' loops on the values do.
    """
    if None in codes:
        return gets, compare, sign
    return [c.__getitem__ for c in codes], operator.sub, operator.pos


# --------------------------------------------------------------------------
# projective valuations


def _pv1_orbit(quad: tuple) -> tuple:
    a, b, c, d = quad
    plus = [(a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)]
    minus = [(a, b, d, c), (b, a, c, d), (d, c, a, b), (c, d, b, a)]
    return tuple(plus), tuple(minus)


def complete_pv1(entries: Dict[tuple, object]) -> tuple[Dict[tuple, object], list]:
    """Close a partial quadruple table under the symmetry axiom; report conflicts.

    Each entry writes its symmetry orbit in turn, and a conflict is a stored
    value that differs from the one written over it, compared in one view:
    the values' codes where :func:`_encode` covers them, the values
    otherwise.  An entry whose quadruple already holds an equal code, or an
    equal value of the same type, is skipped unless its orbit's two halves
    meet (a == b or c == d): the last write of the orbit left every position
    consistent with it, so rewriting would store equal values of one type
    and report nothing.
    """
    return _complete_pv1(entries)[:2]


def _complete_pv1(entries: Dict[tuple, object]) -> tuple:
    """:func:`complete_pv1`'s ``(table, conflicts)`` and the table's codes (None on values)."""
    values = list(entries.values())
    codes = _encode(values)
    keys, cmp = (values, compare) if codes is None else (codes, operator.sub)
    table, conflicts = {}, []
    seen = table if codes is None else {}  # quadruple -> key; on values, the table itself
    for (quad, val), key in zip(entries.items(), keys):
        a, b, c, d = quad
        if a != b and c != d and quad in seen and seen[quad] == key and type(table[quad]) is type(val):
            continue
        plus, minus = _pv1_orbit(quad)
        for orbit, v, k in ((plus, val, key), (minus, -val, -key)):
            for q in orbit:
                if q in seen and cmp(seen[q], k) != 0:
                    conflicts.append(("PV1", q, f"{table[q]!r} vs {v!r}"))
                table[q] = v
                seen[q] = k
    return table, conflicts, None if codes is None else seen


@dataclass(frozen=True)
class ProjectiveValuation:
    """A complete table of values on ordered quadruples of pairwise distinct ends.

    The table is not changed once the valuation is built: its codes are
    derived from it on first use.
    """

    ends: Tuple[str, ...]
    table: Dict[tuple, object]
    # set on an instance, as its codes are, by valuation_from_entries: the table
    # was closed under PV1 without a conflict, so PV1 holds on every quadruple
    _closed_under_pv1 = False

    @functools.cached_property
    def codes(self) -> Optional[Dict[tuple, int]]:
        """Quadruple -> integer code of its value (:func:`_encode`), or None: the view of the values.

        The codes exist where the ends are pairwise distinct, every
        quadruple is in the table and :func:`_encode` covers the values.
        Computed on first use and published by one assignment; not a
        dataclass field, so it takes no part in eq, hash or repr.
        :func:`valuation_from_entries` publishes the codes its completion
        made, so such a table is encoded once.
        """
        quads = list(self.quadruples())
        try:
            codes = _encode([self.table[q] for q in quads])
        except KeyError:
            return None
        if codes is None or len(set(self.ends)) != len(self.ends):
            return None
        return dict(zip(quads, codes))

    def value(self, a, b, c, d):
        try:
            return self.table[(a, b, c, d)]
        except KeyError:
            raise TreeError(f"missing quadruple {(a, b, c, d)}") from None

    def quadruples(self):
        return itertools.permutations(self.ends, 4)

    def __eq__(self, other):
        return (
            isinstance(other, ProjectiveValuation)
            and self.ends == other.ends
            and self.table == other.table
        )

    def __hash__(self):  # tables are dicts; identity hash is enough here
        return hash(self.ends)


def valuation_from_entries(ends: Sequence[str], entries: Dict[tuple, object]) -> ProjectiveValuation:
    """The valuation a partial table determines; a bad end list, key or table raises TreeError."""
    ends = tuple(ends)
    for i, e in enumerate(ends):
        if e in ends[:i]:
            raise TreeError(f"end {e!r} is listed twice")
    table, conflicts, codes = _complete_pv1(entries)
    quads = list(itertools.permutations(ends, 4))
    missing = [q for q in quads if q not in table]
    # every key lands in the table, so a table holding exactly the quadruples
    # of the ends has no bad key; look at the keys only when it does not
    if conflicts or missing or len(table) != len(quads):
        known = set(ends)
        for quad in entries:
            outside = [e for e in quad if e not in known]
            if outside:
                raise TreeError(f"bad quadruple key {quad}: {outside[0]!r} is not an end")
            if len(set(quad)) != 4:
                raise TreeError(f"bad quadruple key {quad}: it must name four distinct ends")
    if conflicts:
        raise TreeError(f"inconsistent table under the symmetry axiom: {conflicts[:3]}")
    if missing:
        raise TreeError(f"incomplete table, e.g. {missing[0]}")
    pv = ProjectiveValuation(ends, table)
    # the ends are distinct and the table holds exactly their quadruples, whose
    # values are the entries' and their negatives: the codes the view would make
    vars(pv)["codes"] = codes
    vars(pv)["_closed_under_pv1"] = True
    return pv


@dataclass(frozen=True)
class PVReport:
    violations: Tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_pv(pv: ProjectiveValuation) -> PVReport:
    """Verify the three valuation axioms; violations are data.

    PV1 and PV2 are checked on every quadruple.  PV3 is first decided in
    O(n^4) (:func:`_cocycle_holds`); the O(n^5) enumeration of 5-tuples runs
    only when that decision fails, to list the violations, or when the
    values lie in more than one group.  All of it runs on pv's codes, or on
    its values where it has none.  PV1 is not checked on a table that
    :func:`valuation_from_entries` closed under it.
    """
    quads = list(pv.quadruples())
    (value,), cmp, sgn = _getters([lambda q: pv.value(*q)], pv.codes)
    pv1 = not pv._closed_under_pv1
    out = []
    for q in quads:
        a, b, c, d = q
        v = value(q)
        if pv1 and cmp(v, value((c, d, a, b))) != 0:
            out.append(("PV1", q, "pair swap changed the value"))
        if pv1 and cmp(v, -value((a, b, d, c))) != 0:
            out.append(("PV1", q, "flip of the second pair did not negate"))
        if sgn(v) > 0:
            if cmp(value((a, d, c, b)), v) != 0:
                out.append(("PV2", q, "exchange of b and d changed a positive value"))
            if sgn(value((a, c, b, d))) != 0:
                out.append(("PV2", q, "companion quadruple is not zero"))
    # the decision needs the values in one group; where domains mix, the
    # enumeration runs instead and raises what its loop raises
    mixed = cmp is compare and len({zero_like(value(q)) for q in quads}) > 1
    if mixed or not _cocycle_holds(pv.ends, value, cmp):
        for a, b, c, d, e in itertools.permutations(pv.ends, 5):
            if cmp(value((a, b, d, e)) + value((b, c, d, e)), value((a, c, d, e))) != 0:
                out.append(("PV3", (a, b, c, d, e), "cocycle sum failed"))
    return PVReport(tuple(out))


def _cocycle_holds(ends: tuple, value: Callable, cmp: Callable) -> bool:
    """PV3 decided in O(n^4) from a getter of the table and a comparison.

    Fix d, e and write g(a, b) = value((a, b, d, e)) on the other ends S,
    taken by position as ``itertools.permutations`` takes them.  Pick r in S
    and set f(x) = g(x, r), f(r) = 0.  The cocycle g(a, b) + g(b, c) = g(a, c)
    on distinct a, b, c of S holds exactly when g(r, b) = -f(b) and
    g(a, b) = f(a) - f(b) for all distinct a, b != r.  If so, g(a, b) =
    f(a) - f(b) on every pair and the sum telescopes.  Conversely the
    cocycle at (a, b, r) is the second condition, and adding it at (r, b, c)
    and (b, r, c) for a third end c gives the first.  The proof uses only
    the group law, so it holds on codes and on values of one group.
    |S| >= 3 needs five ends; with fewer there is no 5-tuple and PV3 holds
    vacuously.
    """
    if len(ends) < 5:
        return True
    for i, j in itertools.permutations(range(len(ends)), 2):
        d, e = ends[i], ends[j]
        r, *rest = [x for k, x in enumerate(ends) if k != i and k != j]
        f = [value((x, r, d, e)) for x in rest]
        for b, fb in zip(rest, f):
            if cmp(value((r, b, d, e)), -fb) != 0:
                return False
        for (a, fa), (b, fb) in itertools.permutations(zip(rest, f), 2):
            if cmp(value((a, b, d, e)), fa - fb) != 0:
                return False
    return True


def three_point_case(pv: ProjectiveValuation, a, a1, a2, a3) -> int:
    """Which of the four mutually exclusive positions a takes against a1, a2, a3."""
    if len({a, a1, a2, a3}) != 4:
        raise TreeError("ends must be pairwise distinct")
    base = (a1, a2, a3)
    positives = []
    for idx, (i, j, k) in enumerate(_EVEN_PERMS, start=1):
        if sign(pv.value(base[i - 1], a, base[j - 1], base[k - 1])) > 0:
            positives.append(idx)
    if len(positives) == 1:
        return positives[0]
    if not positives:
        all_zero = all(
            sign(pv.value(base[i - 1], a, base[j - 1], base[k - 1])) == 0
            for i, j, k in itertools.permutations((1, 2, 3))
        )
        if all_zero:
            return 4
    raise TreeError(f"trichotomy violated at {a} vs {base}; the table is not a valuation")


# --------------------------------------------------------------------------
# rooted tree data


@dataclass(frozen=True)
class RootedTreeDatum:
    ends: Tuple[str, ...]
    base_triple: Tuple[str, str, str]
    _wedge: Dict[tuple, object]
    # the valuation whose codes the wedge codes share (set by build_datum)
    _codes_of: Optional[ProjectiveValuation] = field(default=None, compare=False, repr=False)
    # ordered pair -> integer code of its wedge on _codes_of's scale (set by
    # build_datum where that valuation has codes); None: the view of the values
    codes: Optional[Dict[tuple, int]] = field(default=None, compare=False, repr=False)

    def wedge(self, a, b):
        if a == b:
            return INF
        return self._wedge[(a, b)]

    def finite_wedges(self) -> list:
        return [self.wedge(a, b) for a, b in itertools.combinations(self.ends, 2)]


def _argmax_even_perm(value: Callable, cmp: Callable, base, a) -> tuple:
    best = None
    best_val = None
    for perm in _EVEN_PERMS:
        i, j, k = perm
        v = value((base[i - 1], a, base[j - 1], base[k - 1]))
        if best_val is None or cmp(v, best_val) > 0:
            best, best_val = perm, v
    return best


def _base_of(pv: ProjectiveValuation, base_triple: Sequence[str]) -> tuple:
    base = tuple(base_triple)
    if len(base) != 3 or len(set(base)) != 3 or any(e not in pv.ends for e in base):
        raise TreeError("base triple must be three distinct ends")
    return base


def datum_from_valuation(pv: ProjectiveValuation, base_triple: Sequence[str]) -> RootedTreeDatum:
    """Build the wedge table of the rooted tree determined by pv and a base triple.

    Validates its input: the base triple first, then pv with one
    :func:`check_pv`; a non-valuation raises :class:`TreeError`.
    """
    base = _base_of(pv, base_triple)
    report = check_pv(pv)
    if not report.ok:
        raise TreeError(f"not a projective valuation: {report.violations[0]}")
    return build_datum(pv, base)


def build_datum(pv: ProjectiveValuation, base_triple: Sequence[str]) -> RootedTreeDatum:
    """The wedge table of :func:`datum_from_valuation` for a pv already known to pass
    :func:`check_pv`; only the base triple is validated here.

    Every wedge is pv's value at a quadruple, or zero.  So its code is pv's
    code there, or 0, and the datum carries those codes (None where pv has
    none): on pv's scale, decided on pv's view.
    """
    base = _base_of(pv, base_triple)
    zero = None
    for q in pv.quadruples():
        zero = zero_like(pv.value(*q))
        break
    if zero is None:
        zero = Fraction(0)
    codes = pv.codes
    (value,), cmp, _ = _getters([lambda q: pv.value(*q)], codes)
    floor = zero if codes is None else 0  # zero in pv's view

    perms = {a: _argmax_even_perm(value, cmp, base, a) for a in pv.ends if a not in base}

    def wedge_quad(a, b):
        """The quadruple whose value is the wedge of (a, b), or None where the wedge is zero."""
        # both outside the base triple, or b inside but off a's distinguished pair
        i, j, _ = perms[a]
        if b in (base[i - 1], base[j - 1]):
            return None
        q = (base[i - 1], a, base[j - 1], b)
        return q if cmp(value(q), floor) > 0 else None

    table: Dict[tuple, object] = {}
    wedge_codes: Optional[Dict[tuple, int]] = None if codes is None else {}
    for a, b in itertools.permutations(pv.ends, 2):
        if a in base and b in base:
            q = None
        elif a not in base:
            q = wedge_quad(a, b)
        else:
            q = wedge_quad(b, a)
        table[(a, b)] = zero if q is None else pv.table[q]
        if codes is not None:
            wedge_codes[(a, b)] = 0 if q is None else codes[q]
    return RootedTreeDatum(pv.ends, base, table, pv, wedge_codes)


def datum_axiom_violations(datum: RootedTreeDatum) -> tuple:
    """(RT0), (RT1), (RT2) checked exhaustively, on the datum's codes or, where it has none, its wedges."""
    (wedge,), cmp, sgn = _getters([lambda k: datum.wedge(*k)], datum.codes)
    out = []
    for a, b in itertools.combinations(datum.ends, 2):
        w = wedge((a, b))
        if not isinstance(w, Infinity) and sgn(w) < 0:
            out.append(("RT0", (a, b)))
        if cmp(wedge((a, b)), wedge((b, a))) != 0:
            out.append(("RT1", (a, b)))
    for a, b, c in itertools.permutations(datum.ends, 3):
        lhs = wedge((a, c))
        rhs = min(wedge((a, b)), wedge((b, c)))
        if cmp(lhs, rhs) < 0:
            out.append(("RT2", (a, b, c)))
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


def _kappa_coord_on_line(wedge: Callable, cmp: Callable, a: str, b: str, c: str):
    """Signed coordinate of the median of (a, b, c) on the line [ab], b-direction positive.

    ``wedge`` takes a pair of ends.
    """
    wab, wac, wbc = wedge((a, b)), wedge((a, c)), wedge((b, c))
    if cmp(wbc, wac) > 0:
        return wbc - (wab + wab)
    return -(wab if cmp(wab, wac) >= 0 else wac)


def canonical_valuation(datum: RootedTreeDatum, a: str, b: str, c: str, d: str):
    """Signed distance along [ab] between the medians of (a,b,c) and (a,b,d)."""
    if len({a, b, c, d}) != 4:
        raise TreeError("ends must be pairwise distinct")

    def wedge(pair):
        return datum.wedge(*pair)

    return _kappa_coord_on_line(wedge, compare, a, b, d) - _kappa_coord_on_line(wedge, compare, a, b, c)


@dataclass(frozen=True)
class RoundtripReport:
    mismatches: Tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def roundtrip_check(pv: ProjectiveValuation, datum: RootedTreeDatum) -> RoundtripReport:
    """Compare the canonical valuation of an already built datum with pv, exactly.

    pv is not validated here: a caller that wants the check builds the datum
    with :func:`datum_from_valuation`, which runs one :func:`check_pv`.
    pv's values and the datum's wedges both enter the comparisons, so they
    are read on one scale: pv's codes and the datum's when the datum was
    built from this pv, and the values otherwise (two tables may have
    different denominators).  Each median coordinate is computed once, and
    ``(q, want, got)`` is rebuilt from the values, by
    :func:`canonical_valuation`, only for a mismatch.
    """
    quads = list(pv.quadruples())
    gets = [lambda q: pv.value(*q), lambda k: datum.wedge(*k)]
    codes = (pv.codes, datum.codes) if datum._codes_of is pv else (None,)
    (value, wedge), cmp, _ = _getters(gets, *codes)
    coord = functools.cache(functools.partial(_kappa_coord_on_line, wedge, cmp))
    bad = [q for q in quads if cmp(coord(q[0], q[1], q[3]) - coord(*q[:3]), value(q)) != 0]
    return RoundtripReport(tuple((q, pv.value(*q), canonical_valuation(datum, *q)) for q in bad))


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

    def image(v):
        return INF if isinstance(v, Infinity) else e(v)

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
        node = self._next
        self._next += 1
        self.parent[node] = parent
        self.edge_len[node] = length
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
        self.parent[node] = mid
        self.edge_len[node] = tail_len
        self.children[mid].append(node)
        return mid

    def _path_to_root(self, node: int) -> list:
        out = [node]
        while out[-1] != 0:
            out.append(self.parent[out[-1]])
        return out

    def node_path(self, a: str, b: str) -> tuple[list, list]:
        """Nodes from leaf a to leaf b plus cumulative positions from a."""
        pa = self._path_to_root(self.leaf_of[a])
        pb = self._path_to_root(self.leaf_of[b])
        sa, sb = set(pa), set(pb)
        meet = next(n for n in pa if n in sb)
        up = pa[: pa.index(meet) + 1]
        down = pb[: pb.index(meet)]
        nodes = up + list(reversed(down))
        pos = [None] * len(nodes)
        zero = zero_like(self.edge_len[nodes[0]])
        pos[0] = zero
        for i in range(1, len(nodes)):
            prev, cur = nodes[i - 1], nodes[i]
            step = self.edge_len[cur] if self.parent.get(cur) == prev else self.edge_len[prev]
            pos[i] = pos[i - 1] + step
        return nodes, pos

    def valuation(self) -> ProjectiveValuation:
        ends = tuple(sorted(self.leaf_of))
        paths = {(a, b): self.node_path(a, b) for a, b in itertools.permutations(ends, 2)}

        def path(a, b):
            return paths[(a, b)]

        table = {q: _omega_on_paths(path, *q) for q in itertools.permutations(ends, 4)}
        return ProjectiveValuation(ends, table)


def _common_prefix_end(nodes_ab: list, nodes_ac: list) -> int:
    """The last node two paths from the same leaf share: the median of their three leaves."""
    common = None
    for u, v in zip(nodes_ab, nodes_ac):
        if u == v:
            common = u
        else:
            break
    return common


def _omega_on_paths(path: Callable, a: str, b: str, c: str, d: str):
    """omega(a, b, c, d) of an explicit tree, from its leaf-to-leaf paths ``path(x, y)``."""
    nodes, pos = path(a, b)
    x = _common_prefix_end(nodes, path(a, c)[0])
    y = _common_prefix_end(nodes, path(a, d)[0])
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
    if isinstance(L, Fraction):
        if L < 2:
            return None
        head = Fraction(rng.randint(1, int(L) - 1))
        return head, L - head
    if isinstance(L, LexPair):
        if L.hi >= 2:
            head = LexPair(Fraction(1), Fraction(0))
            return head, L - head
        if L.hi == 0 and L.lo >= 2:
            head = LexPair(Fraction(0), Fraction(rng.randint(1, int(L.lo) - 1)))
            return head, L - head
        return None
    return None


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
            nodes = [0] + [n for n in t.parent if not _is_leaf(t, n)]
            t.attach_end(label, rng.choice(sorted(nodes)), _random_length(rng, lam))
        else:
            candidates = sorted(t.parent)
            rng.shuffle(candidates)
            for node in candidates:
                split = _split_length(rng, t.edge_len[node])
                if split is not None:
                    mid = t.subdivide(node, split[0], split[1])
                    t.attach_end(label, mid, _random_length(rng, lam))
                    break
            else:
                t.attach_end(label, 0, _random_length(rng, lam))
    return t, t.valuation()


def _is_leaf(t: ExplicitTree, node: int) -> bool:
    return not t.children.get(node)


# --------------------------------------------------------------------------
# text rendering


def render_datum_text(datum: RootedTreeDatum) -> str:
    """An indented picture of the rooted tree: branch heights and end labels."""
    lines: list[str] = []

    def clusters(ends: list, level) -> list[list]:
        groups: list[list] = []
        for e in ends:
            placed = False
            for g in groups:
                if compare(datum.wedge(e, g[0]), level) > 0:
                    g.append(e)
                    placed = True
                    break
            if not placed:
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
