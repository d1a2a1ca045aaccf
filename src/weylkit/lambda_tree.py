"""Rank-one geometry: projective valuations, rooted tree data and their round trip.

An end-set with a quadruple table (the projective valuation) determines a
tree; the tree returns a canonical valuation; the two must agree exactly.
Everything here is finite and exhaustively checkable, with values in any
ordered abelian group from :mod:`weylkit.scalars`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple

from .scalars import INF, Infinity, LexPair, compare, sign, zero_like


class TreeError(ValueError):
    pass


_EVEN_PERMS = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


# --------------------------------------------------------------------------
# projective valuations


def _pv1_orbit(quad: tuple) -> tuple:
    a, b, c, d = quad
    plus = [(a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)]
    minus = [(a, b, d, c), (b, a, c, d), (d, c, a, b), (c, d, b, a)]
    return tuple(plus), tuple(minus)


def complete_pv1(entries: Dict[tuple, object]) -> tuple[Dict[tuple, object], list]:
    """Close a partial quadruple table under the symmetry axiom; report conflicts."""
    table: Dict[tuple, object] = {}
    conflicts = []
    for quad, val in entries.items():
        plus, minus = _pv1_orbit(quad)
        for q in plus:
            if q in table and compare(table[q], val) != 0:
                conflicts.append(("PV1", q, f"{table[q]!r} vs {val!r}"))
            table[q] = val
        neg = -val
        for q in minus:
            if q in table and compare(table[q], neg) != 0:
                conflicts.append(("PV1", q, f"{table[q]!r} vs {neg!r}"))
            table[q] = neg
    return table, conflicts


@dataclass(frozen=True)
class ProjectiveValuation:
    """A complete table of values on ordered quadruples of pairwise distinct ends."""

    ends: Tuple[str, ...]
    table: Dict[tuple, object]

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
    ends = tuple(ends)
    table, conflicts = complete_pv1(entries)
    if conflicts:
        raise TreeError(f"inconsistent table under the symmetry axiom: {conflicts[:3]}")
    missing = [q for q in itertools.permutations(ends, 4) if q not in table]
    if missing:
        raise TreeError(f"incomplete table, e.g. {missing[0]}")
    return ProjectiveValuation(ends, table)


@dataclass(frozen=True)
class PVReport:
    violations: Tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_pv(pv: ProjectiveValuation) -> PVReport:
    """Exhaustively verify the three valuation axioms; violations are data."""
    out = []
    for q in pv.quadruples():
        a, b, c, d = q
        v = pv.value(a, b, c, d)
        if compare(v, pv.value(c, d, a, b)) != 0:
            out.append(("PV1", q, "pair swap changed the value"))
        if compare(v, -pv.value(a, b, d, c)) != 0:
            out.append(("PV1", q, "flip of the second pair did not negate"))
        if sign(v) > 0:
            if compare(pv.value(a, d, c, b), v) != 0:
                out.append(("PV2", q, "exchange of b and d changed a positive value"))
            if sign(pv.value(a, c, b, d)) != 0:
                out.append(("PV2", q, "companion quadruple is not zero"))
    for a, b, c, d, e in itertools.permutations(pv.ends, 5):
        lhs = pv.value(a, b, d, e) + pv.value(b, c, d, e)
        if compare(lhs, pv.value(a, c, d, e)) != 0:
            out.append(("PV3", (a, b, c, d, e), "cocycle sum failed"))
    return PVReport(tuple(out))


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

    def wedge(self, a, b):
        if a == b:
            return INF
        return self._wedge[(a, b)]

    def finite_wedges(self) -> list:
        return [self.wedge(a, b) for a, b in itertools.combinations(self.ends, 2)]


def _argmax_even_perm(pv: ProjectiveValuation, base, a) -> tuple:
    best = None
    best_val = None
    for perm in _EVEN_PERMS:
        i, j, k = perm
        v = pv.value(base[i - 1], a, base[j - 1], base[k - 1])
        if best_val is None or compare(v, best_val) > 0:
            best, best_val = perm, v
    return best


def _base_of(pv: ProjectiveValuation, base_triple: Sequence[str]) -> tuple:
    base = tuple(base_triple)
    if len(base) != 3 or len(set(base)) != 3 or any(e not in pv.ends for e in base):
        raise TreeError("base triple must be three distinct ends")
    return base


def datum_from_valuation(pv: ProjectiveValuation, base_triple: Sequence[str]) -> RootedTreeDatum:
    """Build the wedge table of the rooted tree determined by pv and a base triple.

    Validates its input: the base triple first, then pv with one exhaustive
    O(n^5) :func:`check_pv`; a non-valuation raises :class:`TreeError`.
    """
    base = _base_of(pv, base_triple)
    report = check_pv(pv)
    if not report.ok:
        raise TreeError(f"not a projective valuation: {report.violations[0]}")
    return build_datum(pv, base)


def build_datum(pv: ProjectiveValuation, base_triple: Sequence[str]) -> RootedTreeDatum:
    """The wedge table of :func:`datum_from_valuation` for a pv already known to pass
    :func:`check_pv`; only the base triple is validated here."""
    base = _base_of(pv, base_triple)
    zero = None
    for q in pv.quadruples():
        zero = zero_like(pv.value(*q))
        break
    if zero is None:
        zero = Fraction(0)

    perms = {a: _argmax_even_perm(pv, base, a) for a in pv.ends if a not in base}

    def wedge_pair(a, b):
        # both outside the base triple, or b inside but off a's distinguished pair
        i, j, _ = perms[a]
        if b in (base[i - 1], base[j - 1]):
            return zero
        v = pv.value(base[i - 1], a, base[j - 1], b)
        return v if compare(v, zero) > 0 else zero

    table: Dict[tuple, object] = {}
    for a, b in itertools.permutations(pv.ends, 2):
        if a in base and b in base:
            table[(a, b)] = zero
        elif a not in base:
            table[(a, b)] = wedge_pair(a, b)
        else:
            table[(a, b)] = wedge_pair(b, a)
    return RootedTreeDatum(pv.ends, base, table)


def datum_axiom_violations(datum: RootedTreeDatum) -> tuple:
    """(RT0), (RT1), (RT2) checked exhaustively."""
    out = []
    for a, b in itertools.combinations(datum.ends, 2):
        w = datum.wedge(a, b)
        if not isinstance(w, Infinity) and sign(w) < 0:
            out.append(("RT0", (a, b)))
        if compare(datum.wedge(a, b), datum.wedge(b, a)) != 0:
            out.append(("RT1", (a, b)))
    for a, b, c in itertools.permutations(datum.ends, 3):
        lhs = datum.wedge(a, c)
        rhs = min(datum.wedge(a, b), datum.wedge(b, c))
        if compare(lhs, rhs) < 0:
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


def _kappa_coord_on_line(datum: RootedTreeDatum, a: str, b: str, c: str):
    """Signed coordinate of the median of (a, b, c) on the line [ab], b-direction positive."""
    wab, wac, wbc = datum.wedge(a, b), datum.wedge(a, c), datum.wedge(b, c)
    if compare(wbc, wac) > 0:
        return wbc - (wab + wab)
    return -(wab if compare(wab, wac) >= 0 else wac)


def canonical_valuation(datum: RootedTreeDatum, a: str, b: str, c: str, d: str):
    """Signed distance along [ab] between the medians of (a,b,c) and (a,b,d)."""
    if len({a, b, c, d}) != 4:
        raise TreeError("ends must be pairwise distinct")
    return _kappa_coord_on_line(datum, a, b, d) - _kappa_coord_on_line(datum, a, b, c)


@dataclass(frozen=True)
class RoundtripReport:
    mismatches: Tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def roundtrip_check(pv: ProjectiveValuation, base_triple: Sequence[str]) -> RoundtripReport:
    """Rebuild the tree from pv and compare its canonical valuation with pv, exactly.

    Validates pv with one exhaustive O(n^5) :func:`check_pv` (through
    :func:`datum_from_valuation`); a non-valuation raises :class:`TreeError`.
    """
    return roundtrip_report(pv, datum_from_valuation(pv, base_triple))


def roundtrip_report(pv: ProjectiveValuation, datum: RootedTreeDatum) -> RoundtripReport:
    """Compare the canonical valuation of an already built datum with pv, exactly."""
    bad = []
    for q in pv.quadruples():
        got = canonical_valuation(datum, *q)
        want = pv.value(*q)
        if compare(got, want) != 0:
            bad.append((q, want, got))
    return RoundtripReport(tuple(bad))


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

    def median(self, a: str, b: str, c: str) -> int:
        nodes_ab, _ = self.node_path(a, b)
        nodes_ac, _ = self.node_path(a, c)
        common = None
        for u, v in zip(nodes_ab, nodes_ac):
            if u == v:
                common = u
            else:
                break
        return common

    def omega(self, a: str, b: str, c: str, d: str):
        nodes, pos = self.node_path(a, b)
        x = self.median(a, b, c)
        y = self.median(a, b, d)
        return pos[nodes.index(y)] - pos[nodes.index(x)]

    def valuation(self) -> ProjectiveValuation:
        ends = tuple(sorted(self.leaf_of))
        table = {q: self.omega(*q) for q in itertools.permutations(ends, 4)}
        return ProjectiveValuation(ends, table)


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
        if len(g) == 1:
            lines.append(f"  end {g[0]}")
        else:
            emit(g, zero, 1)
    return "\n".join(lines)
