"""Projective valuations, rooted tree data, canonical valuations, base change."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import cli
from weylkit import lambda_tree as lt
from weylkit.scalars import Infinity, LexPair, QuadInt, compare, format_scalar, lex, sign


@pytest.fixture(scope="module")
def h_pv():
    return lt.h_tree(Q(3), Q(2)).valuation()


@pytest.fixture(scope="module")
def star_pv():
    return lt.star_tree(4, Q(1)).valuation()


class TestCheckPV:
    def test_all_zero_is_valid(self, star_pv):
        assert all(v == 0 for v in star_pv.table.values())
        assert lt.check_pv(star_pv).ok

    def test_h_tree_is_valid(self, h_pv):
        assert lt.check_pv(h_pv).ok

    def test_injected_sign_flip_is_caught(self, h_pv):
        quad = ("a", "c", "b", "d")
        assert h_pv.value(*quad) == 3
        broken = dict(h_pv.table)
        broken[quad] = -broken[quad]
        bad = lt.ProjectiveValuation(h_pv.ends, broken)
        report = lt.check_pv(bad)
        assert not report.ok
        assert any(axiom == "PV1" and tuple(where) == quad for axiom, where, _ in report.violations)


class TestThreePointCase:
    def test_star_is_central(self, star_pv):
        assert lt.three_point_case(star_pv, "a", "b", "c", "d") == 4

    def test_h_tree_geometry(self, h_pv):
        # the explicit tree gives omega(a, d; b, c) = +3: seen from (a, b, c) the
        # end d hangs behind the first entry of the even permutation that pairs
        # it with a; re-rotating the base triple walks through the other cases
        assert h_pv.value("a", "d", "b", "c") == 3
        assert lt.three_point_case(h_pv, "d", "a", "b", "c") == 1
        assert lt.three_point_case(h_pv, "d", "c", "a", "b") == 2
        assert lt.three_point_case(h_pv, "d", "a", "c", "b") == 3

    def test_exclusive_on_generated_trees(self):
        for seed in range(10):
            _, pv = lt.tree_generator(seed, 5, "Z")
            for quad in itertools.permutations(pv.ends, 4):
                lt.three_point_case(pv, *quad)  # raises on any violation

    def test_distinctness_required(self, h_pv):
        with pytest.raises(lt.TreeError):
            lt.three_point_case(h_pv, "a", "a", "b", "c")


class TestDatum:
    def test_star_datum_is_zero(self, star_pv):
        datum = lt.datum_from_valuation(star_pv, ("a", "b", "c"))
        for a, b in itertools.permutations(datum.ends, 2):
            assert datum.wedge(a, b) == 0
        assert isinstance(datum.wedge("a", "a"), Infinity)

    def test_h_tree_wedges(self, h_pv):
        datum = lt.datum_from_valuation(h_pv, ("a", "b", "c"))
        assert datum.wedge("c", "d") == 3
        for pair in (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
            assert datum.wedge(*pair) == 0

    def test_axioms_on_generated_trees(self):
        for seed in range(15):
            for lam in ("Z", "Z2lex"):
                _, pv = lt.tree_generator(seed, 4 + seed % 4, lam)
                datum = lt.datum_from_valuation(pv, pv.ends[:3])
                assert not lt.datum_axiom_violations(datum)

    def test_two_smallest_wedges_equal(self):
        for seed in range(15):
            _, pv = lt.tree_generator(seed, 6, "Z")
            datum = lt.datum_from_valuation(pv, pv.ends[:3])
            for a, b, c in itertools.combinations(datum.ends, 3):
                vals = sorted([datum.wedge(a, b), datum.wedge(a, c), datum.wedge(b, c)])
                assert compare(vals[0], vals[1]) == 0

    def test_invalid_valuation_rejected(self, h_pv):
        broken = dict(h_pv.table)
        broken[("a", "c", "b", "d")] = -broken[("a", "c", "b", "d")]
        with pytest.raises(lt.TreeError):
            lt.datum_from_valuation(lt.ProjectiveValuation(h_pv.ends, broken), ("a", "b", "c"))


class TestTreePoints:
    def test_same_end_distance(self, star_pv):
        datum = lt.datum_from_valuation(star_pv, ("a", "b", "c"))
        p = lt.canonical_point(datum, "a", Q(5))
        q = lt.canonical_point(datum, "a", Q(2))
        assert lt.tree_distance(datum, p, q) == 3

    def test_tripod_distance(self, star_pv):
        datum = lt.datum_from_valuation(star_pv, ("a", "b", "c"))
        p = lt.canonical_point(datum, "a", Q(2))
        q = lt.canonical_point(datum, "b", Q(3))
        assert lt.tree_distance(datum, p, q) == 5

    def test_metric_axioms(self):
        rng = random.Random(9)
        for seed in range(5):
            _, pv = lt.tree_generator(seed, 6, "Z")
            datum = lt.datum_from_valuation(pv, pv.ends[:3])
            pts = [
                lt.canonical_point(datum, rng.choice(datum.ends), Q(rng.randint(0, 8)))
                for _ in range(12)
            ]
            for p in pts:
                for q in pts:
                    d = lt.tree_distance(datum, p, q)
                    assert sign(d) >= 0
                    assert (sign(d) == 0) == (p == q)
                    assert compare(d, lt.tree_distance(datum, q, p)) == 0
                    for r in pts:
                        lhs = lt.tree_distance(datum, p, r) + lt.tree_distance(datum, r, q)
                        assert compare(lhs, d) >= 0

    def test_canonical_representative_is_least_label(self, h_pv):
        datum = lt.datum_from_valuation(h_pv, ("a", "b", "c"))
        # at height 0 every end passes through the root
        assert lt.canonical_point(datum, "d", Q(0)).end == "a"
        # on the far branch below the bar height, c is the least label
        assert lt.canonical_point(datum, "d", Q(2)).end == "c"
        assert lt.canonical_point(datum, "d", Q(4)).end == "d"


class TestBranchPoint:
    def test_tripod_center(self, star_pv):
        datum = lt.datum_from_valuation(star_pv, ("a", "b", "c"))
        assert lt.branch_point(datum, "a", "b", "c") == lt.canonical_point(datum, "a", Q(0))

    def test_h_tree_bar_endpoints(self, h_pv):
        datum = lt.datum_from_valuation(h_pv, ("a", "b", "c"))
        near = lt.branch_point(datum, "a", "b", "c")
        far = lt.branch_point(datum, "a", "c", "d")
        assert near == lt.canonical_point(datum, "a", Q(0))
        assert far == lt.canonical_point(datum, "c", Q(3))
        assert lt.tree_distance(datum, near, far) == 3

    def test_symmetry(self):
        for seed in range(8):
            _, pv = lt.tree_generator(seed, 5, "Z")
            datum = lt.datum_from_valuation(pv, pv.ends[:3])
            for a, b, c in itertools.combinations(datum.ends, 3):
                pts = {
                    lt.branch_point(datum, *perm) for perm in itertools.permutations((a, b, c))
                }
                assert len(pts) == 1

    def test_lies_on_all_three_lines(self):
        # membership in [xy] = d(x, .) + d(., y) additivity against the ends'
        # highest common points
        for seed in range(5):
            _, pv = lt.tree_generator(seed, 5, "Z")
            datum = lt.datum_from_valuation(pv, pv.ends[:3])
            for a, b, c in itertools.combinations(datum.ends, 3):
                k = lt.branch_point(datum, a, b, c)
                for u, v in ((a, b), (a, c), (b, c)):
                    high = Q(30)
                    pu = lt.canonical_point(datum, u, high)
                    pv_ = lt.canonical_point(datum, v, high)
                    total = lt.tree_distance(datum, pu, pv_)
                    split = lt.tree_distance(datum, pu, k) + lt.tree_distance(datum, k, pv_)
                    assert compare(total, split) == 0


class TestCanonicalValuation:
    def test_coincident_medians_give_zero(self, h_pv):
        datum = lt.datum_from_valuation(h_pv, ("a", "b", "c"))
        # both c and d branch off [ab] at the root
        assert lt.canonical_valuation(datum, "a", "b", "c", "d") == 0

    def test_h_tree_bar_length_with_sign(self, h_pv):
        datum = lt.datum_from_valuation(h_pv, ("a", "b", "c"))
        assert lt.canonical_valuation(datum, "a", "c", "b", "d") == 3
        assert lt.canonical_valuation(datum, "a", "c", "d", "b") == -3

    def test_antisymmetry(self):
        for seed in range(8):
            _, pv = lt.tree_generator(seed, 5, "Z")
            datum = lt.datum_from_valuation(pv, pv.ends[:3])
            for quad in itertools.permutations(datum.ends, 4):
                a, b, c, d = quad
                lhs = lt.canonical_valuation(datum, a, b, c, d)
                rhs = lt.canonical_valuation(datum, a, b, d, c)
                assert compare(lhs, -rhs) == 0

    def test_canonical_valuation_is_projective(self):
        for seed in range(6):
            _, pv = lt.tree_generator(seed, 5, "Z")
            datum = lt.datum_from_valuation(pv, pv.ends[:3])
            rebuilt = lt.ProjectiveValuation(
                datum.ends,
                {
                    q: lt.canonical_valuation(datum, *q)
                    for q in itertools.permutations(datum.ends, 4)
                },
            )
            assert lt.check_pv(rebuilt).ok


class TestRoundtrip:
    def test_star(self, star_pv):
        assert lt.roundtrip_check(star_pv, lt.datum_from_valuation(star_pv, ("a", "b", "c"))).ok

    def test_h_tree(self, h_pv):
        assert lt.roundtrip_check(h_pv, lt.datum_from_valuation(h_pv, ("a", "b", "c"))).ok

    def test_base_triple_independence(self):
        _, pv = lt.tree_generator(20240817, 6, "Z")
        for base in itertools.permutations(pv.ends, 3):
            assert lt.roundtrip_check(pv, lt.datum_from_valuation(pv, base)).ok

    def test_generated_trees(self):
        for seed in range(10):
            for lam in ("Z", "Z2lex"):
                _, pv = lt.tree_generator(seed, 4 + (seed + 1) % 5, lam)
                assert lt.check_pv(pv).ok
                assert lt.roundtrip_check(pv, lt.datum_from_valuation(pv, pv.ends[:3])).ok

    @given(
        st.integers(0, 2**31),
        st.integers(4, 7),
        st.sampled_from(("Z", "Z2lex")),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_trees_any_base(self, seed, n_ends, lam, data):
        _, pv = lt.tree_generator(seed, n_ends, lam)
        base = data.draw(st.permutations(pv.ends).map(lambda p: tuple(p[:3])))
        assert lt.check_pv(pv).ok
        assert lt.roundtrip_check(pv, lt.datum_from_valuation(pv, base)).ok

    def test_prebuilt_datum_matches_checked_path(self, h_pv):
        datum = lt.build_datum(h_pv, ("c", "a", "d"))
        assert datum == lt.datum_from_valuation(h_pv, ("c", "a", "d"))
        assert lt.roundtrip_check(h_pv, datum).ok


class TestBaseChange:
    def test_identity(self, h_pv):
        datum = lt.datum_from_valuation(h_pv, ("a", "b", "c"))
        same = lt.base_change(datum, lambda v: v)
        for a, b in itertools.permutations(datum.ends, 2):
            assert compare(same.wedge(a, b), datum.wedge(a, b)) == 0

    def test_lex_projection_collapses_bar(self):
        pv = lt.h_tree(lex(1, 7), lex(0, 2)).valuation()
        datum = lt.datum_from_valuation(pv, ("a", "b", "c"))
        assert datum.wedge("c", "d") == lex(1, 7)
        projected = lt.base_change(datum, lt.lex_first_projection)
        assert projected.wedge("c", "d") == Q(1)

    def test_distance_law(self):
        rng = random.Random(11)
        _, pv = lt.tree_generator(7, 6, "Z2lex")
        datum = lt.datum_from_valuation(pv, pv.ends[:3])
        projected = lt.base_change(datum, lt.lex_first_projection)
        pts = [
            lt.canonical_point(datum, rng.choice(datum.ends), lex(rng.randint(0, 2), rng.randint(0, 5)))
            for _ in range(40)
        ]
        for p in pts:
            for q in pts:
                img_p = lt.map_point(datum, projected, lt.lex_first_projection, p)
                img_q = lt.map_point(datum, projected, lt.lex_first_projection, q)
                want = lt.lex_first_projection(lt.tree_distance(datum, p, q))
                got = lt.tree_distance(projected, img_p, img_q)
                assert compare(got, want) == 0

    def test_non_monotone_rejected(self, h_pv):
        datum = lt.datum_from_valuation(h_pv, ("a", "b", "c"))
        with pytest.raises(lt.TreeError):
            lt.base_change(datum, lambda v: -v)


class TestGenerator:
    def test_star_seed(self):
        tree = lt.star_tree(4, Q(2))
        pv = tree.valuation()
        assert set(pv.ends) == {"a", "b", "c", "d"}
        assert all(v == 0 for v in pv.table.values())

    def test_h_tree_value_orbit(self):
        pv = lt.h_tree(Q(3), Q(1)).valuation()
        values = sorted(set(Q(v) for v in pv.table.values()))
        assert values == [Q(-3), Q(0), Q(3)]

    def test_all_seeds_pass_axioms(self):
        for seed in range(25):
            for lam in ("Z", "Z2lex"):
                _, pv = lt.tree_generator(seed, 4 + seed % 5, lam)
                assert lt.check_pv(pv).ok

    def test_requires_four_ends(self):
        with pytest.raises(lt.TreeError):
            lt.tree_generator(0, 3)


# one entry on each of the three symmetry orbits of four ends
ORBITS = {("a", "b", "c", "d"): Q(2), ("a", "c", "b", "d"): Q(0), ("a", "d", "b", "c"): Q(-2)}


class TestCompletion:
    def test_orbit_completion(self):
        table = lt.valuation_from_entries(tuple("abcd"), ORBITS).table
        assert table[("c", "d", "a", "b")] == Q(2)
        assert table[("a", "b", "d", "c")] == Q(-2)
        assert table[("b", "a", "c", "d")] == Q(-2)
        assert_read_as_reference(tuple("abcd"), ORBITS)

    def test_conflicts_detected(self):
        entries = {**ORBITS, ("c", "d", "a", "b"): Q(3)}
        with pytest.raises(lt.TreeError, match="inconsistent table under the symmetry axiom"):
            lt.valuation_from_entries(tuple("abcd"), entries)
        assert_read_as_reference(tuple("abcd"), entries)

    def test_incomplete_rejected(self):
        with pytest.raises(lt.TreeError):
            lt.valuation_from_entries(("a", "b", "c", "d", "e"), {("a", "b", "c", "d"): Q(0)})

    @pytest.mark.parametrize("key", ["abcd", ("a", "b", "c"), ("a", "b", "c", "d", "a"), 7], ids=["str", "3", "5", "int"])
    def test_keys_that_are_not_four_tuples_refused(self, key):
        # a string of four labels was read as the quadruple of its characters
        star = lt.star_tree(4, Q(1)).valuation().table
        with pytest.raises(lt.TreeError) as refused:
            lt.valuation_from_entries(tuple("abcd"), {**star, key: Q(0)})
        assert str(refused.value) == f"bad quadruple key {key!r}: it must be a tuple of four ends"


def test_render_contains_every_end(h_pv):
    datum = lt.datum_from_valuation(h_pv, ("a", "b", "c"))
    text = lt.render_datum_text(datum)
    for e in datum.ends:
        assert f"end {e}" in text
    assert "branch at height" in text


# --------------------------------------------------------------------------
# differential tests: the integer encoding against the exhaustive loops on values


def reference_check_pv(pv):
    """check_pv as it was before the integer encoding: every quadruple and 5-tuple, on values."""
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
    return lt.PVReport(tuple(out))


def _reference_kappa_coord(datum, a, b, c):
    wab, wac, wbc = datum.wedge(a, b), datum.wedge(a, c), datum.wedge(b, c)
    if compare(wbc, wac) > 0:
        return wbc - (wab + wab)
    return -(wab if compare(wab, wac) >= 0 else wac)


def reference_roundtrip_check(pv, datum):
    """roundtrip_check as it was before the integer encoding: kappa on values, per quadruple."""
    bad = []
    for q in pv.quadruples():
        a, b, c, d = q
        got = _reference_kappa_coord(datum, a, b, d) - _reference_kappa_coord(datum, a, b, c)
        want = pv.value(*q)
        if compare(got, want) != 0:
            bad.append((q, want, got))
    return lt.RoundtripReport(tuple(bad))


def reference_complete_pv1(entries):
    table = {}
    conflicts = []
    for quad, val in entries.items():
        plus, minus = lt._pv1_orbit(quad)
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


def reference_read(ends, entries):
    """The entries closed by reference_complete_pv1, as a table in quadruples() order; an end listed
    twice, a raise, a bad key, a conflict or a missing quadruple is refused, in that order."""
    for i, e in enumerate(ends):
        if e in ends[:i]:
            raise lt.TreeError(f"end {e!r} is listed twice")
    table, conflicts = reference_complete_pv1(entries)
    for quad in entries:
        outside = [e for e in quad if e not in ends]
        if outside:
            raise lt.TreeError(f"bad quadruple key {quad}: {outside[0]!r} is not an end")
        if len(set(quad)) != 4:
            raise lt.TreeError(f"bad quadruple key {quad}: it must name four distinct ends")
    if conflicts:
        raise lt.TreeError(f"inconsistent table under the symmetry axiom: {conflicts[:3]}")
    missing = [q for q in itertools.permutations(ends, 4) if q not in table]
    if missing:
        raise lt.TreeError(f"incomplete table, e.g. {missing[0]}")
    return {q: table[q] for q in itertools.permutations(ends, 4)}


def assert_read_as_reference(ends, entries):
    """valuation_from_entries's table, or what it raised, equals reference_read's; returns it
    (the table's repr, or the exception's type name and message)."""
    got = _outcome(lambda: repr(lt.valuation_from_entries(ends, entries).table))
    assert got == _outcome(lambda: repr(reference_read(ends, entries)))
    return got


def reference_datum_axiom_violations(datum):
    out = []
    for a, b in itertools.combinations(datum.ends, 2):
        w = datum.wedge(a, b)
        if not isinstance(w, Infinity) and sign(w) < 0:
            out.append(("RT0", (a, b)))
        if compare(datum.wedge(a, b), datum.wedge(b, a)) != 0:
            out.append(("RT1", (a, b)))
    for a, b, c in itertools.permutations(datum.ends, 3):
        if compare(datum.wedge(a, c), min(datum.wedge(a, b), datum.wedge(b, c))) < 0:
            out.append(("RT2", (a, b, c)))
    return tuple(out)


def _outcome(f, *args):
    """f's result, or the type and message of what it raised (mixed domains raise in both)."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _set_orbit(table, quad, value):
    plus, minus = lt._pv1_orbit(quad)
    table.update({q: value for q in plus})
    table.update({q: -value for q in minus})


def _map_values(table, f):
    return {q: f(v) for q, v in table.items()}


def _lex_map(f):
    return lambda v: LexPair(f(v.hi), f(v.lo)) if isinstance(v, LexPair) else f(v)


def _perturbed(pv, kind, rng):
    """pv's table changed in one of the ways a bad or unusual input can be."""
    table = dict(pv.table)
    quad = rng.choice(sorted(table))
    v = table[quad]
    if kind == "entry":  # one entry moved by +-1 or +-1/3: PV1 breaks
        step = rng.choice((1, -1, Q(1, 3), Q(-1, 3)))
        table[quad] = v + (lex(0, step) if isinstance(v, LexPair) else step)
    elif kind == "orbit":  # a whole symmetry orbit moved, as the benchmark's rejected jobs are
        step = rng.choice((1, -1, Q(1, 3), Q(-1, 3)))
        _set_orbit(table, quad, v + (lex(rng.choice((0, 1)), step) if isinstance(v, LexPair) else step))
    elif kind == "flip":  # a sign flip, of one entry or of its orbit
        if rng.random() < 0.5:
            table[quad] = -v
        else:
            _set_orbit(table, quad, -v)
    elif kind == "carry":  # a zero orbit set to (1; -X), X the largest |lo|: one carry from zero
        if isinstance(v, LexPair):
            zero = rng.choice(sorted(q for q, w in table.items() if sign(w) == 0))
            top = max(max(abs(w.lo) for w in table.values()), Q(1))
            _set_orbit(table, zero, LexPair(Q(1), -top))
        else:
            _set_orbit(table, quad, v + 1)
    elif kind == "lo0":  # lex tables whose lo parts are all zero
        table = _map_values(table, lambda w: LexPair(w.hi, Q(0)) if isinstance(w, LexPair) else w)
    elif kind == "big":  # values up to 10^40, with a small offset on one orbit
        table = _map_values(table, _lex_map(lambda x: x * 10**40))
        _set_orbit(table, quad, table[quad] + (lex(0, 1) if isinstance(v, LexPair) else 1))
    elif kind == "thirds":  # denominators
        table = _map_values(table, _lex_map(lambda x: x / 3))
    elif kind == "ints":  # plain ints: the encoding does not cover them
        table = _map_values(table, lambda w: int(w) if not isinstance(w, LexPair) else w)
    elif kind == "quadint":  # Z[sqrt 2] values: the encoding does not cover them
        table = _map_values(table, lambda w: QuadInt(int(w), int(w), 2) if not isinstance(w, LexPair) else w)
    return lt.ProjectiveValuation(pv.ends, table)


KINDS = ("none", "entry", "orbit", "flip", "carry", "lo0", "big", "thirds", "ints", "quadint")


def _table_for(seed, n_ends, lam, kind):
    if kind == "star":
        return lt.star_tree(n_ends, Q(seed % 5 + 1)).valuation()
    _, pv = lt.tree_generator(seed, n_ends, lam)
    return _perturbed(pv, kind, random.Random(seed))


def _wedges_off_table(datum, rng):
    """A datum whose wedges are values the table does not hold: denominators, large lo parts."""
    table = dict(datum._wedge)
    for pair in rng.sample(sorted(table), k=min(4, len(table))):
        w = table[pair]
        if isinstance(w, LexPair):
            table[pair] = LexPair(w.hi + rng.choice((0, 1)), Q(rng.randint(-60, 60), rng.choice((1, 3))))
        else:
            table[pair] = Q(rng.randint(-9, 9), rng.choice((1, 2, 3)))
    return lt.RootedTreeDatum(datum.ends, datum.base_triple, table)


cases = st.tuples(
    st.integers(0, 2**31),
    st.integers(4, 9),
    st.sampled_from(("Z", "Z2lex")),
)
# the smallest layouts, where a getter of one position still returns a tuple
SMALL = [(1, 4, "Z"), (2, 5, "Z2lex")]


def _z_sqrt2(pv):
    """pv's rational table in Z[sqrt 2]: each value v, scaled to an integer by the lcm L
    of the denominators, becomes Lv + Lv*sqrt 2, as in TestWorkCounts."""
    den = math.lcm(*(Q(v).denominator for v in pv.table.values()))
    return lt.ProjectiveValuation(pv.ends, {q: QuadInt(int(v * den), int(v * den), 2) for q, v in pv.table.items()})


def _pv1_closed(pv):
    """pv where PV1 holds on it, else the valuation closed from one entry per orbit of its
    table: _failed_blocks decides PV3 only where PV1 holds."""
    if any(axiom == "PV1" for axiom, _, _ in reference_check_pv(pv).violations):
        return lt.valuation_from_entries(pv.ends, _orbit_entries(pv.table))
    return pv


class TestEncodedAgainstValues:
    """check_pv, roundtrip_check, the read of entries and datum_axiom_violations give the
    reports of the loops on values, on tables and datums the encoding covers and on
    those it does not."""

    @pytest.mark.parametrize("kind", KINDS + ("star",))
    @given(case=cases)
    @example(case=SMALL[0])
    @example(case=SMALL[1])
    @settings(max_examples=6, deadline=None)
    def test_check_pv(self, kind, case):
        pv = _table_for(*case, kind)
        assert _outcome(lt.check_pv, pv) == _outcome(reference_check_pv, pv)

    @pytest.mark.parametrize("kind", KINDS + ("star",))
    @given(case=cases)
    @example(case=SMALL[0])
    @example(case=SMALL[1])
    @settings(max_examples=4, deadline=None)
    def test_cocycle_decision(self, kind, case):
        pv = _pv1_closed(_table_for(*case, kind))
        view, cmp, _ = lt._view(pv)
        pv3 = any(axiom == "PV3" for axiom, _, _ in reference_check_pv(pv).violations)
        assert bool(lt._failed_blocks(len(pv.ends), view, cmp)) is pv3

    @pytest.mark.parametrize("other", [QuadInt(0, 0, 2), lex(0, 0)], ids=["quadint", "lex"])
    def test_mixed_domains_raise_as_the_loops(self, other):
        # one zero orbit of another domain passes PV1 and PV2 unnoticed; the
        # cocycle decision may then meet it before the enumeration would
        for seed in range(12):
            pv = _table_for(seed, 5 + seed % 3, ("Z", "Z2lex")[seed % 2], "none")
            table = dict(pv.table)
            _set_orbit(table, random.Random(seed).choice(sorted(table)), other)
            pv = lt.ProjectiveValuation(pv.ends, table)
            assert _outcome(lt.check_pv, pv) == _outcome(reference_check_pv, pv)

    def test_ints_between_two_domains_raise_as_the_loops(self):
        # ints meet Z[sqrt 2] and Q alike, yet those two do not meet: only the enumeration adds them
        table = {q: 0 for q in itertools.permutations("abcdef", 4)}
        _set_orbit(table, tuple("bcef"), QuadInt(0, 0, 2))
        _set_orbit(table, tuple("cdef"), Q(0))
        pv = lt.ProjectiveValuation(tuple("abcdef"), table)
        assert _outcome(lt.check_pv, pv) == _outcome(reference_check_pv, pv)
        assert _outcome(lt.check_pv, pv)[0] == "ScalarDomainError"

    @pytest.mark.parametrize("kind", KINDS + ("star",))
    @pytest.mark.parametrize("off_table", [False, True])
    @given(case=cases)
    @example(case=SMALL[0])
    @example(case=SMALL[1])
    @settings(max_examples=4, deadline=None)
    def test_roundtrip_report(self, kind, off_table, case):
        seed, n_ends, lam = case
        _, valid = lt.tree_generator(seed, n_ends, lam)
        datum = lt.build_datum(valid, random.Random(seed).sample(valid.ends, 3))
        if off_table:
            datum = _wedges_off_table(datum, random.Random(seed))
        pv = _table_for(*case, kind)
        got = _outcome(lt.roundtrip_check, pv, datum)
        want = _outcome(reference_roundtrip_check, pv, datum)
        assert got == want
        assert repr(got) == repr(want)
        assert lt.datum_axiom_violations(datum) == reference_datum_axiom_violations(datum)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("style", ["full", "orbit", "shuffled"])
    @given(case=cases)
    @example(case=SMALL[0])
    @example(case=SMALL[1])
    @settings(max_examples=3, deadline=None)
    def test_complete_pv1(self, kind, style, case):
        pv = _table_for(*case, kind)
        entries = dict(pv.table)
        rng = random.Random(case[0])
        if style == "orbit":
            entries = {q: v for q, v in entries.items() if q == min(itertools.chain(*lt._pv1_orbit(q)))}
        elif style == "shuffled":
            keys = sorted(entries)
            rng.shuffle(keys)
            entries = {q: entries[q] for q in keys[: rng.randint(1, len(keys))]}
        assert_read_as_reference(pv.ends, entries)

    @pytest.mark.parametrize("kind", tuple(k for k in KINDS if k != "quadint") + ("star",))
    @given(case=st.tuples(st.integers(0, 2**31), st.integers(4, 9), st.just("Z")))
    @example(case=(1, 4, "Z"))
    @example(case=(2, 5, "Z"))
    @settings(max_examples=4, deadline=None)
    def test_z_sqrt2_view(self, kind, case):
        # a Z table moved into Z[sqrt 2] has no codes: every check reads its values
        seed, n_ends, lam = case
        pv = _z_sqrt2(_table_for(*case, kind))
        assert pv.codes is None
        assert _outcome(lt.check_pv, pv) == _outcome(reference_check_pv, pv)
        closed = _pv1_closed(pv)
        view, cmp, _ = lt._view(closed)
        pv3 = any(axiom == "PV3" for axiom, _, _ in reference_check_pv(closed).violations)
        assert bool(lt._failed_blocks(n_ends, view, cmp)) is pv3
        valid = _z_sqrt2(lt.tree_generator(seed, n_ends, lam)[1])
        datum = lt.build_datum(valid, random.Random(seed).sample(valid.ends, 3))
        for other in (pv, valid):  # read against another valuation's datum, and its own
            got, want = _outcome(lt.roundtrip_check, other, datum), _outcome(reference_roundtrip_check, other, datum)
            assert repr(got) == repr(want)
        assert lt.datum_axiom_violations(datum) == reference_datum_axiom_violations(datum) == ()
        assert_read_as_reference(pv.ends, _orbit_entries(pv.table) if seed % 2 else dict(pv.table))

    def test_degenerate_keys_take_the_loop(self):
        # a key repeating an end inside a pair is an orbit whose two halves meet
        for val in (Q(0), Q(2)):
            entries = {("a", "a", "b", "c"): val, **ORBITS}
            assert assert_read_as_reference(tuple("abcd"), entries)[0] == "TreeError"

    def test_meeting_halves_are_rewritten(self):
        # (a, a, c, b) holds -2 after the first write, yet rewriting its orbit makes eight
        # conflicts; the key that repeats an end is named ahead of them
        entries = {("a", "a", "b", "c"): Q(2), ("a", "a", "c", "b"): Q(-2), **ORBITS}
        assert len(reference_complete_pv1(entries)[1]) == 8
        got = assert_read_as_reference(tuple("abcd"), entries)
        assert got == ("TreeError", "bad quadruple key ('a', 'a', 'b', 'c'): it must name four distinct ends")

    def test_equal_values_of_two_types_are_rewritten(self):
        # 2 and Fraction(2) compare equal but print differently: the later entry's orbit is rewritten
        for later in (2, Q(2)):
            entries = {**ORBITS, ("c", "d", "a", "b"): later}
            assert_read_as_reference(tuple("abcd"), entries)
            assert type(lt.valuation_from_entries(tuple("abcd"), entries).value("a", "b", "c", "d")) is type(later)

    @pytest.mark.parametrize("order, accepted", [((QuadInt(0, 0, 2), 0, Q(0)), True), ((QuadInt(0, 0, 2), Q(0), 0), False)])
    def test_each_entry_meets_its_orbits_previous_entry(self, order, accepted):
        # 0 compares with Z[sqrt 2] and with Q, yet those two do not compare: an orbit written
        # 0+0√2, 0, Fraction(0) is read, and one written 0+0√2, Fraction(0), 0 is refused
        entries = dict(zip([("a", "b", "c", "d"), ("b", "a", "d", "c"), ("c", "d", "a", "b")], order))
        entries.update({("a", "c", "b", "d"): Q(0), ("a", "d", "b", "c"): Q(0)})
        got = assert_read_as_reference(tuple("abcd"), entries)
        assert isinstance(got, str) is accepted


class TestWorkCounts:
    """A valid Z[sqrt 2] table is outside the integer encoding; its checks still take
    the O(n^4) cocycle decision, and its round trip computes each median coordinate once."""

    def test_no_five_tuples_and_no_per_quadruple_rebuild(self, monkeypatch):
        _, valid = lt.tree_generator(5, 8, "Z")
        pv = lt.ProjectiveValuation(valid.ends, {q: QuadInt(int(v), int(v), 2) for q, v in valid.table.items()})
        datum = lt.build_datum(pv, pv.ends[:3])
        lengths, rebuilt = [], []
        permutations, canonical = itertools.permutations, lt.canonical_valuation
        monkeypatch.setattr(lt.itertools, "permutations", lambda xs, r=None: lengths.append(r) or permutations(xs, r))
        monkeypatch.setattr(lt, "canonical_valuation", lambda *a: rebuilt.append(a) or canonical(*a))
        assert lt.check_pv(pv).ok
        assert 5 not in lengths  # no pass over the 6,720 5-tuples
        assert lt.roundtrip_check(pv, datum).ok
        assert rebuilt == []  # a round trip per quadruple made 8*7*6*5 = 1,680 calls

    @pytest.mark.parametrize("lam", ["Z", "Z2lex", "quadint"])
    def test_valid_tables_are_decided_without_listing(self, lam, monkeypatch):
        # on codes and on values, a valid table passes every decision: no listing
        # runs, and the round trip computes each of the 8*7*6 median coordinates once
        _, pv = lt.tree_generator(5, 8, "Z" if lam == "quadint" else lam)
        if lam == "quadint":
            pv = lt.ProjectiveValuation(pv.ends, {q: QuadInt(int(v), int(v), 2) for q, v in pv.table.items()})
        datum = lt.build_datum(pv, pv.ends[:3])
        listed, kappas, kappa = [], [], lt._kappa
        monkeypatch.setattr(lt, "_cocycle_failures", lambda *a: listed.append("PV3") or [])
        monkeypatch.setattr(lt, "_median_coord", lambda *a: listed.append("roundtrip"))
        monkeypatch.setattr(lt, "_kappa", lambda *a: kappas.append(a) or kappa(*a))
        assert lt.check_pv(pv).ok and lt.roundtrip_check(pv, datum).ok
        assert listed == [] and len(kappas) == 8 * 7 * 6


DOMAINS = ("Z", "Q", "Z2lex", "sqrt2")


def _domain_table(seed, n_ends, domain):
    """(ends, table) of a valid table: Z and Z2lex from tree_generator, Q as a Z table
    through x -> x/3, Z[sqrt 2] as a Z table through _z_sqrt2 (the view of the values)."""
    _, pv = lt.tree_generator(seed, n_ends, "Z2lex" if domain == "Z2lex" else "Z")
    if domain == "Q":
        return pv.ends, _map_values(pv.table, lambda w: w / 3)
    if domain == "sqrt2":
        return pv.ends, dict(_z_sqrt2(pv).table)
    return pv.ends, dict(pv.table)


def _counted_reads(monkeypatch):
    """{getter name: the length of each read}, filled by every getter of the layouts
    that the checks ask for from now on."""
    reads, layout = {}, lt._layout

    def counted(name, get):
        def read(items):
            got = get(items)
            reads.setdefault(name, []).append(len(got))
            return got

        return read

    def named(prefix, getters):
        return tuple(counted(f"{prefix}{i}", get) for i, get in enumerate(getters))

    def counted_layout(n):
        lay = layout(n)
        return lay._replace(
            heads=named("heads", lay.heads),
            cocycle=named("cocycle", lay.cocycle),
            block_sums=named("block_sums", lay.block_sums),
        )

    monkeypatch.setattr(lt, "_layout", counted_layout)
    return reads


class TestHalfOrbits:
    """A table closed under PV1 is decided on one quadruple per PV1 half-orbit and on
    the blocks d < e, and listed only where a decision failed: its report, or what it
    raised, is the loops' over every quadruple and 5-tuple."""

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("kind", ["valid", "orbit", "two-orbits", "entry"])
    @given(seed=st.integers(0, 2**31), n_ends=st.integers(5, 9))
    @example(seed=3, n_ends=5)
    @settings(max_examples=3, deadline=None)
    def test_check_pv_against_the_loops(self, domain, kind, seed, n_ends):
        ends, table = _domain_table(seed, n_ends, domain)
        rng = random.Random(seed)
        if kind == "entry":  # one bare entry moved and read as given: PV1 fails there
            quad = rng.choice(sorted(table))
            table[quad] = _plus_one(table[quad])
            pv = lt.ProjectiveValuation(ends, table)
        else:  # whole orbits moved, as the benchmark's rejected tables are, and closed on reading
            for _ in range(("valid", "orbit", "two-orbits").index(kind)):
                table = bumped_orbit(table, rng.choice(sorted(table)))
            pv = lt.valuation_from_entries(ends, table)
            assert pv._closed_under_pv1 and (pv.codes is None) is (domain == "sqrt2")
        report = lt.check_pv(pv)
        assert report == reference_check_pv(pv)
        if kind != "two-orbits":  # two moves may cancel
            assert report.ok is (kind == "valid")

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_pv1_breaks_one_half_of_a_check(self, domain):
        # tables read as given where PV1 fails only in the pair swap, or only in the
        # flip, and PV2 holds: each half of the PV1 decision must find its failure
        ends, table = _domain_table(5, 6, domain)
        up = next(q for q in sorted(table) if sign(table[q]) > 0)
        down = next(q for q in sorted(table) if sign(table[q]) < 0)
        (a, b, c, d), v = up, _plus_one(table[up])
        # (a, b, c, d) and its exchange moved, each with its flip: every flip negates, and
        # both keep their PV2 partners; their swaps keep the old value
        swap_only = {**table, up: v, (a, d, c, b): v, (a, b, d, c): -v, (a, d, b, c): -v}
        (a, b, c, d), w = down, -_plus_one(-table[down])
        flip_only = {**table, down: w, (c, d, a, b): w}  # a negative value and its swap moved down
        for moved, text in (
            (swap_only, "pair swap changed the value"),
            (flip_only, "flip of the second pair did not negate"),
        ):
            pv = lt.ProjectiveValuation(ends, moved)
            report = lt.check_pv(pv)
            assert report == reference_check_pv(pv)
            assert {t for axiom, _, t in report.violations if axiom != "PV3"} == {text}

    def test_a_positive_orbit_moved_breaks_only_exchanges(self):
        # on a closed table, a positive orbit moved up fails PV2 at its exchanges and
        # at no companion: the exchange decision alone must find it
        ends, table = _domain_table(6, 7, "Z")
        quad = next(q for q in sorted(table) if sign(table[q]) > 0)
        pv = lt.valuation_from_entries(ends, bumped_orbit(table, quad))
        report = lt.check_pv(pv)
        assert report == reference_check_pv(pv)
        assert {t for axiom, _, t in report.violations if axiom == "PV2"} == {lt._EXCHANGED}

    def test_a_table_of_two_zeros_is_listed_by_the_loops(self):
        # Z[sqrt 2] values with one zero orbit of plain ints have two zeros, so nothing
        # is decided; ints add to and compare with Z[sqrt 2], so the loops list every
        # violation of an orbit moved up, and nothing raises
        ends, table = _domain_table(2, 6, "sqrt2")
        _set_orbit(table, next(q for q in sorted(table) if sign(table[q]) == 0), 0)
        moved = bumped_orbit(table, next(q for q in sorted(table) if sign(table[q]) > 0))
        for read in (lt.ProjectiveValuation, lt.valuation_from_entries):
            for given in (table, moved):
                pv = read(ends, given)
                report = lt.check_pv(pv)
                assert report == reference_check_pv(pv)
            assert "PV2" in {axiom for axiom, _, _ in report.violations}

    def test_a_nonzero_companion_comes_with_a_changed_exchange(self):
        # where PV1 holds on four ends, the PV2 decision's companion term never fails
        # alone: every sign and tie pattern of the values of the three orbits is tried
        quads = list(itertools.permutations("abcd", 4))
        heads = [q for q in quads if q == min(itertools.chain(*lt._pv1_orbit(q)))]
        for values in itertools.product(range(-3, 4), repeat=3):
            table = {}
            for quad, v in zip(heads, values):
                _set_orbit(table, quad, Q(v))
            positive = [(a, b, c, d) for a, b, c, d in quads if table[a, b, c, d] > 0]
            companion = any(table[a, c, b, d] != 0 for a, b, c, d in positive)
            exchange = any(table[a, d, c, b] != table[a, b, c, d] for a, b, c, d in positive)
            assert exchange or not companion, values

    def test_values_without_a_zero_raise_as_the_loops(self):
        # one positive orbit of floats: no zero, so nothing is decided, and the loop
        # meets a float first as the exchange of a positive Fraction, not in a swap
        _, pv = lt.tree_generator(0, 6, "Z")
        table = dict(pv.table)
        _set_orbit(table, ("a", "c", "d", "b"), float(table["a", "c", "d", "b"]))
        pv = lt.ProjectiveValuation(pv.ends, table)
        got = _outcome(lt.check_pv, pv)
        assert got == _outcome(reference_check_pv, pv) == ("ScalarDomainError", "mixed-domain comparison: float vs Fraction")

    def test_two_foreign_orbits_raise_as_the_loops(self):
        # zero orbits of two other domains: the 5-tuples of several blocks raise, with
        # different errors, and the first 5-tuple's error is raised
        messages = set()
        for seed in range(10):
            ends, table = _domain_table(seed, 6 + seed % 3, "Z")
            zeros = sorted(q for q, w in table.items() if sign(w) == 0)
            rng = random.Random(seed)
            for other in (QuadInt(0, 0, 2), lex(0, 0)):
                _set_orbit(table, rng.choice(zeros), other)
            for pv in (lt.ProjectiveValuation(ends, table), lt.valuation_from_entries(ends, table)):
                got = _outcome(lt.check_pv, pv)
                assert got == _outcome(reference_check_pv, pv)
                messages.add(got[1])
        assert len(messages) > 1

    @pytest.mark.parametrize("n_ends", [5, 6, 8, 9])
    def test_one_orbit_lists_four_blocks(self, n_ends, monkeypatch):
        # one orbit moved breaks PV3 in the blocks {c, d} and {a, b} of its quadruple
        # (a, b, c, d), each in both orders: the listing scans those 4 of n(n - 1)
        ends, table = _domain_table(n_ends, n_ends, ("Z", "Z2lex")[n_ends % 2])
        quad = sorted(table)[len(table) // 3]
        pv = lt.valuation_from_entries(ends, bumped_orbit(table, quad))
        reads = _counted_reads(monkeypatch)
        report = lt.check_pv(pv)
        assert report == reference_check_pv(pv) and not report.ok
        assert len(reads["block_sums0"]) == 4
        assert {q[3:] for axiom, q, _ in report.violations if axiom == "PV3"} == {
            (quad[2], quad[3]), (quad[3], quad[2]), (quad[0], quad[1]), (quad[1], quad[0])
        }

    @pytest.mark.parametrize("n_ends", [5, 7, 8])
    def test_closed_tables_read_each_class_once(self, n_ends, monkeypatch):
        # PV2 reads one head per half-orbit, n(n-1)(n-2)(n-3)/4 of them, with its exchange,
        # and no companion or quadruple partner; PV3 reads the n(n-1)/2 blocks d < e,
        # (n-3)^2 checks each
        ends, table = _domain_table(n_ends, n_ends, "Z")
        pv = lt.valuation_from_entries(ends, table)
        reads, quadruples = _counted_reads(monkeypatch), lt.ProjectiveValuation.quadruples
        listed = []  # no decision fails, so no loop over the quadruples lists them
        monkeypatch.setattr(lt.ProjectiveValuation, "quadruples", lambda pv: listed.append(pv) or quadruples(pv))
        assert lt.check_pv(pv).ok
        heads = n_ends * (n_ends - 1) * (n_ends - 2) * (n_ends - 3) // 4
        assert [reads.pop(f"heads{i}") for i in range(2)] == [[heads]] * 2
        checks = n_ends * (n_ends - 1) // 2 * (n_ends - 3) ** 2
        assert reads == {f"cocycle{i}": [checks] for i in range(3)}
        # a table read as given has PV1 decided against the heads it then reads as a closed one's:
        # the same reads, and still no listing
        reads.clear()
        given = lt.ProjectiveValuation(ends, table)
        assert given.codes is not None  # the view is read from the table before the check
        listed.clear()
        assert lt.check_pv(given).ok
        assert [reads.pop(f"heads{i}") for i in range(2)] == [[heads]] * 2
        assert reads == {f"cocycle{i}": [checks] for i in range(3)} and listed == []

    def test_a_table_where_pv1_fails_is_listed_by_the_loops(self, monkeypatch):
        # PV1 fails at one bare entry: its decision reads the heads once, the loop reads
        # every quadruple's partners, and PV3 is listed on all n(n - 1) blocks, undecided
        ends, table = _domain_table(7, 7, "Z")
        quad = sorted(table)[len(table) // 2]
        pv = lt.ProjectiveValuation(ends, {**table, quad: table[quad] + 1})
        reads = _counted_reads(monkeypatch)
        report = lt.check_pv(pv)
        assert report == reference_check_pv(pv) and "PV1" in {axiom for axiom, _, _ in report.violations}
        assert reads.pop("heads0") == [7 * 6 * 5 * 4 // 4]
        assert len(reads.pop("block_sums0")) == 7 * 6
        assert set(reads) == {"block_sums1", "block_sums2"}  # no exchange or companion head, no cocycle decision

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_an_orbit_whose_minus_half_is_not_negated_fails_pv1(self, domain):
        # a table read as given whose every half-orbit is constant, yet one orbit's minus
        # half is its plus half, not its negation: only the heads' relation can find it
        ends, table = _domain_table(5, 6, domain)
        quad = next(q for q in sorted(table) if sign(table[q]) != 0)
        table.update(dict.fromkeys(itertools.chain(*lt._pv1_orbit(quad)), table[quad]))
        pv = lt.ProjectiveValuation(ends, table)
        report = lt.check_pv(pv)
        assert report == reference_check_pv(pv)
        assert {t for axiom, _, t in report.violations if axiom == "PV1"} == {"flip of the second pair did not negate"}


# --------------------------------------------------------------------------
# the codes a valuation and its datum carry against codes computed on first use


def _plus_one(v):
    """v moved up by one: a lex pair in its second entry."""
    return LexPair(v.hi, v.lo + 1) if isinstance(v, LexPair) else v + 1


def bumped_orbit(table, quad):
    """The table with quad's symmetry orbit moved up by one, as the benchmark's rejected jobs are."""
    table = dict(table)
    _set_orbit(table, quad, _plus_one(table[quad]))
    return table


def fractional_tree():
    """A valid 6-end table with edge lengths of denominators 2 and 3 (values 3/2, 2/3 and 13/6)."""
    t = lt.ExplicitTree()
    t.attach_end("a", 0, Q(1, 2))
    t.attach_end("b", 0, Q(1, 3))
    n1 = t.add_node(0, Q(3, 2))
    t.attach_end("c", n1, Q(1))
    n2 = t.add_node(n1, Q(2, 3))
    t.attach_end("d", n2, Q(1, 2))
    t.attach_end("e", n2, Q(1, 3))
    t.attach_end("f", n1, Q(5, 2))
    return t.valuation()


def _carried_tables():
    """(name, ends, table): valid tables of each kind the view meets, with mixed-domain ones."""
    out = []
    for seed, n, lam in ((1, 5, "Z"), (2, 6, "Z2lex"), (3, 7, "Z"), (4, 8, "Z2lex"), (5, 9, "Z")):
        pv = lt.tree_generator(seed, n, lam)[1]
        out.append((f"{lam}-{n}", pv.ends, pv.table))
    for bar, arm in ((Q(3, 2), Q(1, 3)), (Q(5, 3), Q(1, 2))):
        pv = lt.h_tree(bar, arm).valuation()
        out.append((f"h-{bar}-{arm}", pv.ends, pv.table))
    pv = lt.h_tree(QuadInt(1, 1, 2), QuadInt(2, 0, 2)).valuation()
    out.append(("h-quadint", pv.ends, pv.table))
    pv = fractional_tree()
    out.append(("halves-thirds", pv.ends, pv.table))
    pv = lt.tree_generator(2, 6, "Z")[1]
    out.append(("quadint-6", pv.ends, _map_values(pv.table, lambda w: QuadInt(int(w), int(w), 2))))
    pv = lt.tree_generator(12, 7, "Z2lex")[1]
    out.append(("lex-thirds-7", pv.ends, _map_values(pv.table, lambda w: LexPair(w.hi, w.lo / 3))))
    # mixed domains: one zero orbit in another domain, or as a plain int
    for name, seed, lam, other in (
        ("mixed-quadint", 8, "Z", QuadInt(0, 0, 2)),
        ("mixed-int", 9, "Z", 0),
        ("mixed-lex", 10, "Z", lex(0, 0)),
        ("mixed-q", 11, "Z2lex", Q(0)),
    ):
        pv = lt.tree_generator(seed, 6, lam)[1]
        table = dict(pv.table)
        zero = sorted(q for q, w in table.items() if sign(w) == 0)[0]
        _set_orbit(table, zero, other)
        out.append((name, pv.ends, table))
    return out


def _orbit_entries(table):
    """One entry per symmetry orbit: the partial tables the CLI reads in its "orbit" style."""
    return {q: v for q, v in table.items() if q == min(itertools.chain(*lt._pv1_orbit(q)))}


def _jobs(pv, base):
    """check_pv, build_datum, datum_axiom_violations and roundtrip_check on pv, each result or what it raised."""
    datum = _outcome(lt.build_datum, pv, base)
    if not isinstance(datum, lt.RootedTreeDatum):
        return _outcome(lt.check_pv, pv), datum
    return (
        _outcome(lt.check_pv, pv),
        repr(datum._wedge),
        _outcome(lt.datum_axiom_violations, datum),
        repr(_outcome(lt.roundtrip_check, pv, datum)),
    )


CARRIED = _carried_tables()


class TestCarriedCodes:
    """A valuation from entries and the datum built from it carry their codes; every
    report equals the one on a fresh valuation of the same table, order included."""

    @pytest.mark.parametrize("name, ends, table", CARRIED, ids=[c[0] for c in CARRIED])
    @pytest.mark.parametrize("perturbed", [False, True], ids=["valid", "perturbed"])
    @pytest.mark.parametrize("style", ["full", "orbit"])
    def test_entries_against_a_fresh_valuation(self, name, ends, table, perturbed, style):
        rng = random.Random(name)
        if perturbed:
            table = bumped_orbit(table, rng.choice(sorted(table)))
        entries = dict(table) if style == "full" else _orbit_entries(table)
        pv = lt.valuation_from_entries(ends, entries)
        fresh = lt.ProjectiveValuation(ends, dict(pv.table))
        for base in (ends[:3], tuple(rng.sample(ends, 3))):
            assert _jobs(pv, base) == _jobs(fresh, base)
        if name.startswith("mixed"):
            return
        report = lt.check_pv(pv)
        assert report.ok is not perturbed
        assert report == reference_check_pv(pv)

    @pytest.mark.parametrize("kind", KINDS)
    @given(case=cases)
    @settings(max_examples=4, deadline=None)
    def test_closed_table_skips_the_pv1_check(self, kind, case):
        # a table closed under PV1 without a conflict cannot fail it: the reports of the
        # marked valuation and of an unmarked copy are equal, where the completion accepts
        pv = _table_for(*case, kind)
        try:
            closed = lt.valuation_from_entries(pv.ends, dict(pv.table))
        except lt.TreeError as exc:
            assert "symmetry axiom" in str(exc)
            assert any(axiom == "PV1" for axiom, _, _ in lt.check_pv(pv).violations)
            return
        fresh = lt.ProjectiveValuation(pv.ends, dict(closed.table))
        assert closed._closed_under_pv1 and not fresh._closed_under_pv1
        assert _outcome(lt.check_pv, closed) == _outcome(lt.check_pv, fresh)

    def test_datum_of_another_valuation(self):
        # pv1 has denominator 2 and pv2 denominator 3, so their own codes are equal
        # integers, yet the round trip of pv2 against pv1's tree must see every mismatch
        tree = lt.tree_generator(3, 7, "Z")[1]
        pv1, pv2 = (lt.valuation_from_entries(tree.ends, _map_values(tree.table, lambda w: w / k)) for k in (2, 3))
        datum = lt.build_datum(pv1, tree.ends[:3])
        got = lt.roundtrip_check(pv2, datum)
        assert not got.ok
        assert repr(got) == repr(reference_roundtrip_check(pv2, datum))
        assert lt.roundtrip_check(pv1, datum).ok

    def test_one_encoding_per_job(self, monkeypatch):
        # the completion's codes serve check_pv, build_datum, datum_axiom_violations and the round trip
        calls, encode = [], lt._encode
        monkeypatch.setattr(lt, "_encode", lambda values: calls.append(len(values)) or encode(values))
        for lam in ("Z", "Z2lex"):
            tree = lt.tree_generator(4, 7, lam)[1]
            calls.clear()
            pv = lt.valuation_from_entries(tree.ends, _orbit_entries(tree.table))
            datum = lt.build_datum(pv, pv.ends[:3])
            assert lt.check_pv(pv).ok and lt.roundtrip_check(pv, datum).ok
            assert lt.datum_axiom_violations(datum) == ()
            assert len(calls) == 1
            # a hand-built valuation encodes its table once, on first use, to the same codes
            fresh = lt.ProjectiveValuation(pv.ends, dict(pv.table))
            assert "codes" not in vars(fresh)
            assert fresh.codes == pv.codes and lt.check_pv(fresh).ok and len(calls) == 2


# --------------------------------------------------------------------------
# the CLI's one-pass read of a table against a valuation of the full table


def _source_table(kind, seed, n_ends):
    """(ends, full table) of one table source: Z, Q (denominators 2, 3, 6), Z2lex,
    an H tree over Z[sqrt 2], or a Z or Z2lex table with one zero orbit of another domain."""
    rng = random.Random(seed)
    if kind == "h-sqrt2":
        bar, arm = (QuadInt(rng.randint(0, 4), rng.randint(0, 3), 2) + QuadInt(1, 0, 2) for _ in range(2))
        pv = lt.h_tree(bar, arm).valuation()
        return pv.ends, pv.table
    lam = "Z2lex" if kind in ("Z2lex", "mixed-q") else "Z"
    pv = lt.tree_generator(seed, n_ends, lam)[1]
    table = dict(pv.table)
    if kind.startswith("Q"):
        table = _map_values(table, lambda w: w / int(kind[1:]))
    elif kind.startswith("mixed"):
        other = {"mixed-quadint": QuadInt(0, 0, 2), "mixed-lex": lex(0, 0), "mixed-q": Q(0)}[kind]
        zeros = sorted(q for q, w in table.items() if sign(w) == 0)
        if zeros:
            _set_orbit(table, rng.choice(zeros), other)
    return pv.ends, table


def _cli_values(ends, table, style, rng):
    """The JSON "values" of a table, in full or one entry per orbit, keys shuffled and some spaced."""
    quads = list(table) if style == "full" else list(_orbit_entries(table))
    rng.shuffle(quads)
    pad = lambda: rng.choice(("", "", " ", "  ", "\t"))
    return {",".join(pad() + e + pad() for e in q): format_scalar(table[q]) for q in quads}


def _write_table(path, ends, values):
    path.write_text(json.dumps({"ends": list(ends), "values": values}))
    return path


def _tree_job(path, valuation=None):
    """(exit code, stdout, stderr) of ``tree --input`` on a table file; with ``valuation``,
    the job checks that valuation in place of the one it reads."""
    out, err = io.StringIO(), io.StringIO()
    read = mock.patch.object(lt, "valuation_from_lists", lambda *_: valuation) if valuation else contextlib.nullcontext()
    with read, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["tree", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


SOURCES = ("Z", "Q2", "Q3", "Q6", "Z2lex", "h-sqrt2", "mixed-quadint", "mixed-lex", "mixed-q")


class TestOnePassRead:
    """A tree job reads its table in one pass, on positions: every view, report and
    output equals that of a valuation built from the full table."""

    @pytest.mark.parametrize("kind", SOURCES)
    @given(seed=st.integers(0, 2**31), n_ends=st.integers(4, 9), style=st.sampled_from(("full", "orbit")),
           bumped=st.booleans())  # fmt: skip
    @example(seed=9, n_ends=9, style="full", bumped=False)
    @example(seed=9, n_ends=9, style="orbit", bumped=False)
    @settings(max_examples=6, deadline=None)
    def test_read_against_the_full_table(self, tmp_path_factory, kind, seed, n_ends, style, bumped):
        ends, table = _source_table(kind, seed, n_ends)
        rng = random.Random(seed)
        if bumped:  # a whole orbit moved: PV1 still holds, PV2 or PV3 may not
            table = bumped_orbit(table, rng.choice(sorted(table)))
        values = _cli_values(ends, table, style, rng)
        pv = lt.valuation_from_lists(ends, *cli._tree_entries(values))
        fresh = lt.ProjectiveValuation(ends, table)
        assert "table" not in vars(pv)
        assert repr(pv._values) == repr(fresh._values)
        assert pv.codes == fresh.codes
        assert repr(pv.table) == repr(fresh.table) and pv == fresh
        assert [pv.value(*q) for q in itertools.islice(pv.quadruples(), 0, None, 7)] == [
            fresh.value(*q) for q in itertools.islice(fresh.quadruples(), 0, None, 7)
        ]
        assert _outcome(lt.check_pv, pv) == _outcome(lt.check_pv, fresh)
        path = _write_table(tmp_path_factory.mktemp("tree") / "table.json", ends, values)
        assert _tree_job(path) == _tree_job(path, fresh)

    def test_library_entries_take_the_same_read(self):
        # valuation_from_entries flattens its dict into the two lists the CLI reads
        ends, table = _source_table("Z2lex", 3, 7)
        entries = _orbit_entries(table)
        pv = lt.valuation_from_entries(ends, entries)
        again = lt.valuation_from_lists(ends, list(itertools.chain(*entries)), list(entries.values()))
        assert "table" not in vars(pv) and repr(pv._values) == repr(again._values) and pv.codes == again.codes

    def test_one_code_per_distinct_value(self, monkeypatch):
        # the parse gives equal strings one object, and each object is encoded once
        ends, table = _source_table("Q6", 4, 9)
        values = _cli_values(ends, table, "full", random.Random(4))
        cleared, clear = [], lt._clear_denominators
        monkeypatch.setattr(lt, "_clear_denominators", lambda vals: cleared.append(len(vals)) or clear(vals))
        pv = lt.valuation_from_lists(ends, *cli._tree_entries(values))
        assert cleared == [len(set(values.values()))]
        assert pv.codes == lt.ProjectiveValuation(ends, table).codes

    # a key that names the quadruple of an earlier key once stripped: the later
    # value is used, at the earlier key's place, as in a dict of stripped keys
    H_FULL_SHA = "2201975ce24291f77bc0efb5e15c2d6b038ab4e7501bf06620c409bbf2010485"
    DUPLICATES = {
        "full-same": (0, H_FULL_SHA, ""),
        "full-other": (
            2,
            hashlib.sha256(b"").hexdigest(),
            "weylkit: inconsistent table under the symmetry axiom: [('PV1', ('a', 'b', 'd', 'c'), 'Fraction(-5, 1) vs "
            "Fraction(0, 1)'), ('PV1', ('b', 'a', 'c', 'd'), 'Fraction(-5, 1) vs Fraction(0, 1)'), ('PV1', ('d', 'c', "
            "'a', 'b'), 'Fraction(-5, 1) vs Fraction(0, 1)')]\n",
        ),
        "orbit-other-later": (1, "df3f494e2708f5931add4d7554e164acf30491764f05b331ac631b0e05ea41c7", ""),
        "orbit-other-first": (0, H_FULL_SHA, ""),
    }

    @pytest.mark.parametrize("case", sorted(DUPLICATES))
    def test_two_keys_naming_one_quadruple_pinned(self, tmp_path, case):
        pv = lt.h_tree(Q(3), Q(1)).valuation()
        table = pv.table if case.startswith("full") else _orbit_entries(pv.table)
        items = [(",".join(q), format_scalar(v)) for q, v in table.items()]
        assert items[0] == ("a,b,c,d", "0")
        twin = ("a, b,c,d", "0" if case == "full-same" else "5")
        items = [twin, *items] if case.endswith("first") else [*items, twin]
        path = tmp_path / "table.json"
        # written by hand: a JSON object may hold two keys a dict cannot
        path.write_text('{"ends": ["a", "b", "c", "d"], "values": {%s}}' % ", ".join(f'"{k}": "{v}"' for k, v in items))
        code, out, err = _tree_job(path)
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == self.DUPLICATES[case]

    @pytest.mark.parametrize(
        "ends, values, code, err",
        [
            ("", {}, 2, "weylkit: base triple must be three distinct ends\n"),
            ("", {"a,b,c,d": "0"}, 2, "weylkit: bad quadruple key ('a', 'b', 'c', 'd'): 'a' is not an end\n"),
            ("a", {}, 2, "weylkit: base triple must be three distinct ends\n"),
            ("ab", {"a,b,a,b": "0"}, 2, "weylkit: bad quadruple key ('a', 'b', 'a', 'b'): it must name four distinct ends\n"),
            ("abc", {}, 0, ""),
            ("abc", {"a,b,c,a": "0"}, 2, "weylkit: bad quadruple key ('a', 'b', 'c', 'a'): it must name four distinct ends\n"),
        ],
    )  # fmt: skip
    def test_few_ends_and_bad_keys_pinned(self, tmp_path, ends, values, code, err):
        # with four ends or more, TestTree.test_bad_quadruple_keys_rejected pins these refusals
        out = {  # three ends: no quadruple, and a tree of three ends
            "ends": ["a", "b", "c"],
            "pv_ok": True,
            "rendering": ["root (base triple a, b, c)", "  end a", "  end b", "  end c"],
            "roundtrip_ok": True,
            "rt_ok": True,
            "violations": [],
        }
        out = json.dumps(out, sort_keys=True, indent=2) + "\n" if code == 0 else ""
        assert _tree_job(_write_table(tmp_path / "table.json", ends, values)) == (code, out, err)


    def test_an_end_listed_twice_builds_no_layout(self):
        # the refusal comes before the layout of the 17 listed ends is built and cached
        ends = [*"abcdefghijklmnop", "a"]
        before = lt._layout.cache_info().currsize
        with pytest.raises(lt.TreeError, match="^end 'a' is listed twice$"):
            lt.valuation_from_lists(ends, [], [])
        assert lt._layout.cache_info().currsize == before

    def test_one_zero_per_distinct_value_object(self, monkeypatch):
        # a Z[sqrt 2] table read from text shares one object per value string, and
        # check_pv asks each object once for its zero, not each of the 3,024 quadruples
        _, pv = lt.tree_generator(5, 9, "Z")
        table = _map_values(pv.table, lambda w: QuadInt(int(w), int(w), 2))
        values = _cli_values(pv.ends, table, "full", random.Random(5))
        pv = lt.valuation_from_lists(pv.ends, *cli._tree_entries(values))
        zeros, zero_like = [], lt.zero_like
        monkeypatch.setattr(lt, "zero_like", lambda v: zeros.append(v) or zero_like(v))
        assert lt.check_pv(pv).ok
        assert 0 < len(zeros) == len({id(v) for v in pv._values}) < len(pv._values) // 100
