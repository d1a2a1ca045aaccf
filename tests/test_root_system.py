"""Root system construction, Weyl actions, co-weights and lattice chains."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.root_system import (
    LinearForms,
    RootSystem,
    RootSystemError,
    WeylElement,
    _orbit_walk,
    build,
    dihedral_cosine_field,
)
from weylkit.scalars import SQRT2_FIELD, LexPair, NFElem, QuadInt, ScalarDomainError, lex, scalar_mul, sign


def all_roots(rs):
    return rs.positive_roots + tuple(tuple(-c for c in b) for b in rs.positive_roots)


def _a_gram(n):
    return tuple(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)) for i in range(n))


# Gram matrices of the types that were built by hand before the Dynkin table
REFERENCE_GRAMS = {
    **{f"A{n}": _a_gram(n) for n in range(1, 5)},
    "B2": ((2, -1), (-1, 1)),
    "C2": ((2, -2), (-2, 4)),
    "G2": ((2, -3), (-3, 6)),
    "F4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 1, Q(-1, 2)), (0, 0, Q(-1, 2), 1)),
}


class TestBuild:
    @pytest.mark.parametrize(
        "label,count",
        [
            ("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4), ("C2", 4), ("G2", 6), ("F4", 24), ("I2(8)", 8), ("I2(5)", 5),
            ("B3", 9), ("C3", 9), ("D4", 12), ("B4", 16), ("C4", 16), ("D5", 20), ("E6", 36),
        ],
    )
    def test_positive_root_counts(self, label, count):
        assert len(build(label).positive_roots) == count

    @pytest.mark.parametrize("label", ["A1", "A4", "B2", "C2", "G2", "B3", "C3", "D4", "B4", "C4", "D5"])
    def test_weyl_order_is_the_group_size(self, label):
        # weyl_order is the product of the degrees; the BFS counts the elements
        rs = build(label)
        assert rs.weyl_order == len(rs.weyl_group())

    @pytest.mark.parametrize("label", sorted(REFERENCE_GRAMS))
    def test_gram_matrices_of_the_hand_built_types(self, label):
        # the Dynkin table must give the Gram matrices once written out by hand
        want = tuple(tuple(Q(c) for c in row) for row in REFERENCE_GRAMS[label])
        assert typed(RootSystem(label).gram) == typed(want)

    # E8 and I2(2) are pinned by test_unsupported_label
    @pytest.mark.parametrize("label", ["A0", "B1", "C1", "D3", "E7", "F3", "G3", "H3", "A", "a2"])
    def test_labels_outside_the_table(self, label):
        with pytest.raises(RootSystemError):
            RootSystem(label)

    def test_a2_positive_roots(self):
        assert set(build("A2").positive_roots) == {(Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1))}

    def test_unsupported_label(self):
        # E8 has no table entry; ranks above 16 and I2(n) above n = 48 are refused
        for label in ("E8", "I2(2)", "A17", "D17", "I2(49)", "A1000"):
            with pytest.raises(RootSystemError):
                build(label)

    def test_i2_8_cartan_in_quartic_field(self):
        rs = build("I2(8)")
        c = rs.cartan[0][1]
        assert isinstance(c, NFElem)
        # -2cos(pi/8) = -sqrt(2+sqrt2), the negated field generator
        assert c == -rs.field.gen()
        assert rs.field.minpoly == (Q(2), Q(0), Q(-4), Q(0), Q(1))
        assert not rs.crystallographic

    @pytest.mark.parametrize("n", range(3, 31))
    def test_dihedral_generator_is_twice_cos_pi_over_n(self, n):
        assert abs(dihedral_cosine_field(n).gen().to_float() - 2 * math.cos(math.pi / n)) < 1e-12

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2", "F4", "I2(5)", "I2(8)", "I2(12)"])
    def test_cartan_rows_and_reflection_forms(self, label):
        # row i of the Cartan matrix is the simple co-root: <alpha_j, alpha_i^>
        # = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i), in value and in type
        rs = build(label)
        for i, ai in enumerate(rs.simple_roots):
            want = [reference_bilinear(rs, aj, ai) * 2 / reference_bilinear(rs, ai, ai) for aj in rs.simple_roots]
            assert typed(rs.cartan[i]) == typed(tuple(want))
            for b in all_roots(rs):
                assert typed(rs.simple_reflection(i).apply(b)) == typed(rs.reflect(ai, b))

    @pytest.mark.parametrize("n, same_group", [(3, "A2"), (4, "B2"), (6, "G2")])
    def test_dihedral_forms_of_crystallographic_types(self, n, same_group):
        rs, ref = build(f"I2({n})"), build(same_group)
        assert not rs.crystallographic
        assert rs.weyl_order == len(rs.weyl_group()) == ref.weyl_order == 2 * n
        assert len(rs.positive_roots) == len(ref.positive_roots) == n
        # s_1 s_2 is a rotation of order n, as in the crystallographic form
        for sys_ in (rs, ref):
            rot = sys_.element((0, 1))
            powers = [rot]
            while powers[-1] != sys_.element(()) and len(powers) <= 2 * n:
                powers.append(sys_.element(powers[-1].word + rot.word))
            assert len(powers) == n

    def test_closure_under_reflections(self):
        for label in ("A2", "B2", "G2", "I2(8)"):
            rs = build(label)
            roots = set(all_roots(rs))
            for alpha in rs.positive_roots:
                for beta in roots:
                    assert tuple(rs.reflect(alpha, beta)) in roots


class TestReflect:
    def test_alpha_to_minus_alpha(self):
        rs = build("A2")
        a = rs.simple_roots[0]
        assert rs.reflect(a, a) == (Q(-1), Q(0))

    def test_a2_simple_pair(self):
        rs = build("A2")
        assert rs.reflect(rs.simple_roots[0], rs.simple_roots[1]) == (Q(1), Q(1))

    def test_wall_fixed(self):
        rs = build("A2")
        x = tuple(Q(c) for c in rs.fundamental_coweights()[1])
        assert rs.pairing(x, rs.simple_roots[0]) == 0
        assert rs.reflect(rs.simple_roots[0], x) == x

    def test_zero_vector_rejected(self):
        rs = build("A2")
        with pytest.raises(RootSystemError):
            rs.reflect((Q(0), Q(0)), rs.simple_roots[0])


class TestPairing:
    def test_self_pairing_is_two(self):
        for label in ("A2", "G2", "F4", "I2(8)"):
            rs = build(label)
            for alpha in rs.positive_roots:
                assert sign(rs.pairing(alpha, alpha) - rs._f(2)) == 0

    def test_a2_off_diagonal(self):
        rs = build("A2")
        assert rs.pairing(rs.simple_roots[1], rs.simple_roots[0]) == Q(-1)

    def test_zero(self):
        rs = build("A2")
        assert rs.pairing(rs.zero_point(), rs.simple_roots[0]) == 0

    def test_pairing_and_root_level_share_forms_when_norm_is_two(self):
        # alpha^ = alpha when (alpha, alpha) = 2, so both give one value
        rs = RootSystem("A2")
        x = (Q(3, 2), Q(-1, 3))
        for alpha in rs.positive_roots:
            assert rs.pairing(x, alpha) == rs.root_level(x, alpha)

    @pytest.mark.parametrize("label", ["B2", "G2", "I2(8)"])
    def test_one_coroot_per_root(self, label):
        rs = RootSystem(label)
        x = tuple(rs._f(Q(k, 3)) for k in (2, -5))
        want = [rs.bilinear(x, rs.coroot_of(a)) for a in rs.positive_roots]
        for _ in range(3):
            assert [rs.pairing(x, a) for a in rs.positive_roots] == want


def reference_affine_reflect(rs, alpha, k, x):
    """r_{alpha,k}(x) = s_alpha(x) + k * 2/(alpha,alpha) * alpha: the reflection in {y : (alpha, y) = k}."""
    nn = rs.norm_sq(alpha)
    return tuple(r + aj * 2 / nn * k for r, aj in zip(rs.reflect(alpha, x), alpha))


class TestAffineReflect:
    """The reference affine reflection that the alcove walls are checked against."""

    def test_k_zero_is_linear(self):
        rs = build("G2")
        rng = random.Random(7)
        for _ in range(20):
            x = (Q(rng.randint(-9, 9), 3), Q(rng.randint(-9, 9), 3))
            for alpha in rs.positive_roots:
                assert reference_affine_reflect(rs, alpha, Q(0), x) == rs.reflect(alpha, x)

    def test_a1_translation_to_coroot(self):
        rs = build("A1")
        assert reference_affine_reflect(rs, rs.simple_roots[0], Q(1), (Q(0),)) == (Q(1),)

    def test_involution(self):
        rng = random.Random(11)
        for label in ("A2", "B2", "G2"):
            rs = build(label)
            for _ in range(100):
                x = tuple(Q(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(rs.rank))
                alpha = rs.positive_roots[rng.randrange(len(rs.positive_roots))]
                k = Q(rng.randint(-5, 5), rng.randint(1, 3))
                assert reference_affine_reflect(rs, alpha, k, reference_affine_reflect(rs, alpha, k, x)) == x

    def test_fixed_locus(self):
        rs = build("B2")
        alpha = rs.positive_roots[2]
        k = Q(3, 2)
        # a point on the wall (alpha, x) = k
        nn = rs.norm_sq(alpha)
        x = tuple(c * k / nn for c in alpha)
        assert rs.root_level(x, alpha) == k
        assert reference_affine_reflect(rs, alpha, k, x) == x


class TestOrbitsAndDominance:
    def test_orbit_of_zero(self):
        rs = build("A2")
        assert rs.weyl_orbit(rs.zero_point()) == (rs.zero_point(),)

    def test_regular_orbit_size(self):
        rs = build("A2")
        assert len(rs.weyl_orbit((Q(1), Q(1)))) == 6

    def test_coweight_orbit_size(self):
        rs = build("A2")
        assert len(rs.weyl_orbit(rs.fundamental_coweights()[0])) == 3

    def test_orbit_size_divides_group_order(self):
        rng = random.Random(3)
        for label in ("A2", "B2", "G2"):
            rs = build(label)
            for _ in range(10):
                x = tuple(Q(rng.randint(-3, 3)) for _ in range(rs.rank))
                assert rs.weyl_order % len(rs.weyl_orbit(x)) == 0

    def test_dominant_input_is_fixed(self):
        rs = build("A2")
        x = (Q(4), Q(2))
        xp, word = rs.dominant_rep(x)
        assert xp == x and word == ()
        assert rs.pairing(x, rs.simple_roots[0]) == 6
        assert rs.pairing(x, rs.simple_roots[1]) == 0

    def test_dominant_rep_postconditions(self):
        # the representative is dominant and w carries x onto it (for -alpha1 the
        # representative is the highest root, reached after two reflections)
        rs = build("A2")
        x = (Q(-1), Q(0))
        xp, word = rs.dominant_rep(x)
        assert xp == (Q(1), Q(1))
        assert rs.element(word).apply(x) == xp
        assert rs.is_dominant(xp)

    def test_dominant_rep_random(self):
        rng = random.Random(5)
        for label in ("A2", "G2", "F4"):
            rs = build(label)
            for _ in range(25):
                x = tuple(Q(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(rs.rank))
                xp, word = rs.dominant_rep(x)
                assert rs.element(word).apply(x) == xp
                assert rs.is_dominant(xp)


def reference_walk(rs, x):
    """The greedy dominance walk that reflects, then recomputes every pairing."""
    cur = tuple(x)
    word = ()
    for _ in range(len(rs.positive_roots) + 1):
        neg = next(
            (i for i in range(rs.rank) if sign(rs.pairing(cur, rs.simple_roots[i])) < 0), None
        )
        if neg is None:
            return cur, word
        cur = rs.reflect(rs.simple_roots[neg], cur)
        word = (neg,) + word
    raise AssertionError("reference walk did not terminate")


_small_q = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_WALK_LABELS = ("A1", "A2", "A3", "B2", "C2", "G2", "F4", "B3", "C3", "D4", "I2(5)", "I2(8)")


class TestDominantWalk:
    """The pairing-coordinate walk against the reflect-and-recompute walk."""

    @staticmethod
    def _check(rs, x):
        want_xp, want_word = reference_walk(rs, x)
        xp, word = rs.dominant_rep(x)
        assert xp == want_xp and word == want_word
        assert rs.is_dominant(xp)
        assert rs.element(word).apply(x) == xp

    @pytest.mark.parametrize("label", _WALK_LABELS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rational_points(self, label, data):
        rs = build(label)
        self._check(rs, tuple(data.draw(_small_q) for _ in range(rs.rank)))

    @pytest.mark.parametrize("label", _WALK_LABELS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_lex_points(self, label, data):
        # few distinct hi parts, so the lo parts often decide the sign
        rs = build(label)
        hi = st.integers(-2, 2)
        self._check(rs, tuple(lex(data.draw(hi), data.draw(_small_q)) for _ in range(rs.rank)))


def per_letter_orbit(rs, x):
    """The Weyl orbit closed by one full reflection matrix per letter: the orbit before the pairing rule."""
    forms = [rs.simple_reflection(i).forms for i in range(rs.rank)]
    seen = {tuple(x)}
    frontier = [tuple(x)]
    while frontier:
        nxt = []
        for p in frontier:
            for f in forms:
                img = f.apply(p)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(seen))


_ORBIT_LABELS = ("A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4", "F4", "E6", "I2(5)", "I2(8)")


def orbit_points(rs):
    """Q, lex and field points of ``rs``, the fundamental co-weights among them.

    Random points of E6 are regular, with all 51,840 elements of W in their
    orbits, so E6 takes co-weights instead: lex pairs of two of them and a
    multiple by sqrt 2, whose orbits hold at most 1,080 points.
    """
    rng = random.Random(rs.label)
    cw = rs.fundamental_coweights()
    if rs.label == "E6":
        return [
            *cw,
            tuple(c * Q(-1, 2) for c in cw[3]),
            tuple(lex(a, b) for a, b in zip(cw[0], cw[5])),
            tuple(lex(a, -b) for a, b in zip(cw[1], cw[2])),
            tuple(scalar_mul(c, SQRT2_FIELD.gen()) for c in cw[4]),
        ]
    points = [tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rs.rank)) for _ in range(3)]
    points += [tuple(lex(rng.randint(-2, 2), Q(rng.randint(-4, 4), 2)) for _ in range(rs.rank)) for _ in range(2)]
    if rs.crystallographic:
        points.append(tuple(SQRT2_FIELD.elem([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(rs.rank)))
    return points + list(cw)


class TestWeylOrbit:
    """The orbit by one pairing per point against the orbit by one reflection matrix per letter."""

    @pytest.mark.parametrize("label", _ORBIT_LABELS)
    def test_against_the_per_letter_orbit(self, label):
        rs = build(label)
        for x in orbit_points(rs):
            got, want = rs.weyl_orbit(x), per_letter_orbit(rs, x)
            assert got == want and len(got) == len(want)
            if rs.crystallographic:
                assert typed(got) == typed(want)

    @pytest.mark.parametrize("label", _ORBIT_LABELS)
    def test_the_walk_yields_each_point_once(self, label):
        # Snow's tree has no seen-set: the unsorted walk itself must hold no repeat
        rs = build(label)
        for x in orbit_points(rs):
            x = [scalar_mul(rs.simple_roots[0][0], c) for c in x]
            pairs = rs.simple_coroot_forms.apply(x)
            walk = list(_orbit_walk(x, pairs, rs._simple_system, scalar_mul, len(rs.positive_roots) + 1))
            assert len(walk) == len(set(walk)) == len(rs.weyl_orbit(x))
            assert walk[0] == rs.dominant_rep(x)[0] and tuple(x) in walk

    @pytest.mark.parametrize("label", [label for label in _ORBIT_LABELS if not label.startswith("I2")])
    def test_rational_points_walk_their_numerators(self, label):
        # the integer walk of a rational point against the walk on Fractions through scalar_mul,
        # in value and type: co-weights, points off the co-weight lattice, and int coordinates
        rs = build(label)
        rng = random.Random(label)
        points = list(rs.fundamental_coweights())
        if label == "E6":  # a random point would be regular, with 51,840 orbit points
            points.append(tuple(Q(k, 2) for k in range(1, 7)))
        else:
            points += [tuple(Q(rng.randint(-9, 9), rng.choice((2, 3, 5, 7))) for _ in range(rs.rank)) for _ in range(2)]
            points.append(tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
        for x in points:
            lifted = [scalar_mul(Q(1), c) for c in x]
            pairs = rs.simple_coroot_forms.apply(lifted)
            walk = _orbit_walk(lifted, pairs, rs._simple_system, scalar_mul, 1 + len(rs.positive_roots))
            assert typed(rs.weyl_orbit(x)) == typed(tuple(sorted(walk)))

    @pytest.mark.parametrize("label,x,size", [("I2(5)", (1, 0), 10), ("I2(8)", (1, 0), 8), ("I2(8)", (3, 4), 16)])
    def test_dihedral_orbit_sizes(self, label, x, size):
        # a rational point and its field images are one point each: none is listed twice
        orbit = build(label).weyl_orbit(tuple(map(Q, x)))
        assert len(orbit) == len(set(orbit)) == size
        assert all(len({type(c) for c in p}) == 1 for p in orbit)


def reference_apply(M, v):
    """F-rows applied to a Lambda-vector one scalar_mul term at a time (the reference)."""
    out = []
    for row in M:
        acc = None
        for c, x in zip(row, v):
            term = scalar_mul(c, x)
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def reference_pairing(rs, x, alpha):
    nn = reference_bilinear(rs, alpha, alpha)
    row = tuple(c * 2 / nn for c in reference_apply(rs.gram, alpha))
    return reference_apply((row,), x)[0]


def reference_root_level(rs, x, alpha):
    return reference_apply((reference_apply(rs.gram, alpha),), x)[0]


def reference_bilinear(rs, x, y):
    return reference_apply((reference_apply(rs.gram, y),), x)[0]


def typed(v):
    """v with the type of each of its parts, so that == compares value and type."""
    if isinstance(v, tuple):
        return tuple(typed(c) for c in v)
    if isinstance(v, LexPair):
        return (LexPair, typed(v.hi), typed(v.lo))
    if isinstance(v, NFElem):
        return (NFElem, v.field.name, typed(v.coeffs))
    return (type(v), v)


def outcome(f, *args):
    """typed(f(*args)), or the type of the domain error it raises."""
    try:
        return typed(f(*args))
    except TypeError as exc:  # ScalarDomainError, or + between two domains
        return type(exc)


# I2(5) is over a quadratic field, I2(8) and I2(12) over two quartic ones
KERNEL_LABELS = ("A1", "A2", "A3", "B2", "C2", "G2", "F4", "B3", "C3", "D4", "I2(5)", "I2(8)", "I2(12)")
# q: rationals; lex: lex pairs; image: a translated Weyl image of a rational
# point (NFElem coordinates in I2(n)); lex-image: a Weyl image of a lex point;
# quad: Z[sqrt 2] (the per-term fallback); foreign: NFElem of another field
POINT_KINDS = ("q", "lex", "image", "lex-image", "quad", "foreign")


def draw_point(data, rs, kind):
    n = rs.rank
    q = [data.draw(_small_q) for _ in range(n)]
    if kind == "q":
        return tuple(q)
    if kind == "lex":
        return tuple(lex(data.draw(st.integers(-2, 2)), c) for c in q)
    if kind in ("image", "lex-image"):
        group = rs.weyl_group()
        w = group[data.draw(st.integers(0, len(group) - 1))]
        if kind == "lex-image":
            return w.apply(tuple(lex(data.draw(st.integers(-2, 2)), c) for c in q))
        return tuple(a + data.draw(_small_q) for a in w.apply(tuple(q)))
    if kind == "quad":
        return tuple(QuadInt(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)), 2) for _ in q)
    return tuple(SQRT2_FIELD.elem([c, data.draw(_small_q)]) for c in q)


class TestLinearFormKernel:
    """The integer kernel against the per-term loop, in value and in type."""

    @pytest.mark.parametrize("label", KERNEL_LABELS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_forms_match_the_per_term_loop(self, label, data):
        rs = build(label)
        x = draw_point(data, rs, data.draw(st.sampled_from(POINT_KINDS)))
        for alpha in all_roots(rs):
            assert outcome(rs.pairing, x, alpha) == outcome(reference_pairing, rs, x, alpha)
            assert outcome(rs.root_level, x, alpha) == outcome(reference_root_level, rs, x, alpha)
        for cw in rs.fundamental_coweights():
            assert outcome(rs.bilinear, x, cw) == outcome(reference_bilinear, rs, x, cw)
        group = rs.weyl_group()
        w = group[data.draw(st.integers(0, len(group) - 1))]
        assert outcome(w.apply, x) == outcome(reference_apply, w.matrix, x)
        assert outcome(LinearForms(rs.gram).apply, x) == outcome(reference_apply, rs.gram, x)

    def test_fallback_keeps_per_term_integrality(self):
        # Z[sqrt 2] takes the per-term loop: 1/2 * 2 is integral, 1/2 * 1 is not
        m = ((Q(1, 2), Q(1, 2)),)
        assert LinearForms(m).apply((QuadInt(2, 0, 2), QuadInt(0, 2, 2))) == (QuadInt(1, 1, 2),)
        with pytest.raises(ScalarDomainError):
            LinearForms(m).apply((QuadInt(1, 0, 2), QuadInt(1, 0, 2)))


class TestCoweights:
    def test_a1(self):
        rs = build("A1")
        assert rs.fundamental_coweights()[0] == (Q(1, 2),)

    def test_a2(self):
        rs = build("A2")
        assert rs.fundamental_coweights()[0] == (Q(2, 3), Q(1, 3))

    def test_defining_property_everywhere(self):
        for label in ("A1", "A2", "B2", "C2", "G2", "F4", "I2(8)"):
            rs = build(label)
            for i in range(rs.rank):
                cw = rs.fundamental_coweights()[i]
                for j in range(rs.rank):
                    val = reference_bilinear(rs, rs.simple_roots[j], cw)
                    assert sign(val - rs._f(1 if i == j else 0)) == 0


class TestLattices:
    def test_zero_in_coroot_lattice(self):
        assert build("A2").coroot_lattice_member((Q(0), Q(0)))

    def test_a2_self_duality(self):
        # in type A the root and co-root lattices coincide
        rs = build("A2")
        assert rs.coroot_lattice_member((Q(1), Q(0)))
        assert rs.root_lattice_member((Q(1), Q(0)))

    def test_coweight_not_in_coroot_lattice(self):
        rs = build("A2")
        assert not rs.coroot_lattice_member(rs.fundamental_coweights()[0])

    def test_non_crystallographic_rejected(self):
        with pytest.raises(RootSystemError):
            build("I2(8)").coroot_lattice_member((Q(0), Q(0)))

    @pytest.mark.parametrize("odd", [lex(1, 2), QuadInt(1, 1, 2)], ids=repr)
    def test_coset_needs_rational_points(self, odd):
        rs = build("A2")
        zero = rs.zero_point()
        for x, y in (((odd, Q(0)), zero), (zero, (Q(0), odd))):
            with pytest.raises(ScalarDomainError, match="rational coordinates"):
                rs.coroot_coset_member(x, y)

    def test_lattice_chain(self):
        # the full embedded chain Q(R^) in Q(R) in P(R) in P(R^) holds for the
        # normalisations with long roots of squared length 2
        rng = random.Random(13)
        for label in ("A1", "A2", "A3", "B2", "F4"):
            rs = build(label)
            coroots = [rs.coroot_of(a) for a in rs.simple_roots]
            for _ in range(40):
                x = rs.zero_point()
                for cr in coroots:
                    k = rng.randint(-4, 4)
                    x = tuple(a + k * Q(b) for a, b in zip(x, cr))
                assert rs.coroot_lattice_member(x)
                assert rs.root_lattice_member(x)
                assert rs.weight_lattice_member(x)
                assert rs.coweight_lattice_member(x)

    def test_scale_free_inclusions(self):
        # Q(R^) in P(R^) and Q(R) in P(R) do not depend on the root lengths
        rng = random.Random(29)
        for label in ("A2", "B2", "C2", "G2", "F4"):
            rs = build(label)
            coroots = [rs.coroot_of(a) for a in rs.simple_roots]
            for _ in range(25):
                x = rs.zero_point()
                y = rs.zero_point()
                for cr, a in zip(coroots, rs.simple_roots):
                    k = rng.randint(-4, 4)
                    x = tuple(u + k * Q(v) for u, v in zip(x, cr))
                    y = tuple(u + k * Q(v) for u, v in zip(y, a))
                assert rs.coroot_lattice_member(x) and rs.coweight_lattice_member(x)
                assert rs.root_lattice_member(y) and rs.weight_lattice_member(y)

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2", "F4"])
    def test_membership_and_dominance_per_simple_root(self, label):
        # each test applies one multi-row form; the reference asks each simple root
        rs = build(label)
        rng = random.Random(label)
        for _ in range(60):
            x = tuple(Q(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(rs.rank))
            pairings = [rs.pairing(x, a) for a in rs.simple_roots]
            assert rs.is_dominant(x) == all(sign(p) >= 0 for p in pairings)
            assert rs.weight_lattice_member(x) == all(p.denominator == 1 for p in pairings)
            assert rs.coweight_lattice_member(x) == all(rs.root_level(x, a).denominator == 1 for a in rs.simple_roots)

    def test_g2_normalisation_counterexample(self):
        # with short roots of squared length 2 the long co-root leaves the root
        # lattice; the cross inclusion is a normalisation artifact, not scale-free
        rs = build("G2")
        long_coroot = rs.coroot_of(rs.simple_roots[1])
        assert long_coroot == (Q(0), Q(1, 3))
        assert not rs.root_lattice_member(long_coroot)


def reference_product(A, B):
    """The matrix product A B over F, each entry summed left to right."""
    out = []
    for row in A:
        entries = []
        for col in zip(*B):
            acc = row[0] * col[0]
            for a, b in zip(row[1:], col[1:]):
                acc = acc + a * b
            entries.append(acc)
        out.append(tuple(entries))
    return tuple(out)


def reference_group(rs):
    """The Weyl group BFS by exact F-matrix products, keyed on the matrices."""
    ident = rs.element(())
    seen = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                s = rs.simple_reflection(i)
                cand = WeylElement(w.word + s.word, reference_product(w.matrix, s.matrix))
                if cand.matrix not in seen:
                    seen[cand.matrix] = cand
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen.values(), key=lambda w: (len(w.word), w.word))


def reference_length_by_inversions(rs, w):
    """The number of positive roots that w sends to negative ones."""
    return sum(all(sign(c) <= 0 for c in w.apply(beta)) for beta in rs.positive_roots)


class TestWeylGroup:
    @pytest.mark.parametrize("label,order", [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("I2(8)", 16)])
    def test_group_order(self, label, order):
        assert len(build(label).weyl_group()) == order

    @pytest.mark.parametrize(
        "label",
        ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2", "F4", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)"],
    )
    def test_same_words_and_matrices_as_the_matrix_bfs(self, label):
        # the search on w^-1 . d (integer levels over the rationals, field
        # levels for I2(n)) must give the order, the first-found words and
        # the F-matrices of the search by matrix products
        rs = build(label)
        got = [(w.word, typed(w.matrix)) for w in rs.weyl_group()]
        assert got == [(w.word, typed(w.matrix)) for w in reference_group(rs)]

    def test_e6_group_order_words_and_sampled_matrices(self):
        # too large for the reference search: its order, its (length, word)
        # order and a sample of matrices, each against the word's row updates
        rs = build("E6")
        group = rs.weyl_group()
        assert len(group) == rs.weyl_order == 51840
        keys = [(len(w.word), w.word) for w in group]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert len(group[-1].word) == len(rs.positive_roots) == 36
        for w in random.Random(6).sample(group, 60):
            assert typed(w.matrix) == typed(rs.element(w.word).matrix)

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "G2", "I2(5)"])
    def test_elements_from_words_match_the_matrix_products(self, label):
        # element builds matrices by row updates, one per letter,
        # and the reversed word is the inverse; the reference multiplies F-matrices
        rs = build(label)
        group = reference_group(rs)
        ident = typed(rs.element(()).matrix)
        rng = random.Random(label)
        for w in group:
            assert typed(rs.element(w.word).matrix) == typed(w.matrix)
            assert typed(reference_product(rs.element(reversed(w.word)).matrix, w.matrix)) == ident
            v = rng.choice(group)
            uv = rs.element(w.word + v.word)
            assert uv.word == w.word + v.word
            assert typed(uv.matrix) == typed(reference_product(w.matrix, v.matrix))

    def test_forms_built_once_and_outside_eq_hash_and_repr(self):
        w = build("B2").element((0, 1, 0))
        twin = WeylElement(w.word, w.matrix)
        before = (repr(w), hash(w))
        x = (Q(1, 2), Q(-3))
        assert w.apply(x) == reference_apply(w.matrix, x)
        forms = vars(w)["forms"]
        assert w.apply(x) == twin.apply(x) and vars(w)["forms"] is forms and w.forms is forms
        assert (repr(w), hash(w)) == before == (repr(twin), hash(twin))
        assert w == twin and "forms" not in repr(w)
        assert w != build("B2").element((0,))

    def test_length_equals_inversions_exhaustive(self):
        for label in ("A1", "A2", "B2", "G2"):
            rs = build(label)
            for w in rs.weyl_group():
                assert len(w.word) == reference_length_by_inversions(rs, w)

    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_product_length_is_the_reduced_length(self, label):
        # a product's word is the concatenation, not reduced: (0, 0) is the
        # identity; its length is that of the group element equal to it
        rs = build(label)
        group = rs.weyl_group()
        rng = random.Random(label)
        for _ in range(40):
            uv = rs.element(rng.choice(group).word + rng.choice(group).word)
            u = next(u for u in group if u == uv)
            assert reference_length_by_inversions(rs, uv) == len(u.word)
        s0 = rs.simple_reflection(0)
        assert reference_length_by_inversions(rs, rs.element(s0.word + s0.word)) == 0

    def test_length_equals_inversions_f4_sampled(self):
        rs = build("F4")
        group = rs.weyl_group()
        rng = random.Random(1)
        for w in rng.sample(group, 80):
            assert len(w.word) == reference_length_by_inversions(rs, w)

    def test_longest_element_reverses_dominance(self):
        rng = random.Random(2)
        for label in ("A2", "B2", "G2", "F4"):
            rs = build(label)
            w0 = rs.longest_element()
            assert len(w0.word) == len(rs.positive_roots)
            coweights = rs.fundamental_coweights()
            for _ in range(10):
                x = rs.zero_point()
                for cw in coweights:
                    k = rng.randint(0, 5)
                    x = tuple(u + k * Q(v) for u, v in zip(x, cw))
                assert rs.is_dominant(x)
                img = w0.apply(x)
                for a in rs.simple_roots:
                    assert sign(rs.pairing(img, a)) <= 0

    def test_highest_root(self):
        assert build("A2").highest_root() == (Q(1), Q(1))
        assert build("G2").highest_root() == (Q(3), Q(2))

    @pytest.mark.parametrize("label", ["A1", "B2", "G2", "F4"])
    def test_gallery_constants_are_built_once(self, label):
        rs = RootSystem(label)
        assert rs.highest_root() is rs.highest_root()
        p0 = rs.interior_alcove_point
        assert rs.interior_alcove_point is p0
        assert all(0 < rs.root_level(p0, a) < 1 for a in rs.positive_roots)

    def test_no_highest_root_without_a_lattice(self):
        rs = build("I2(5)")
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(RootSystemError, match="crystallographic"):
                rs.highest_root()


class TestWallTransport:
    def _random_wall_point(self, rs, alpha, k, rng):
        v = tuple(Q(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rs.rank))
        excess = rs.root_level(v, alpha) - k
        nn = rs.norm_sq(alpha)
        return tuple(c - excess * a / nn for c, a in zip(v, alpha))

    def test_reflection_transports_walls(self):
        # s_beta maps the wall of (alpha, k) onto the wall of (s_beta(alpha), k)
        rng = random.Random(17)
        for label in ("A2", "B2", "G2"):
            rs = build(label)
            for _ in range(30):
                alpha = rs.positive_roots[rng.randrange(len(rs.positive_roots))]
                beta = rs.positive_roots[rng.randrange(len(rs.positive_roots))]
                k = Q(rng.randint(-4, 4))
                x = self._random_wall_point(rs, alpha, k, rng)
                assert rs.root_level(x, alpha) == k
                img = rs.reflect(beta, x)
                alpha_img = rs.reflect(beta, alpha)
                assert rs.root_level(img, alpha_img) == k

    def test_coroot_translation_shifts_level(self):
        rng = random.Random(19)
        rs = build("G2")
        for _ in range(30):
            alpha = rs.positive_roots[rng.randrange(len(rs.positive_roots))]
            beta = rs.positive_roots[rng.randrange(len(rs.positive_roots))]
            bv = rs.coroot_of(beta)
            x = tuple(Q(rng.randint(-5, 5), 3) for _ in range(rs.rank))
            shift = rs.root_level(tuple(Q(c) for c in bv), alpha)
            moved = tuple(a + Q(b) for a, b in zip(x, bv))
            assert rs.root_level(moved, alpha) == rs.root_level(x, alpha) + shift


_LEVEL_LABELS = ("A1", "A2", "A3", "B2", "C2", "G2", "F4", "B3", "C3", "D4")


class TestLevelCoordinates:
    """Level coordinates L_j = (alpha_j, x): the integer frame of the convexity kernels."""

    @pytest.mark.parametrize("label", _LEVEL_LABELS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, label, data):
        rs = build(label)
        vectors = data.draw(st.lists(st.tuples(*[_small_q] * rs.rank), min_size=1, max_size=3))
        levels, den = rs.to_levels(vectors)
        for v, lv in zip(vectors, levels):
            assert all(type(c) is int for c in lv)
            assert [Q(c, den) for c in lv] == [rs.root_level(v, a) for a in rs.simple_roots]
            back = rs.from_levels(lv, den)
            assert back == v and all(type(c) is Q for c in back)

    @pytest.mark.parametrize("label", _LEVEL_LABELS)
    def test_special_vertices_have_integer_levels(self, label):
        rs = build(label)
        # the levels of the fundamental co-weight i are the unit vector e_i
        for i, cw in enumerate(rs.fundamental_coweights()):
            (levels,), den = rs.to_levels([cw])
            assert [Q(c, den) for c in levels] == [int(i == j) for j in range(rs.rank)]

    @pytest.mark.parametrize("label", _LEVEL_LABELS)
    def test_walls_reflect_as_affine_reflections(self, label):
        rs = build(label)
        rng = random.Random(label)
        theta = rs.highest_root()
        roots = [(tuple(-c for c in theta), Q(-1))] + [(a, Q(0)) for a in rs.simple_roots]
        for (beta, k), (wall_beta, wall_k, c) in zip(roots, rs.alcove_walls):
            assert wall_beta == beta and wall_k == k
            assert all(type(e) is int for e in (*wall_beta, *c))
            for _ in range(5):
                x = tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rs.rank))
                (lv,), den = rs.to_levels([x])
                t = sum(b * e for b, e in zip(wall_beta, lv)) - wall_k * den
                moved = rs.from_levels(tuple(e - t * ce for e, ce in zip(lv, c)), den)
                assert moved == reference_affine_reflect(rs, beta, k, x)

    @pytest.mark.parametrize("label", _LEVEL_LABELS)
    def test_simple_reflections_use_the_integer_cartan_rows(self, label):
        rs = build(label)
        rng = random.Random(label)
        for i, row in enumerate(rs.integer_cartan):
            assert row == tuple(int(c) for c in rs.cartan[i])
            x = tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rs.rank))
            (lv,), den = rs.to_levels([x])
            moved = tuple(e - lv[i] * r for e, r in zip(lv, row))
            assert rs.from_levels(moved, den) == rs.reflect(rs.simple_roots[i], x)

    def test_integer_walk_takes_ints_and_returns_fractions(self):
        rs = build("G2")
        xp, word = rs.dominant_rep((-3, 1))
        assert (xp, word) == reference_walk(rs, (Q(-3), Q(1)))
        assert all(type(c) is Q for c in xp)
