"""Root system construction, Weyl actions, co-weights and lattice chains."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.root_system import RootSystemError, apply_matrix, build
from weylkit.scalars import SQRT2_FIELD, LexPair, NFElem, QuadInt, ScalarDomainError, lex, scalar_mul, sign


class TestBuild:
    @pytest.mark.parametrize(
        "label,count",
        [("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4), ("C2", 4), ("G2", 6), ("F4", 24), ("I2(8)", 8), ("I2(5)", 5)],
    )
    def test_positive_root_counts(self, label, count):
        assert len(build(label).positive_roots) == count

    def test_a2_positive_roots(self):
        assert set(build("A2").positive_roots) == {(Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1))}

    def test_unsupported_label(self):
        with pytest.raises(RootSystemError):
            build("E8")
        with pytest.raises(RootSystemError):
            build("I2(2)")

    def test_i2_8_cartan_in_quartic_field(self):
        rs = build("I2(8)")
        c = rs.cartan[0][1]
        assert isinstance(c, NFElem)
        # -2cos(pi/8) = -sqrt(2+sqrt2), the negated field generator
        assert c == -rs.field.gen()
        assert rs.field.minpoly == (Q(2), Q(0), Q(-4), Q(0), Q(1))
        assert not rs.crystallographic

    @pytest.mark.parametrize("n, same_group", [(3, "A2"), (4, "B2"), (6, "G2")])
    def test_dihedral_forms_of_crystallographic_types(self, n, same_group):
        rs, ref = build(f"I2({n})"), build(same_group)
        assert not rs.crystallographic
        assert rs.weyl_order == len(rs.weyl_group()) == ref.weyl_order == 2 * n
        assert len(rs.positive_roots) == len(ref.positive_roots) == n
        # s_1 s_2 is a rotation of order n, as in the crystallographic form
        for sys_ in (rs, ref):
            rot = sys_.multiply(sys_.simple_reflection(0), sys_.simple_reflection(1))
            powers = [rot]
            while powers[-1] != sys_.identity_element() and len(powers) <= 2 * n:
                powers.append(sys_.multiply(powers[-1], rot))
            assert len(powers) == n

    def test_closure_under_reflections(self):
        for label in ("A2", "B2", "G2", "I2(8)"):
            rs = build(label)
            roots = set(rs.all_roots())
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
        x = tuple(Q(c) for c in rs.fundamental_coweight(1))
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


class TestAffineReflect:
    def test_k_zero_is_linear(self):
        rs = build("G2")
        rng = random.Random(7)
        for _ in range(20):
            x = (Q(rng.randint(-9, 9), 3), Q(rng.randint(-9, 9), 3))
            for alpha in rs.positive_roots:
                assert rs.affine_reflect(alpha, Q(0), x) == rs.reflect(alpha, x)

    def test_a1_translation_to_coroot(self):
        rs = build("A1")
        assert rs.affine_reflect(rs.simple_roots[0], Q(1), (Q(0),)) == (Q(1),)

    def test_involution(self):
        rng = random.Random(11)
        for label in ("A2", "B2", "G2"):
            rs = build(label)
            for _ in range(100):
                x = tuple(Q(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(rs.rank))
                alpha = rs.positive_roots[rng.randrange(len(rs.positive_roots))]
                k = Q(rng.randint(-5, 5), rng.randint(1, 3))
                assert rs.affine_reflect(alpha, k, rs.affine_reflect(alpha, k, x)) == x

    def test_fixed_locus(self):
        rs = build("B2")
        alpha = rs.positive_roots[2]
        k = Q(3, 2)
        # a point on the wall (alpha, x) = k
        nn = rs.norm_sq(alpha)
        x = tuple(c * k / nn for c in alpha)
        assert rs.root_level(x, alpha) == k
        assert rs.affine_reflect(alpha, k, x) == x


class TestOrbitsAndDominance:
    def test_orbit_of_zero(self):
        rs = build("A2")
        assert rs.weyl_orbit(rs.zero_point()) == (rs.zero_point(),)

    def test_regular_orbit_size(self):
        rs = build("A2")
        assert len(rs.weyl_orbit((Q(1), Q(1)))) == 6

    def test_coweight_orbit_size(self):
        rs = build("A2")
        assert len(rs.weyl_orbit(rs.fundamental_coweight(0))) == 3

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
        xp, w = rs.dominant_rep(x)
        assert xp == x and w.word == ()
        assert rs.pairing(x, rs.simple_roots[0]) == 6
        assert rs.pairing(x, rs.simple_roots[1]) == 0

    def test_dominant_rep_postconditions(self):
        # the representative is dominant and w carries x onto it (for -alpha1 the
        # representative is the highest root, reached after two reflections)
        rs = build("A2")
        x = (Q(-1), Q(0))
        xp, w = rs.dominant_rep(x)
        assert xp == (Q(1), Q(1))
        assert w.apply(x) == xp
        assert rs.is_dominant(xp)

    def test_dominant_rep_random(self):
        rng = random.Random(5)
        for label in ("A2", "G2", "F4"):
            rs = build(label)
            for _ in range(25):
                x = tuple(Q(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(rs.rank))
                xp, w = rs.dominant_rep(x)
                assert w.apply(x) == xp
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
_WALK_LABELS = ("A1", "A2", "A3", "B2", "C2", "G2", "F4", "I2(5)", "I2(8)")


class TestDominantWalk:
    """The pairing-coordinate walk against the reflect-and-recompute walk."""

    @staticmethod
    def _check(rs, x):
        want_xp, want_word = reference_walk(rs, x)
        xp, word = rs.dominant_walk(x)
        assert xp == want_xp and word == want_word
        assert rs.is_dominant(xp)
        xp_rep, w = rs.dominant_rep(x)
        assert xp_rep == xp and w.word == word
        assert w.apply(x) == xp

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
    nn = rs.norm_sq(alpha)
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


KERNEL_LABELS = ("A1", "A2", "A3", "B2", "C2", "G2", "F4", "I2(5)", "I2(8)")
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
        for alpha in rs.all_roots():
            assert outcome(rs.pairing, x, alpha) == outcome(reference_pairing, rs, x, alpha)
            assert outcome(rs.root_level, x, alpha) == outcome(reference_root_level, rs, x, alpha)
        for cw in rs.fundamental_coweights():
            assert outcome(rs.bilinear, x, cw) == outcome(reference_bilinear, rs, x, cw)
        group = rs.weyl_group()
        w = group[data.draw(st.integers(0, len(group) - 1))]
        assert outcome(w.apply, x) == outcome(reference_apply, w.matrix, x)
        assert outcome(apply_matrix, rs.gram, x) == outcome(reference_apply, rs.gram, x)

    def test_fallback_keeps_per_term_integrality(self):
        # Z[sqrt 2] takes the per-term loop: 1/2 * 2 is integral, 1/2 * 1 is not
        m = ((Q(1, 2), Q(1, 2)),)
        assert apply_matrix(m, (QuadInt(2, 0, 2), QuadInt(0, 2, 2))) == (QuadInt(1, 1, 2),)
        with pytest.raises(ScalarDomainError):
            apply_matrix(m, (QuadInt(1, 0, 2), QuadInt(1, 0, 2)))


class TestCoweights:
    def test_a1(self):
        rs = build("A1")
        assert rs.fundamental_coweight(0) == (Q(1, 2),)

    def test_a2(self):
        rs = build("A2")
        assert rs.fundamental_coweight(0) == (Q(2, 3), Q(1, 3))

    def test_defining_property_everywhere(self):
        for label in ("A1", "A2", "B2", "C2", "G2", "F4", "I2(8)"):
            rs = build(label)
            for i in range(rs.rank):
                cw = rs.fundamental_coweight(i)
                for j in range(rs.rank):
                    val = rs.bilinear_f(rs.simple_roots[j], cw)
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
        assert not rs.coroot_lattice_member(rs.fundamental_coweight(0))

    def test_non_crystallographic_rejected(self):
        with pytest.raises(RootSystemError):
            build("I2(8)").coroot_lattice_member((Q(0), Q(0)))

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

    def test_g2_normalisation_counterexample(self):
        # with short roots of squared length 2 the long co-root leaves the root
        # lattice; the cross inclusion is a normalisation artifact, not scale-free
        rs = build("G2")
        long_coroot = rs.coroot_of(rs.simple_roots[1])
        assert long_coroot == (Q(0), Q(1, 3))
        assert not rs.root_lattice_member(long_coroot)


def reference_group(rs):
    """The Weyl group BFS on exact F-matrices, keyed on the matrices."""
    ident = rs.identity_element()
    seen = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                cand = rs.multiply(w, rs.simple_reflection(i))
                if cand.matrix not in seen:
                    seen[cand.matrix] = cand
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen.values(), key=lambda w: (len(w.word), w.word))


class TestWeylGroup:
    @pytest.mark.parametrize("label,order", [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("I2(8)", 16)])
    def test_group_order(self, label, order):
        assert len(build(label).weyl_group()) == order

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2", "F4", "I2(5)"])
    def test_same_words_and_matrices_as_the_matrix_bfs(self, label):
        # crystallographic systems search on integer matrices; the order, the
        # first-found words and the Fraction matrices must be those of the
        # search on F-matrices
        rs = build(label)
        got = [(w.word, typed(w.matrix)) for w in rs.weyl_group()]
        assert got == [(w.word, typed(w.matrix)) for w in reference_group(rs)]

    def test_length_equals_inversions_exhaustive(self):
        for label in ("A1", "A2", "B2", "G2"):
            rs = build(label)
            for w in rs.weyl_group():
                assert len(w.word) == rs.length_by_inversions(w)

    def test_length_equals_inversions_f4_sampled(self):
        rs = build("F4")
        group = rs.weyl_group()
        rng = random.Random(1)
        for w in rng.sample(group, 80):
            assert len(w.word) == rs.length_by_inversions(w)

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
