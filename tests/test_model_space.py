"""Metric, hyperplane coordinates, segments and the orbit hull."""

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_root_system import KERNEL_LABELS, POINT_KINDS, draw_point, outcome, reference_apply, reference_pairing

from weylkit import model_space as ms
from weylkit.root_system import build, solve_linear
from weylkit.scalars import QuadInt, compare, lex, scalar_mul, sign, zero_like


def rational_point(rng, rank, span=8, den=3):
    return tuple(Q(rng.randint(-span, span), rng.randint(1, den)) for _ in range(rank))


def lex_point(rng, rank, span=6):
    return tuple(lex(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(rank))


class TestDistance:
    def test_zero_iff_equal(self):
        rs = build("A2")
        x = (Q(2), Q(-1))
        assert ms.distance(rs, x, x) == 0

    def test_a1_scaling(self):
        rs = build("A1")
        for c in (Q(0), Q(1, 2), Q(3), Q(7, 5)):
            assert ms.distance(rs, (Q(0),), (c,)) == 2 * c

    def test_a2_hexagon_corner(self):
        rs = build("A2")
        assert ms.distance(rs, rs.zero_point(), (Q(3), Q(3))) == 12

    def test_metric_axioms_sampled(self):
        rng = random.Random(23)
        for label in ("A2", "G2"):
            rs = build(label)
            for _ in range(150):
                x, y, z = (rational_point(rng, rs.rank) for _ in range(3))
                dxy = ms.distance(rs, x, y)
                assert compare(dxy, ms.distance(rs, y, x)) == 0
                assert sign(dxy) >= 0
                assert (sign(dxy) == 0) == (x == y)
                assert compare(ms.distance(rs, x, z) + ms.distance(rs, z, y), dxy) >= 0

    def test_lex_points(self):
        rs = build("A2")
        rng = random.Random(29)
        for _ in range(50):
            x, y = lex_point(rng, 2), lex_point(rng, 2)
            d = ms.distance(rs, x, y)
            assert compare(d, ms.distance(rs, y, x)) == 0
            assert sign(d) >= 0

    def test_affine_weyl_invariance(self):
        rng = random.Random(31)
        for label in ("A2", "G2"):
            rs = build(label)
            group = rs.weyl_group()
            for _ in range(60):
                x, y, t = (rational_point(rng, rs.rank) for _ in range(3))
                w = group[rng.randrange(len(group))]
                wx = tuple(a + b for a, b in zip(w.apply(x), t))
                wy = tuple(a + b for a, b in zip(w.apply(y), t))
                assert compare(ms.distance(rs, wx, wy), ms.distance(rs, x, y)) == 0


class TestHyperplaneCoords:
    def test_zero(self):
        rs = build("A2")
        assert ms.hyperplane_coords(rs, rs.zero_point()) == (Q(0), Q(0))

    def test_alpha1(self):
        rs = build("A2")
        assert ms.hyperplane_coords(rs, (Q(1), Q(0))) == (Q(1), Q(-1, 2))

    def test_round_trip(self):
        rng = random.Random(37)
        for label in ("A2", "B2", "G2", "F4"):
            rs = build(label)
            for _ in range(100):
                x = rational_point(rng, rs.rank)
                coords = ms.hyperplane_coords(rs, x)
                assert ms.point_from_hyperplane_coords(rs, coords) == x

    def test_round_trip_lex(self):
        rs = build("A2")
        rng = random.Random(38)
        for _ in range(40):
            x = lex_point(rng, 2)
            coords = ms.hyperplane_coords(rs, x)
            assert ms.point_from_hyperplane_coords(rs, coords) == x


class TestDistanceViaCoords:
    def test_zero(self):
        rs = build("A2")
        assert ms.distance_origin_via_coords(rs, rs.zero_point()) == 0

    def test_hexagon_corner(self):
        rs = build("A2")
        x = (Q(3), Q(3))
        assert ms.distance_origin_via_coords(rs, x) == 12
        assert ms.distance_origin_via_coords(rs, x) == ms.distance(rs, rs.zero_point(), x)

    def test_agreement_random(self):
        rng = random.Random(41)
        for label in ("A2", "G2"):
            rs = build(label)
            for _ in range(200):
                x = rational_point(rng, rs.rank)
                lhs = ms.distance_origin_via_coords(rs, x)
                rhs = ms.distance(rs, rs.zero_point(), x)
                assert compare(lhs, rhs) == 0


def reference_distance(rs, x, y):
    diff = tuple(b - a for a, b in zip(x, y))
    acc = zero_like(diff[0])
    for alpha in rs.positive_roots:
        acc = acc + abs(reference_pairing(rs, diff, alpha))
    return acc


def reference_hyperplane_coords(rs, x):
    return tuple(scalar_mul(Q(1, 2), reference_pairing(rs, x, a)) for a in rs.simple_roots)


def reference_point_from_coords(rs, coords):
    rhs = [[rs._f(1 if i == j else 0) for i in range(rs.rank)] for j in range(rs.rank)]
    cols = solve_linear(rs.cartan, rhs)
    cinv = tuple(tuple(cols[i][j] for i in range(rs.rank)) for j in range(rs.rank))
    return reference_apply(cinv, tuple(scalar_mul(Q(2), c) for c in coords))


def reference_distance_via_coords(rs, x):
    coords = reference_hyperplane_coords(rs, x)
    acc = zero_like(coords[0])
    for alpha in rs.positive_roots:
        nn = rs.norm_sq(alpha)
        weights = tuple(alpha[b] * rs.gram[b][b] * 2 / nn for b in range(rs.rank))
        acc = acc + abs(reference_apply((weights,), coords)[0])
    return acc


class TestLinearFormKernel:
    """Metric and coordinates from the integer kernel against the per-term loop."""

    @pytest.mark.parametrize("label", KERNEL_LABELS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_metric_and_coordinates_match(self, label, data):
        rs = build(label)
        kind = data.draw(st.sampled_from(POINT_KINDS))
        x, y = draw_point(data, rs, kind), draw_point(data, rs, kind)
        assert outcome(ms.distance, rs, x, y) == outcome(reference_distance, rs, x, y)
        assert outcome(ms.hyperplane_coords, rs, x) == outcome(reference_hyperplane_coords, rs, x)
        # x read as heights, so that every domain reaches the inverse map
        assert outcome(ms.point_from_hyperplane_coords, rs, x) == outcome(reference_point_from_coords, rs, x)
        assert outcome(ms.distance_origin_via_coords, rs, x) == outcome(reference_distance_via_coords, rs, x)

    def test_heights_halve_the_sum(self):
        # A3 over Z[sqrt 2]: <x, alpha_2^> = -2 for x = (1, 0, 1), so its height
        # is -1, although the per-term halves -1/2 * 1 leave Z[sqrt 2]
        rs = build("A3")
        x = (QuadInt(1, 0, 2), QuadInt(0, 0, 2), QuadInt(1, 0, 2))
        assert ms.hyperplane_coords(rs, x)[1] == QuadInt(-1, 0, 2)
        assert ms.hyperplane_coords(rs, x) == reference_hyperplane_coords(rs, x)


class TestSegment:
    def test_endpoints_are_members(self):
        rs = build("A2")
        x, y = (Q(1), Q(0)), (Q(2), Q(3))
        assert ms.segment_contains(rs, x, y, x)
        assert ms.segment_contains(rs, x, y, y)

    def test_a1_lattice_points(self):
        rs = build("A1")
        assert ms.segment_lattice_points(rs, (Q(0),), (Q(2),)) == ((Q(0),), (Q(1),), (Q(2),))

    def test_a2_brute_force_cross_check(self):
        rs = build("A2")
        x, y = rs.zero_point(), (Q(3), Q(3))
        got = ms.segment_lattice_points(rs, x, y)
        brute = []
        for a, b in itertools.product(range(-4, 5), repeat=2):
            z = (Q(a), Q(b))
            if ms.segment_contains(rs, x, y, z):
                brute.append(z)
        assert got == tuple(sorted(brute))
        assert (Q(1), Q(1)) in got  # interior additivity example

    def test_equivariance(self):
        rs = build("B2")
        rng = random.Random(43)
        group = rs.weyl_group()
        for _ in range(40):
            x, y, z, t = (rational_point(rng, 2, 4) for _ in range(4))
            w = group[rng.randrange(len(group))]

            def move(p):
                return tuple(a + b for a, b in zip(w.apply(p), t))

            assert ms.segment_contains(rs, x, y, z) == ms.segment_contains(
                rs, move(x), move(y), move(z)
            )


class TestHull:
    def test_self_membership(self):
        rs = build("A2")
        x = (Q(3), Q(3))
        assert ms.in_AQ(rs, x, ms.HullQuery(x))

    def test_worked_counterexample_excluded(self):
        rs = build("A2")
        assert not ms.in_AQ(rs, (Q(4), Q(2)), ms.HullQuery((Q(3), Q(3))))

    def test_interior_member(self):
        rs = build("A2")
        assert ms.in_AQ(rs, (Q(2), Q(2)), ms.HullQuery((Q(3), Q(3))))

    def test_coset_filter(self):
        rs = build("A1")
        # x + half a co-root is dominated but lies in the wrong coset
        assert not ms.in_AQ(rs, (Q(1, 2),), ms.HullQuery((Q(2),)))

    def test_x_plus_computed_once_per_query(self, monkeypatch):
        rs = build("A2")
        x = (Q(0), Q(3))  # s_1 of (3, 3)
        walks = []
        real = type(rs).dominant_walk
        monkeypatch.setattr(type(rs), "dominant_walk", lambda self, p: walks.append(p) or real(self, p))
        points = ms.enumerate_AQ(rs, x)
        assert len(walks) == len(ms.hull_candidates(rs, x)) + 1
        assert points == ms.enumerate_AQ(rs, (Q(3), Q(3)))
        # the memo takes no part in equality or hashing
        q = ms.HullQuery(x)
        assert q.x_plus(rs) == (Q(3), Q(3))
        assert q == ms.HullQuery(x) and hash(q) == hash(ms.HullQuery(x))

    def test_enumerate_zero(self):
        rs = build("A2")
        assert ms.enumerate_AQ(rs, rs.zero_point()) == (rs.zero_point(),)

    def test_enumerate_a1(self):
        rs = build("A1")
        got = ms.enumerate_AQ(rs, (Q(2),))
        assert got == tuple((Q(k),) for k in range(-2, 3))

    def test_enumerate_a2_counts(self):
        rs = build("A2")
        assert len(ms.enumerate_AQ(rs, (Q(1), Q(1)))) == 7
        assert len(ms.enumerate_AQ(rs, (Q(2), Q(2)))) == 19
        assert len(ms.enumerate_AQ(rs, (Q(3), Q(3)))) == 37

    def test_enumerate_g2_counts(self):
        rs = build("G2")
        assert len(ms.enumerate_AQ(rs, (Q(2), Q(1)))) == 13
        assert len(ms.enumerate_AQ(rs, (Q(1), Q(2, 3)))) == 7

    def test_orbit_invariance(self):
        rs = build("A2")
        x = (Q(2), Q(2))
        aq = set(ms.enumerate_AQ(rs, x))
        for p in rs.weyl_orbit(x):
            assert p in aq

    def test_cap_is_checked_before_the_box_is_built(self):
        rs = build("A2")
        x = (Q(3), Q(3))  # 49 candidates in the box, 37 in the hull
        with pytest.raises(ms.CapExceeded, match=r"exceeded 10 candidates \(49 in the box\)"):
            ms.enumerate_AQ(rs, x, cap=10)
        assert len(ms.hull_candidates(rs, x, cap=49)) == 49
        assert len(ms.enumerate_AQ(rs, x, cap=49)) == 37


class TestNonCrystallographicHull:
    def test_dominance_reading_over_the_octagon_field(self):
        # with every translation allowed, membership is pure dominance; the
        # coordinates live in the quartic field of the dihedral octagon
        rs = build("I2(8)")
        one = rs.field.one()
        x = (one * 2, one * 2)
        q = ms.HullQuery(x, lattice="all")
        assert ms.in_AQ(rs, x, q)
        assert ms.in_AQ(rs, (one, one), q)
        zeta = rs.field.gen()
        assert ms.in_AQ(rs, (zeta, zeta), q)  # 1 < zeta < 2 keeps dominance
        assert not ms.in_AQ(rs, (one * 3, one * 2), q)
        for p in rs.weyl_orbit(x):
            assert ms.in_AQ(rs, p, q)

    def test_enumeration_needs_a_lattice(self):
        rs = build("I2(8)")
        one = rs.field.one()
        with pytest.raises(ms.ModelSpaceError):
            ms.enumerate_AQ(rs, (one, one))


class TestGalleryDistance:
    def test_reflexive_convention(self):
        rs = build("A2")
        assert ms.gallery_distance(rs, rs.zero_point(), rs.zero_point()) == 1

    def test_worked_chamber_counts(self):
        rs = build("A2")
        assert ms.gallery_distance(rs, rs.zero_point(), (Q(3), Q(3))) == 10
        assert ms.gallery_distance(rs, rs.zero_point(), (Q(4), Q(2))) == 11

    def test_non_vertex_rejected(self):
        rs = build("A2")
        with pytest.raises(ms.ModelSpaceError):
            ms.gallery_distance(rs, rs.zero_point(), (Q(1, 2), Q(0)))

    def test_translation_invariance(self):
        rs = build("A2")
        rng = random.Random(47)
        for _ in range(30):
            x = (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
            y = (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
            t = (Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2)))
            moved = ms.gallery_distance(
                rs, tuple(a + b for a, b in zip(x, t)), tuple(a + b for a, b in zip(y, t))
            )
            assert moved == ms.gallery_distance(rs, x, y)


class TestDualHull:
    def test_members_pass(self):
        rs = build("A2")
        orbit = rs.weyl_orbit((Q(3), Q(3)))
        for p in orbit:
            assert ms.dual_hull_oracle(rs, orbit, p)

    def test_worked_counterexample_excluded(self):
        rs = build("A2")
        orbit = rs.weyl_orbit((Q(3), Q(3)))
        assert not ms.dual_hull_oracle(rs, orbit, (Q(4), Q(2)))

    def test_matches_dominance_modulo_lattice(self):
        for label, x in (("A2", (Q(3), Q(3))), ("G2", (Q(2), Q(1)))):
            rs = build(label)
            orbit = rs.weyl_orbit(x)
            q = ms.HullQuery(x)
            for z in ms.hull_candidates(rs, x):
                dual = ms.dual_hull_oracle(rs, orbit, z)
                dom = ms.in_AQ(rs, z, q)
                assert dom == (dual and rs.coroot_coset_member(x, z))

    def test_reading_disagreement_is_reported(self):
        # the two quantifier readings genuinely differ on the A2 hull of 3*theta:
        # the box corner (3, -3) satisfies the simple-direction constraints only
        rs = build("A2")
        x = (Q(3), Q(3))
        orbit = rs.weyl_orbit(x)
        dis = ms.dual_reading_disagreements(rs, orbit, ms.hull_candidates(rs, x))
        assert ((Q(3), Q(-3)), True, False) in dis
        for _, narrow, closed in dis:
            assert narrow and not closed

    def test_readings_agree_in_rank_one(self):
        rs = build("A1")
        orbit = rs.weyl_orbit((Q(2),))
        assert not ms.dual_reading_disagreements(rs, orbit, ms.hull_candidates(rs, (Q(2),)))


class TestDualHyperplaneType:
    def test_locus_and_sides(self):
        rs = build("A2")
        h = ms.dual_hyperplane_through(rs, 0, (Q(3), Q(3)))
        assert h.k == Q(3)
        assert h.contains(rs, (Q(3), Q(3)))
        assert h.contains(rs, (Q(3), Q(0)))  # moving along alpha2 keeps (., cw1)
        assert h.side(rs, (Q(4), Q(2))) > 0
        assert h.side(rs, rs.zero_point()) < 0

    def test_wrong_system_rejected(self):
        rs, other = build("A2"), build("B2")
        h = ms.dual_hyperplane_through(rs, 0, (Q(1), Q(0)))
        with pytest.raises(ms.ModelSpaceError):
            h.contains(other, (Q(1), Q(0)))


class TestTripleCharacterization:
    @pytest.mark.parametrize(
        "label,x",
        [("A2", (Q(1), Q(1))), ("A2", (Q(2), Q(2))), ("G2", (Q(1), Q(2, 3)))],
    )
    def test_exhaustive_agreement(self, label, x):
        rep = ms.aq_triple_characterizations(build(label), x)
        assert rep["agree"]
        members = [r["point"] for r in rep["rows"] if r["dominance"]]
        assert tuple(sorted(members)) == ms.enumerate_AQ(build(label), x)
