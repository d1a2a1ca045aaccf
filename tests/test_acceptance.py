"""The acceptance gate: one exact check per criterion, one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
Every assertion is exact (there is no numeric tolerance anywhere in the
package); the only budgets are the stated wall-clock limits.
"""

import itertools
import random
import time
from fractions import Fraction as Q

from weylkit import lambda_tree as lt
from weylkit import model_space as ms
from weylkit import path_model as pm
from weylkit import twisted_algebra as tw
from weylkit.root_system import build
from weylkit.scalars import QuadInt, compare, lex, sign, zero_like

A2_POINTS = [(Q(1), Q(1)), (Q(2), Q(2)), (Q(3), Q(3))]
G2_POINT = (Q(2), Q(1))
INSTANCES = [("A2", x) for x in A2_POINTS] + [("G2", G2_POINT)]


def _passed(num: int, desc: str, t0: float | None = None, budget: float | None = None):
    note = ""
    if t0 is not None:
        elapsed = time.perf_counter() - t0
        note = f"  [{elapsed:.2f}s"
        if budget is not None:
            assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
            note += f" < {budget:.0f}s ({(budget - elapsed) / budget:.0%} headroom)"
        note += "]"
    print(f"\n[PASS] criterion {num:2d}: {desc}{note}")


def test_criterion_01_gallery_distance_worked_values():
    t0 = time.perf_counter()
    rs = build("A2")
    assert ms.gallery_distance(rs, rs.zero_point(), (Q(3), Q(3))) == 10
    assert ms.gallery_distance(rs, rs.zero_point(), (Q(4), Q(2))) == 11
    _passed(1, "chamber distances delta(0,3a1+3a2)=10 and delta(0,4a1+2a2)=11 in A2", t0, 1.0)


def test_criterion_02_convexity_at_desk_scale():
    for label, x in INSTANCES:
        t0 = time.perf_counter()
        rs = build(label)
        w0 = rs.longest_element()
        _, endpoints = pm.positive_fold_closure(rs, pm.straight_path_to(w0.apply(x)))
        hull = ms.enumerate_AQ(rs, x)
        assert endpoints == hull, (label, x)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
    _passed(
        2,
        "fold closure of the extreme path = orbit-hull lattice points "
        "(A2: 7/19/37 points, G2: 13 points), each instance < 120 s",
    )


def test_criterion_03_gallery_and_path_oracles_agree():
    t0 = time.perf_counter()
    for label, x in INSTANCES:
        rs = build(label)
        gallery = pm.minimal_gallery(rs, x)
        assert len(gallery) <= 12
        g_endpoints = pm.folded_gallery_endpoints(rs, gallery)
        w0 = rs.longest_element()
        _, p_endpoints = pm.positive_fold_closure(rs, pm.straight_path_to(w0.apply(x)))
        assert g_endpoints == p_endpoints, (label, x)
    _passed(3, "positively folded walks and path closures give identical endpoint sets", t0)


def test_criterion_04_descent_folding_is_complete():
    t0 = time.perf_counter()
    for label, x in INSTANCES:
        rs = build(label)
        w0x = tuple(rs.longest_element().apply(x))
        for y in ms.enumerate_AQ(rs, x):
            ys, _ = pm.parkinson_ram_chain(rs, x, y)
            assert ys[-1] == w0x
            assert pm.parkinson_ram_fold(rs, x, y).endpoint() == y
    _passed(4, "greedy descent ends at w0.x and unfolds to every hull point", t0)


def test_criterion_05_root_operator_endpoint_law():
    t0 = time.perf_counter()
    checked = 0
    for label in ("A1", "A2", "G2"):
        rs = build(label)
        rng = random.Random(20240800 + rs.rank)
        coroots = [tuple(Q(c) for c in rs.coroot_of(a)) for a in rs.simple_roots]
        produced = 0
        while produced < 500:
            steps = []
            for _ in range(rng.randint(1, 5)):
                v = rs.zero_point()
                for cr in coroots:
                    k = rng.randint(-2, 2)
                    v = tuple(a + k * b for a, b in zip(v, cr))
                steps.append(v)
            path = pm.path_from_steps(steps)
            if not path.steps:
                continue
            produced += 1
            for i in range(rs.rank):
                lifted = pm.root_operator_e(rs, path, i)
                if lifted is None:
                    continue
                checked += 1
                want = tuple(a + b for a, b in zip(path.endpoint(), coroots[i]))
                assert lifted.endpoint() == want
    assert checked > 1000
    _passed(5, f"raising operator shifts endpoints by exactly 2a/(a,a) ({checked} applications)", t0)


def test_criterion_06_metric_axioms_and_invariance():
    t0 = time.perf_counter()
    n = 10_000
    for label in ("A1", "A2", "G2"):
        rs = build(label)
        group = rs.weyl_group()
        for lam in ("Q", "Z2lex"):
            rng = random.Random(hash((label, lam)) % (2**31))

            def rand_point():
                if lam == "Q":
                    return tuple(
                        Q(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(rs.rank)
                    )
                return tuple(
                    lex(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rs.rank)
                )

            origin = tuple(zero_like(c) for c in rand_point())
            for _ in range(n):
                x, y, z = rand_point(), rand_point(), rand_point()
                dxy = ms.distance(rs, x, y)
                assert compare(dxy, ms.distance(rs, y, x)) == 0
                assert sign(dxy) >= 0 and (sign(dxy) == 0) == (x == y)
                assert (
                    compare(ms.distance(rs, x, z) + ms.distance(rs, z, y), dxy) >= 0
                )
                w = group[rng.randrange(len(group))]
                t = rand_point()
                wx = tuple(a + b for a, b in zip(w.apply(x), t))
                wy = tuple(a + b for a, b in zip(w.apply(y), t))
                assert compare(ms.distance(rs, wx, wy), dxy) == 0
                lhs = ms.distance_origin_via_coords(rs, x)
                assert compare(lhs, ms.distance(rs, origin, x)) == 0
    _passed(
        6,
        "metric axioms, affine invariance and the two distance formulas agree on "
        "10^4 seeded triples per system per coefficient group",
        t0,
    )


def test_criterion_07_triple_characterization():
    t0 = time.perf_counter()
    for label, x in INSTANCES:
        rep = ms.aq_triple_characterizations(build(label), x)
        assert rep["agree"], (label, x)
    _passed(
        7,
        "dominance, Weyl-intersection and dual-oracle memberships agree on every "
        "bounding-box point of the desk instances",
        t0,
    )


def test_criterion_08_tree_round_trip():
    t0 = time.perf_counter()
    for seed in range(50):
        for lam in ("Z", "Z2lex"):
            n_ends = 4 + (seed % 5)
            _, pv = lt.tree_generator(seed, n_ends, lam)
            assert lt.check_pv(pv).ok, (seed, lam)
            assert lt.roundtrip_check(pv, lt.datum_from_valuation(pv, pv.ends[:3])).ok, (seed, lam)
            for quad in itertools.permutations(pv.ends, 4):
                lt.three_point_case(pv, *quad)
    _passed(
        8,
        "100 random finite trees (4-8 ends, both coefficient groups) pass the "
        "axiom check and the exact round trip; the trichotomy holds on every quadruple",
        t0,
        60.0,
    )


def test_criterion_09_base_change_distance_law():
    t0 = time.perf_counter()
    rng = random.Random(909)
    pairs = 0
    while pairs < 1000:
        _, pv = lt.tree_generator(rng.randint(0, 10**6), 4 + rng.randint(0, 3), "Z2lex")
        datum = lt.datum_from_valuation(pv, pv.ends[:3])
        projected = lt.base_change(datum, lt.lex_first_projection)
        for _ in range(50):
            p = lt.canonical_point(
                datum, rng.choice(datum.ends), lex(rng.randint(0, 2), rng.randint(0, 6))
            )
            q = lt.canonical_point(
                datum, rng.choice(datum.ends), lex(rng.randint(0, 2), rng.randint(0, 6))
            )
            want = lt.lex_first_projection(lt.tree_distance(datum, p, q))
            img_p = lt.map_point(datum, projected, lt.lex_first_projection, p)
            img_q = lt.map_point(datum, projected, lt.lex_first_projection, q)
            assert compare(lt.tree_distance(projected, img_p, img_q), want) == 0
            pairs += 1
    _passed(9, f"leading-entry base change satisfies d' = e(d) on {pairs} sampled pairs", t0)


def test_criterion_10_twisted_valuation_identities():
    t0 = time.perf_counter()
    rng = random.Random(1010)
    # closed-form minimum on 10^4 samples, engineered ties included
    for i in range(5000):
        g = tw.random_K(rng)
        assert compare(tw.phi_K(g), tw.nu_R_closed(g.s, g.t)) == 0
        h = tw.random_T(rng)
        assert compare(tw.phi_T(h), tw.nu_N_closed(h.r, h.s, h.t)) == 0
        if i % 2 == 0:
            nut = QuadInt(rng.randint(-2, 2), rng.randint(-2, 2), 2)
            s = tw.laurent(2, {nut * QuadInt(1, 1, 2): 1})
            t = tw.laurent(2, {nut: 1})
            assert compare(tw.phi_K(tw.GroupKElem(s, t)), tw.nu_R_closed(s, t)) == 0
            base = QuadInt(rng.randint(-1, 1), rng.randint(-1, 1), 3)
            r3 = tw.laurent(3, {base: rng.randint(1, 2)})
            s3 = tw.laurent(3, {base * QuadInt(1, 1, 3): rng.randint(1, 2)})
            t3 = tw.laurent(3, {base * QuadInt(2, 1, 3): rng.randint(1, 2)})
            assert compare(tw.phi_T(tw.GroupTElem(r3, s3, t3)), tw.nu_N_closed(r3, s3, t3)) == 0
    # product inequalities
    for _ in range(2000):
        g, h = tw.random_K(rng), tw.random_K(rng)
        floor_k = tw.phi_K(g) if compare(tw.phi_K(g), tw.phi_K(h)) <= 0 else tw.phi_K(h)
        assert compare(tw.phi_K(tw.mul_K(g, h)), floor_k) >= 0
        a, b = tw.random_T(rng), tw.random_T(rng)
        floor_t = tw.phi_T(a) if compare(tw.phi_T(a), tw.phi_T(b)) <= 0 else tw.phi_T(b)
        assert compare(tw.phi_T(tw.mul_T(a, b)), floor_t) >= 0
    # theta invariance
    for _ in range(2000):
        for p in (2, 3):
            x = tw.random_laurent(rng, p)
            if not x.is_zero():
                assert compare(tw.theta(x).nu(), x.nu().times_sqrt_p()) == 0
    # threshold subgroups at three thresholds
    for k in (QuadInt(-2, 0, 2), QuadInt(0, 0, 2), QuadInt(1, 1, 2)):
        assert tw.check_V1("B", k, samples=120, seed=10).ok
    assert tw.check_V1("G", QuadInt(1, 0, 3), samples=120, seed=10).ok
    # conjugation scaling on 500 monomial-norm parameters
    for _ in range(500):
        if rng.random() < 0.5:
            param = tw.GroupKElem(tw.monomial(2, rng.randint(-2, 2), rng.randint(-1, 1)), tw.laurent_zero(2))
        else:
            param = tw.GroupKElem(tw.laurent_zero(2), tw.monomial(2, rng.randint(-2, 2), rng.randint(-1, 1)))
        r_nu = tw.nu(tw.norm_R(param.s, param.t))
        g, h = tw.random_K(rng), tw.random_K(rng)
        assert tw.mul_K(tw.scaling_K(param, g), tw.scaling_K(param, h)) == tw.scaling_K(
            param, tw.mul_K(g, h)
        )
        if not (g.s.is_zero() and g.t.is_zero()):
            assert compare(tw.phi_K(tw.scaling_K(param, g)), tw.phi_K(g) + r_nu + r_nu) == 0
    _passed(
        10,
        "closed-form minima (ties included), product inequalities, theta scaling, "
        "three threshold subgroups and the conjugation shift 2 nu(R)",
        t0,
        60.0,
    )


def test_criterion_11_anisotropy_sampling():
    t0 = time.perf_counter()
    rng = random.Random(1111)
    for _ in range(10_000):
        g = tw.random_K(rng)
        if not (g.s.is_zero() and g.t.is_zero()):
            assert not tw.norm_R(g.s, g.t).is_zero()
        h = tw.random_T(rng)
        if not (h.r.is_zero() and h.s.is_zero() and h.t.is_zero()):
            assert not tw.norm_N(h.r, h.s, h.t).is_zero()
    _passed(11, "no nonzero sample of either norm vanishes across 10^4 draws", t0)
