"""Twisted Laurent arithmetic, parameter groups, norms and valuation identities."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.scalars import INF, Infinity, QuadInt, ScalarDomainError, compare
from weylkit.twisted_algebra import (
    GroupKElem,
    GroupTElem,
    TwistedAlgebraError,
    check_V1,
    format_laurent,
    format_nu,
    identity_K,
    identity_T,
    inv_K,
    inv_T,
    laurent,
    laurent_one,
    laurent_zero,
    monomial,
    mul_K,
    mul_T,
    norm_N,
    norm_R,
    nu,
    nu_N_closed,
    nu_R_closed,
    odd_root_valuation,
    parse_laurent,
    phi_K,
    phi_T,
    poly2,
    random_K,
    random_T,
    scaling_K,
    scaling_T,
    theta,
    valuation_2var,
)


X2 = monomial(2, 1)
X3 = monomial(3, 1)


def exponents(p):
    return st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda ab: QuadInt(ab[0], ab[1], p))


def laurents(p):
    return st.dictionaries(exponents(p), st.integers(1, p - 1), max_size=3).map(
        lambda d: laurent(p, d)
    )


def _reference(p, pairs):
    """The canonical terms of a sum of (exponent, coefficient) pairs: a dict mod p, then sorted."""
    acc = {}
    for e, c in pairs:
        acc[e] = (acc.get(e, 0) + c) % p
    return tuple(sorted(((e, c) for e, c in acc.items() if c), key=lambda t: t[0]))


def _ref_mul(p, xs, ys):
    return _reference(p, [(e + f, c * d) for e, c in xs for f, d in ys])


def _assert_canonical(x):
    for (e, _), (f, _) in zip(x.terms, x.terms[1:]):
        assert compare(e, f) < 0
    assert all(1 <= c <= x.p - 1 for _, c in x.terms)


@st.composite
def laurent_pairs(draw, p):
    """Two elements; in some pairs y repeats exponents of x so that x + y or x - y cancels them mod p."""
    x, y = draw(laurents(p)), draw(laurents(p))
    shared = draw(st.sampled_from(("none", "negated", "same", "monomial")))
    if shared == "negated":  # x + y loses the shared terms, and its lowest ones first
        y = laurent(p, {**dict(y.terms), **{e: p - c for e, c in x.terms}})
    elif shared == "same":  # x - y loses them
        y = laurent(p, {**dict(y.terms), **dict(x.terms)})
    elif shared == "monomial":
        y = laurent(p, dict(y.terms[:1]))
    return x, y


class TestCanonicalOrder:
    """Every operation against a reference built by dict accumulation mod p and a sort."""

    @pytest.mark.parametrize("p", [2, 3])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_operations_match_the_reference(self, p, data):
        x, y = data.draw(laurent_pairs(p))
        n = data.draw(st.integers(0, 4))
        power = [(QuadInt(0, 0, p), 1)]
        for _ in range(n):
            power = _ref_mul(p, power, x.terms)
        want = {
            "x + y": (x + y, _reference(p, x.terms + y.terms)),
            "x - y": (x - y, _reference(p, x.terms + tuple((e, -c) for e, c in y.terms))),
            "-x": (-x, _reference(p, [(e, -c) for e, c in x.terms])),
            "theta x": (theta(x), _reference(p, [(e.times_sqrt_p(), c) for e, c in x.terms])),
            "x * y": (x * y, _ref_mul(p, x.terms, y.terms)),
            "y * x": (y * x, _ref_mul(p, y.terms, x.terms)),
            "x ** n": (x**n, _reference(p, power)),
        }
        for name, (got, terms) in want.items():
            _assert_canonical(got)
            assert got.terms == terms, name

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("e, f", [((0, 0), (1, 0)), ((1, -1), (0, 1)), ((-2, 1), (-3, 2)), ((2, 0), (0, 1))])
    def test_cancelling_terms(self, p, e, f):
        xe, xf = QuadInt(*e, p), QuadInt(*f, p)
        # (x^e + x^f)(x^e + (p-1)x^f): the cross terms x^(e+f) cancel mod p
        prod = laurent(p, {xe: 1, xf: 1}) * laurent(p, {xe: 1, xf: p - 1})
        assert prod.terms == _reference(p, [(xe + xe, 1), (xf + xf, p - 1)])
        _assert_canonical(prod)
        # x^e + (p-1)x^e is zero, whichever of the two is the lower term
        assert (monomial(p, *e) + monomial(p, *e, coeff=p - 1)).is_zero()
        low, high = sorted([xe, xf])
        lone = laurent(p, {low: 1, high: 1}) + laurent(p, {low: p - 1})
        assert lone.terms == ((high, 1),)
        assert (laurent(p, {low: 1, high: 1}) - laurent(p, {high: 1})).terms == ((low, 1),)

    def test_only_a_product_of_two_longer_elements_sorts(self, monkeypatch):
        from weylkit import twisted_algebra as tw

        p = 3
        m, x, y = monomial(p, 1, -1, 2), parse_laurent("x^{1r}+2x^{-1}", p), parse_laurent("x^1+x^{-1r}+1", p)
        want = parse_laurent("2x^{-1-1r}+2x^{-1}+x^{1r}+x^{1+1r}", p)
        keys = []
        exponent = tw._exponent
        monkeypatch.setattr(tw, "_exponent", lambda term: keys.append(term) or exponent(term))
        for got in (m * x, x * m, m * y, y * m, m * m, x + y, x - y, -x, theta(y)):
            _assert_canonical(got)
        assert keys == []  # a monomial factor on either side shifts the exponents in order
        assert x * y == want  # six pairs; the two at x^0 (coefficients 2 and 1) cancel mod 3
        assert len(keys) == 4  # one sort key per surviving term

    def test_zero_and_unit_factors(self):
        for p in (2, 3):
            x = parse_laurent("x^{1r}+2x^{-1}" if p == 3 else "x^{1r}+x^{-1}", p)
            assert (x * laurent_zero(p)).is_zero() and (laurent_zero(p) * x).is_zero()
            assert x * laurent_one(p) == x == laurent_one(p) * x
            assert (x - x).is_zero() and x + laurent_zero(p) == x == laurent_zero(p) + x

    def test_exponents_over_another_ring_are_refused(self):
        # the arithmetic reads exponents as (a, b) over the element's p, so they are checked on entry
        with pytest.raises(ScalarDomainError, match="sqrt 3"):
            laurent(3, {QuadInt(1, 0, 2): 1})
        with pytest.raises(ScalarDomainError, match="sqrt 2"):
            laurent(2, {QuadInt(0, 0, 2): 1, QuadInt(1, 1, 3): 1})
        with pytest.raises(ScalarDomainError):
            laurent(2, {1: 1})


class TestTheta:
    def test_fixes_one(self):
        for p in (2, 3):
            assert theta(laurent_one(p)) == laurent_one(p)

    def test_exponent_map(self):
        x = parse_laurent("x^1+x^2", 2)
        assert theta(x) == parse_laurent("x^{1r}+x^{2r}", 2)

    def test_value_scaling(self):
        assert format_nu(nu(X2)) == "1" and format_nu(nu(theta(X2))) == "1r"

    def test_square_is_frobenius(self):
        rng = random.Random(1)
        for p in (2, 3):
            for _ in range(100):
                x = random_K(rng).s if p == 2 else random_T(rng).r
                assert theta(theta(x)) == x**p

    @given(laurents(2), laurents(2))
    @settings(max_examples=150, deadline=None)
    def test_valuation_axioms_char2(self, x, y):
        _assert_valuation_axioms(x, y)

    @given(laurents(3), laurents(3))
    @settings(max_examples=150, deadline=None)
    def test_valuation_axioms_char3(self, x, y):
        _assert_valuation_axioms(x, y)


def _assert_valuation_axioms(x, y):
    prod = x * y
    if x.is_zero() or y.is_zero():
        assert prod.is_zero()
    else:
        assert compare(nu(prod), nu(x) + nu(y)) == 0
    s = x + y
    lo = nu(x) if compare(nu(x), nu(y)) <= 0 else nu(y)
    assert compare(nu(s), lo) >= 0
    if compare(nu(x), nu(y)) != 0:
        assert compare(nu(s), lo) == 0
    if not x.is_zero():
        assert compare(nu(theta(x)), nu(x).times_sqrt_p()) == 0


class TestNorms:
    def test_norm_r_examples(self):
        one, zero = laurent_one(2), laurent_zero(2)
        assert norm_R(one, zero) == one
        assert norm_R(X2, X2) == parse_laurent("x^{1r}+x^2+x^{2+1r}", 2)
        assert format_nu(nu(norm_R(X2, X2))) == "1r"
        assert norm_R(zero, X2) == parse_laurent("x^{2+1r}", 2)

    def test_norm_n_examples(self):
        one, zero = laurent_one(3), laurent_zero(3)
        assert norm_N(zero, zero, one) == one
        assert norm_N(X3, zero, zero) == parse_laurent("2x^{4+2r}", 3)
        assert format_nu(nu(norm_N(X3, zero, zero))) == "4+2r"
        assert norm_N(zero, X3, zero) == parse_laurent("x^{1+1r}", 3)

    def test_vanish_only_at_identity_sampled(self):
        rng = random.Random(2)
        for _ in range(2000):
            g = random_K(rng)
            if not (g.s.is_zero() and g.t.is_zero()):
                assert not norm_R(g.s, g.t).is_zero()
            h = random_T(rng)
            if not (h.r.is_zero() and h.s.is_zero() and h.t.is_zero()):
                assert not norm_N(h.r, h.s, h.t).is_zero()

    def test_anisotropy_on_monomial_grid(self):
        grid = range(-2, 3)
        for a, b in itertools.product(grid, grid):
            s, t = monomial(2, a), monomial(2, b)
            assert not norm_R(s, t).is_zero()
            for c in grid:
                r3, s3, t3 = monomial(3, a), monomial(3, b), monomial(3, c)
                assert not norm_N(r3, s3, t3).is_zero()


class TestGroups:
    def test_identities(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_K(rng)
            assert mul_K(g, identity_K()) == g
            assert mul_K(identity_K(), g) == g
            assert mul_K(g, inv_K(g)) == identity_K()
            assert mul_K(inv_K(g), g) == identity_K()
            h = random_T(rng)
            assert mul_T(h, identity_T()) == h
            assert mul_T(h, inv_T(h)) == identity_T()
            assert mul_T(inv_T(h), h) == identity_T()

    def test_char2_order_two_on_first_slot(self):
        g = GroupKElem(X2, laurent_zero(2))
        assert mul_K(g, g) == identity_K()

    def test_char3_cube_collapses_first_slot(self):
        g = GroupTElem(X3, laurent_zero(3), laurent_zero(3))
        cube = mul_T(mul_T(g, g), g)
        assert cube.r.is_zero()

    def test_associativity(self):
        rng = random.Random(4)
        for _ in range(300):
            g, h, k = random_K(rng), random_K(rng), random_K(rng)
            assert mul_K(mul_K(g, h), k) == mul_K(g, mul_K(h, k))
            a, b, c = random_T(rng), random_T(rng), random_T(rng)
            assert mul_T(mul_T(a, b), c) == mul_T(a, mul_T(b, c))


class TestPhi:
    def test_identity_maps_to_infinity(self):
        assert isinstance(phi_K(identity_K()), Infinity)
        assert isinstance(phi_T(identity_T()), Infinity)

    def test_examples(self):
        assert phi_K(GroupKElem(X2, X2)) == QuadInt(0, 1, 2)
        z3 = laurent_zero(3)
        assert phi_T(GroupTElem(z3, z3, X3)) == QuadInt(2, 0, 3)

    def test_closed_forms(self):
        z2 = laurent_zero(2)
        assert isinstance(nu_R_closed(z2, z2), Infinity)
        assert nu_R_closed(X2, X2) == QuadInt(0, 1, 2)
        rng = random.Random(5)
        for _ in range(500):
            g = random_K(rng)
            assert compare(phi_K(g), nu_R_closed(g.s, g.t)) == 0
            h = random_T(rng)
            assert compare(phi_T(h), nu_N_closed(h.r, h.s, h.t)) == 0

    def test_closed_forms_at_engineered_ties(self):
        rng = random.Random(6)
        for _ in range(300):
            c, d = rng.randint(-2, 2), rng.randint(-2, 2)
            nut = QuadInt(c, d, 2)
            nus = nut * QuadInt(1, 1, 2)  # sqrt2 nu(s) == (sqrt2+2) nu(t)
            s = laurent(2, {nus: 1, nus + QuadInt(rng.randint(1, 2), 0, 2): rng.randint(0, 1)})
            t = laurent(2, {nut: 1})
            assert compare(phi_K(GroupKElem(s, t)), nu_R_closed(s, t)) == 0
        for _ in range(300):
            base = QuadInt(rng.randint(-1, 1), rng.randint(-1, 1), 3)
            r = laurent(3, {base: rng.randint(1, 2)})
            s = laurent(3, {base * QuadInt(1, 1, 3): rng.randint(1, 2)})
            t = laurent(3, {base * QuadInt(2, 1, 3): rng.randint(1, 2)})
            g = GroupTElem(r, s, t)
            assert compare(phi_T(g), nu_N_closed(r, s, t)) == 0

    def test_product_inequality(self):
        rng = random.Random(7)
        for _ in range(400):
            g, h = random_K(rng), random_K(rng)
            lhs = phi_K(mul_K(g, h))
            rhs = phi_K(g) if compare(phi_K(g), phi_K(h)) <= 0 else phi_K(h)
            assert compare(lhs, rhs) >= 0
            a, b = random_T(rng), random_T(rng)
            lhs = phi_T(mul_T(a, b))
            rhs = phi_T(a) if compare(phi_T(a), phi_T(b)) <= 0 else phi_T(b)
            assert compare(lhs, rhs) >= 0


class TestScaling:
    def test_unit_norm_parameter_is_identity(self):
        param = GroupKElem(laurent_one(2), laurent_zero(2))  # R = 1
        rng = random.Random(8)
        for _ in range(30):
            g = random_K(rng)
            assert scaling_K(param, g) == g

    def test_monomial_example(self):
        param = GroupKElem(X2, laurent_zero(2))  # R = x^{sqrt2}
        g = GroupKElem(laurent_one(2), laurent_one(2))
        out = scaling_K(param, g)
        assert out.s == monomial(2, 2)
        assert out.t == monomial(2, -2, 2)

    def test_endomorphism_and_shift(self):
        rng = random.Random(9)
        param = GroupKElem(monomial(2, 1, 1), laurent_zero(2))
        r_nu = nu(norm_R(param.s, param.t))
        shift = r_nu + r_nu
        for _ in range(200):
            g, h = random_K(rng), random_K(rng)
            assert mul_K(scaling_K(param, g), scaling_K(param, h)) == scaling_K(param, mul_K(g, h))
            if not (g.s.is_zero() and g.t.is_zero()):
                assert compare(phi_K(scaling_K(param, g)), phi_K(g) + shift) == 0

    def test_scaling_t(self):
        rng = random.Random(10)
        param = GroupTElem(laurent_zero(3), laurent_zero(3), monomial(3, 1))  # N = t^2
        n_nu = nu(norm_N(param.r, param.s, param.t))
        shift = n_nu + n_nu
        for _ in range(150):
            g, h = random_T(rng), random_T(rng)
            assert mul_T(scaling_T(param, g), scaling_T(param, h)) == scaling_T(param, mul_T(g, h))
            if not (g.r.is_zero() and g.s.is_zero() and g.t.is_zero()):
                assert compare(phi_T(scaling_T(param, g)), phi_T(g) + shift) == 0

    def test_non_monomial_norm_rejected(self):
        param = GroupKElem(X2, X2)
        with pytest.raises(TwistedAlgebraError, match="monomial"):
            scaling_K(param, identity_K())


class TestV1:
    @pytest.mark.parametrize("k", [QuadInt(-2, 0, 2), QuadInt(0, 0, 2), QuadInt(1, 1, 2)])
    def test_case_b_thresholds(self, k):
        assert check_V1("B", k, samples=120, seed=11).ok

    def test_case_g(self):
        assert check_V1("G", QuadInt(2, 0, 3), samples=120, seed=12).ok

    def test_infinite_threshold_trivial_group(self):
        # only the identity sits above +inf; products of identities stay there
        assert compare(phi_K(mul_K(identity_K(), identity_K())), INF) == 0


class TestOddRoot:
    def test_unit(self):
        v = odd_root_valuation(laurent_one(2))
        assert v.value == QuadInt(0, 0, 2)

    def test_x(self):
        assert odd_root_valuation(X2).value == QuadInt(1, 0, 2)

    def test_zero_maps_to_infinity(self):
        assert isinstance(odd_root_valuation(laurent_zero(2)).value, Infinity)

    def test_additive_in_products(self):
        rng = random.Random(13)
        for _ in range(100):
            k1 = random_K(rng).s
            k2 = random_K(rng).s
            if k1.is_zero() or k2.is_zero():
                continue
            total = odd_root_valuation(k1) + odd_root_valuation(k2)
            assert total.value == odd_root_valuation(k1 * k2).value
            lhs = total.embed_quartic()
            rhs = odd_root_valuation(k1).embed_quartic() + odd_root_valuation(k2).embed_quartic()
            assert lhs == rhs


class TestTwoVariable:
    def test_generator_values(self):
        s = poly2(2, {(1, 0): 1})
        t = poly2(2, {(0, 1): 1})
        assert s.nu() == QuadInt(1, 0, 2)
        assert t.nu() == QuadInt(0, 1, 2)

    def test_example(self):
        p = poly2(2, {(2, 1): 1, (0, 3): 1})  # s^2 t + t^3
        assert p.nu() == QuadInt(2, 1, 2)

    def test_theta_invariance(self):
        rng = random.Random(14)
        for p_char in (2, 3):
            for _ in range(100):
                d = {
                    (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(1, p_char - 1)
                    for _ in range(rng.randint(1, 4))
                }
                poly = poly2(p_char, d)
                assert compare(poly.theta().nu(), poly.nu().times_sqrt_p()) == 0

    def test_quotient(self):
        num = poly2(2, {(2, 1): 1, (0, 3): 1})
        den = poly2(2, {(0, 1): 1})
        assert valuation_2var(num, den) == QuadInt(2, 0, 2)

    def test_quotient_representative_independence(self):
        rng = random.Random(15)
        for _ in range(60):
            num = poly2(3, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 2)})
            den = poly2(3, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 2)})
            common = poly2(3, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 2), (0, 0): 1})
            lhs = valuation_2var(num, den)
            rhs = valuation_2var(num * common, den * common)
            assert compare(lhs, rhs) == 0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            valuation_2var(poly2(2, {(0, 0): 1}), poly2(2, {}))

    def test_negative_exponent_rejected(self):
        with pytest.raises(TwistedAlgebraError):
            poly2(2, {(-1, 0): 1})


class TestValueGroup:
    def test_at_least_three_values(self):
        vals = {format_nu(nu(monomial(2, k))) for k in range(3)}
        assert len(vals) >= 3


class TestGrammar:
    @pytest.mark.parametrize("text,p", [("x^1+x^{2+1r}", 2), ("2x^{-1r}+1", 3), ("x^{3-2r}", 2), ("0", 3)])
    def test_round_trip(self, text, p):
        val = parse_laurent(text, p)
        assert parse_laurent(format_laurent(val), p) == val

    def test_char_reduction(self):
        assert parse_laurent("x^1+x^1", 2).is_zero()
        assert parse_laurent("x^1+x^1+x^1", 3).is_zero()

    def test_malformed(self):
        with pytest.raises(TwistedAlgebraError):
            parse_laurent("x^{1+,}", 2)
