"""Ordered-arithmetic tests: exact comparisons against independent oracles."""

import operator
import random
from fractions import Fraction as Q
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.scalars import (
    INF,
    Infinity,
    LexPair,
    NFElem,
    NumberField,
    QuadInt,
    SQRT2_FIELD,
    SQRT3_FIELD,
    SQRT_2P2_FIELD,
    ScalarDomainError,
    compare,
    format_scalar,
    lex,
    parse_scalar,
    scalar_mul,
    sign,
    sqrt2_in_quartic,
)
from weylkit.twisted_algebra import LaurentElement, laurent


def sqrt_bounds(p: int, digits: int = 30) -> tuple[Q, Q]:
    """Rational lower/upper bounds on sqrt(p), the sign oracle's only input."""
    scale = 10**digits
    lo = isqrt(p * scale * scale)
    return Q(lo, scale), Q(lo + 1, scale)


def quadint_sign_oracle(x: QuadInt) -> int:
    lo, hi = sqrt_bounds(x.p)
    lo_val = x.a + x.b * (lo if x.b > 0 else hi)
    hi_val = x.a + x.b * (hi if x.b > 0 else lo)
    if lo_val > 0:
        return 1
    if hi_val < 0:
        return -1
    return 0


class TestCompare:
    def test_rational_order(self):
        assert compare(Q(1, 2), Q(1, 3)) == 1

    def test_three_versus_two_sqrt_two(self):
        # squaring both sides: 9 > 8
        assert 3 * 3 > 2 * (2 * 2)
        assert compare(QuadInt(3, 0, 2), QuadInt(0, 2, 2)) == 1

    def test_lex_order_ignores_low_entry(self):
        assert compare(lex(1, -100), lex(0, 100)) == 1

    def test_mixed_domain_rejected(self):
        with pytest.raises(ScalarDomainError):
            compare(Q(1), lex(1, 0))
        with pytest.raises(ScalarDomainError):
            compare(QuadInt(1, 0, 2), QuadInt(1, 0, 3))

    def test_infinity(self):
        assert compare(INF, Q(10**9)) == 1
        assert compare(QuadInt(5, 5, 3), INF) == -1
        assert compare(INF, INF) == 0


class TestScalarMul:
    def test_identity(self):
        assert scalar_mul(Q(1), lex(4, 6)) == lex(4, 6)

    def test_lex_componentwise(self):
        assert scalar_mul(Q(1, 2), lex(4, 6)) == lex(2, 3)

    def test_sqrt2_times_generator_in_quartic(self):
        # sqrt2 = z^2 - 2, so sqrt2 * z = z^3 - 2z (reduction mod x^4 - 4x^2 + 2)
        z = SQRT_2P2_FIELD.gen()
        expected = SQRT_2P2_FIELD.elem([0, -2, 0, 1])
        assert scalar_mul(sqrt2_in_quartic(), z) == expected

    def test_additive_in_scalar(self):
        x = lex(3, -5)
        assert scalar_mul(Q(2, 3) + Q(1, 3), x) == scalar_mul(Q(2, 3), x) + scalar_mul(Q(1, 3), x)

    def test_quadint_rejects_fractional_action(self):
        assert scalar_mul(Q(1, 2), QuadInt(4, 2, 2)) == QuadInt(2, 1, 2)
        with pytest.raises(ScalarDomainError):
            scalar_mul(Q(1, 2), QuadInt(1, 0, 2))


class TestSign:
    def test_zero(self):
        assert sign(Q(0)) == 0

    def test_two_minus_sqrt2(self):
        # 4 > 2
        assert sign(QuadInt(2, -1, 2)) == 1

    def test_minimal_polynomial_vanishes(self):
        z = SQRT_2P2_FIELD.gen()
        assert sign(z**4 - 4 * z**2 + 2) == 0

    def test_quadint_against_high_precision_oracle(self):
        import random

        rng = random.Random(20240817)
        for p in (2, 3):
            for _ in range(500):
                x = QuadInt(rng.randint(-999, 999), rng.randint(-999, 999), p)
                assert x.sign() == quadint_sign_oracle(x), x


class TestNumberField:
    def test_arithmetic_tracks_float(self):
        z = SQRT_2P2_FIELD.gen()
        val = (z**3 - 2 * z + 1) / (z + 3)
        approx = (1.8477590650225735**3 - 2 * 1.8477590650225735 + 1) / (1.8477590650225735 + 3)
        assert abs(val.to_float() - approx) < 1e-9

    def test_sqrt_fields(self):
        assert abs(SQRT2_FIELD.gen().to_float() - 2**0.5) < 1e-12
        assert abs(SQRT3_FIELD.gen().to_float() - 3**0.5) < 1e-12

    def test_inverse(self):
        z = SQRT_2P2_FIELD.gen()
        x = z**2 - z + 3
        assert (x * x.inverse()).coeffs[0] == 1
        assert all(c == 0 for c in (x * x.inverse()).coeffs[1:])

    def test_isolator_is_validated(self):
        with pytest.raises(ValueError):
            NumberField("bad", [-2, 0, 1], (Q(-2), Q(2)))  # two roots inside

    def test_order_against_rational_probes(self):
        z = SQRT2_FIELD.gen()
        assert compare(z, Q(141421, 100000)) == 1
        assert compare(z, Q(141422, 100000)) == -1


def horner_sign(e) -> int:
    """Sign oracle: interval Horner evaluation of the coefficients on an
    isolating interval of the generator, bisected until the box excludes 0."""
    if all(c == 0 for c in e.coeffs):
        return 0
    minpoly = e.field.minpoly
    lo, hi = e.field.isolator

    def at(t):
        acc = Q(0)
        for c in reversed(minpoly):
            acc = acc * t + c
        return acc

    while True:
        vlo = vhi = Q(0)
        for c in reversed(e.coeffs):
            prods = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(prods) + c, max(prods) + c
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        mid = (lo + hi) / 2
        if at(lo) * at(mid) <= 0:
            hi = mid
        else:
            lo = mid


def _sign_fields():
    from weylkit.root_system import build

    return (SQRT2_FIELD, SQRT3_FIELD, SQRT_2P2_FIELD, build("I2(5)").field, build("I2(8)").field)


def _integer_coeffs(e):
    den = 1
    for c in e.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(c * den) for c in e.coeffs]


class TestNumberFieldSign:
    """NFElem.sign (integer dot products with dyadic enclosures) against interval Horner."""

    @pytest.mark.parametrize("field", _sign_fields(), ids=lambda f: f.name)
    def test_zero(self, field):
        assert field.zero().sign() == 0
        assert (field.gen() - field.gen()).sign() == 0

    @pytest.mark.parametrize(
        "unit,powers",
        [
            (SQRT2_FIELD.elem([-1, 1]), range(40, 81, 10)),  # sqrt 2 - 1
            (SQRT_2P2_FIELD.elem([-1, 1]), range(40, 90, 7)),  # 2 cos(pi/8) - 1
        ],
        ids=["sqrt2-1", "2cos(pi/8)-1"],
    )
    def test_small_units_need_more_than_64_bits(self, unit, powers):
        for k in powers:
            e = unit**k
            # at 2^-64 the enclosures cannot separate e from 0: the
            # precision-doubling branch decides it
            lo, hi = e.field.bracket(_integer_coeffs(e), 64)
            assert lo <= 0 <= hi
            want = horner_sign(e)
            assert e.sign() == want and (-e).sign() == -want
            assert want == 1

    @pytest.mark.parametrize("field", _sign_fields(), ids=lambda f: f.name)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_elements(self, field, data):
        q = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
        e = field.elem([data.draw(q) for _ in range(field.degree)])
        assert e.sign() == horner_sign(e)
        # near-cancelling elements: a unit power plus a nearby rational
        u = field.gen() - round(field.gen().to_float())
        k = data.draw(st.integers(1, 30))
        near = u**k - Q(round((u**k).to_float() * 2**20), 2**20)
        assert near.sign() == horner_sign(near)

    @pytest.mark.parametrize("field", _sign_fields(), ids=lambda f: f.name)
    def test_products_reduce_by_the_minimal_polynomial(self, field):
        from weylkit.scalars import poly_divmod, poly_mul

        rng = random.Random(11)
        for _ in range(20):
            a, b = (
                field.elem([Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(field.degree)])
                for _ in range(2)
            )
            _, rem = poly_divmod(poly_mul(a.coeffs, b.coeffs), field.minpoly)
            assert (a * b).coeffs == tuple(rem) + (Q(0),) * (field.degree - len(rem))


@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
)
@settings(max_examples=200, deadline=None)
def test_quadint_order_translation_invariant(a, b, c, d, e, f):
    x, y, z = QuadInt(a, b, 2), QuadInt(c, d, 2), QuadInt(e, f, 2)
    c0 = compare(x, y)
    assert compare(x + z, y + z) == c0
    assert compare(y, x) == -c0


@given(
    st.fractions(min_value=-10, max_value=10),
    st.fractions(min_value=-10, max_value=10),
    st.fractions(min_value=-10, max_value=10),
    st.fractions(min_value=-10, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_lex_order_translation_invariant(a, b, c, d):
    x, y = lex(a, b), lex(c, d)
    z = lex(Q(1, 3), Q(-7, 2))
    assert compare(x + z, y + z) == compare(x, y)


HUGE = 10**40


def cross_sign(n1: int, d1: int, n2: int, d2: int) -> int:
    """Order of n1/d1 against n2/d2 from the raw integers; denominators of either sign."""
    diff = (n1 * d2 - n2 * d1) * (1 if d1 * d2 > 0 else -1)
    return (diff > 0) - (diff < 0)


_nonzero = st.integers(-HUGE, HUGE).filter(bool)


class TestRationalCompare:
    @given(st.integers(-HUGE, HUGE), _nonzero, st.integers(-HUGE, HUGE), _nonzero)
    @settings(max_examples=400, deadline=None)
    def test_matches_cross_multiplication(self, n1, d1, n2, d2):
        x, y = Q(n1, d1), Q(n2, d2)
        assert compare(x, y) == cross_sign(n1, d1, n2, d2) == -compare(y, x)

    @given(st.integers(-HUGE, HUGE), st.integers(1, HUGE), st.integers(1, 10**6), st.integers(-1, 1))
    @settings(max_examples=200, deadline=None)
    def test_near_and_equal_values_written_differently(self, n, d, k, e):
        # n/d against (n*k + e)/(d*k): equal when e == 0, one part in d*k apart otherwise
        x, y = Q(n, d), Q(n * k + e, d * k)
        assert compare(x, y) == -e
        assert compare(Q(-n * k, -d * k), x) == 0

    @given(st.integers(-HUGE, HUGE), st.integers(-HUGE, HUGE), _nonzero)
    @settings(max_examples=200, deadline=None)
    def test_int_and_fraction_mixes(self, m, n, d):
        want = cross_sign(m, 1, n, d)
        assert compare(m, Q(n, d)) == want == -compare(Q(n, d), m)
        assert compare(m, Q(m)) == 0 == compare(Q(m), m)

    @given(st.integers(-HUGE, HUGE), _nonzero)
    def test_infinity_above_every_rational(self, n, d):
        assert compare(Q(n, d), INF) == -1 and compare(INF, Q(n, d)) == 1

    @given(st.integers(-HUGE, HUGE), _nonzero, st.integers(-HUGE, HUGE), _nonzero)
    @settings(max_examples=200, deadline=None)
    def test_sign_and_scalar_action(self, n1, d1, n2, d2):
        # denominators of either sign, as given at construction
        x, y = Q(n1, d1), Q(n2, d2)
        assert sign(x) == (x > 0) - (x < 0) == cross_sign(n1, d1, 0, 1)
        assert sign(-x) == -sign(x)
        assert scalar_mul(x, y) == Q(n1 * n2, d1 * d2) == scalar_mul(y, x)

    def test_worked_values(self):
        assert compare(Q(2, 4), Q(1, 2)) == 0
        assert compare(Q(-1, 3), Q(-1, 2)) == 1
        assert compare(Q(HUGE - 1, HUGE), Q(HUGE, HUGE + 1)) == -1


def floor_scaled(x: QuadInt, k: int) -> int:
    """floor((a + b*sqrt p) * 2^k) from an integer square root; independent of the ordering."""
    root = isqrt(x.p * x.b * x.b * 4**k)  # floor(|b| sqrt(p) 2^k), never exact for b != 0
    if x.b > 0:
        return x.a * 2**k + root
    if x.b < 0:
        return x.a * 2**k - root - 1
    return x.a * 2**k


def order_oracle(x: QuadInt, y: QuadInt) -> int:
    """Refine both values' binary expansions until they differ; distinct values always do."""
    if (x.a, x.b) == (y.a, y.b):
        return 0
    k = 0
    while True:
        fx, fy = floor_scaled(x, k), floor_scaled(y, k)
        if fx != fy:
            return 1 if fx > fy else -1
        k += 1


BIG = 10**30


class TestQuadIntOrder:
    @given(
        st.sampled_from((2, 3)),
        st.integers(-BIG, BIG),
        st.integers(-BIG, BIG),
        st.integers(-BIG, BIG),
        st.integers(-BIG, BIG),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_pairs_match_oracle(self, p, a, b, c, d):
        x, y = QuadInt(a, b, p), QuadInt(c, d, p)
        want = order_oracle(x, y)
        assert compare(x, y) == want
        assert (x < y, x <= y, x > y, x >= y) == (want < 0, want <= 0, want > 0, want >= 0)

    @given(
        st.sampled_from((2, 3)),
        st.integers(-BIG, BIG),
        st.integers(-BIG, BIG),
        st.integers(1, 10**15),
        st.integers(-1, 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_near_ties_at_scale_match_oracle(self, p, a, b, m, e):
        # y - x = isqrt(p m^2) + e - m sqrt(p) lies in (e - 1, e) while both
        # values sit near 1e30, far below the resolution of a float comparison
        x, y = QuadInt(a, b, p), QuadInt(a + isqrt(p * m * m) + e, b - m, p)
        assert compare(x, y) == order_oracle(x, y)
        assert compare(y, x) == order_oracle(y, x)
        assert (y - x).sign() == order_oracle(y - x, QuadInt(0, 0, p))

    @pytest.mark.parametrize(
        "a, b, p, want",
        [(577, -408, 2, 1), (-577, 408, 2, -1), (26, -15, 3, 1), (1351, -780, 3, 1)],
    )
    def test_pell_near_ties(self, a, b, p, want):
        x = QuadInt(a, b, p)
        assert x.sign() == want == order_oracle(x, QuadInt(0, 0, p))
        assert compare(QuadInt(a, 0, p), QuadInt(0, -b, p)) == want
        assert (QuadInt(a, 0, p) > QuadInt(0, -b, p)) == (want > 0)
        assert (x > 0, -x < 0) == (want > 0, want > 0)

    def test_pell_power_far_below_float_resolution(self):
        # (3 - 2 sqrt 2)^40 is about 1e-31: its two parts are near 1.6e30
        x = QuadInt(1, 0, 2)
        for _ in range(40):
            x = x * QuadInt(3, -2, 2)
        assert x.a > 10**30 and x.sign() == 1 == order_oracle(x, QuadInt(0, 0, 2))
        assert (-x).sign() == -1
        assert QuadInt(x.a, 0, 2) > QuadInt(0, -x.b, 2)
        assert QuadInt(x.a - 1, 0, 2) < QuadInt(0, -x.b, 2)

    def test_equal_values(self):
        x = QuadInt(-7, 5, 3)
        y = QuadInt(-7, 5, 3)
        assert compare(x, y) == 0 and x <= y and x >= y and not x < y and not x > y
        assert QuadInt(0, 0, 2).sign() == 0

    def test_int_operands(self):
        x = QuadInt(0, 1, 2)  # sqrt 2
        assert 1 < x < 2 and x > 1 and x <= 2 and not x >= 2
        assert QuadInt(3, 0, 3) <= 3 and QuadInt(3, 0, 3) >= 3 and not QuadInt(3, 0, 3) < 3
        assert x - 1 == QuadInt(-1, 1, 2) and 1 - x == QuadInt(1, -1, 2)
        assert (1 - x).sign() == -1 and (x - 1).sign() == 1

    @given(st.sampled_from((2, 3)), st.integers(-BIG, BIG), st.integers(-BIG, BIG), st.integers(-BIG, BIG))
    @settings(max_examples=200, deadline=None)
    def test_compare_with_int_in_either_order(self, p, a, b, n):
        x = QuadInt(a, b, p)
        want = order_oracle(x, QuadInt(n, 0, p))
        assert compare(x, n) == want == -compare(n, x)
        assert (x < n, n < x) == (want < 0, want > 0)

    def test_compare_agrees_with_operators_on_ints(self):
        x = QuadInt(1, 1, 2)  # 1 + sqrt 2, about 2.41
        assert x < 3 and compare(x, 3) == -1 and compare(3, x) == 1
        assert compare(QuadInt(3, 0, 3), 3) == 0 == compare(3, QuadInt(3, 0, 3))
        with pytest.raises(ScalarDomainError):
            compare(x, Q(3))
        with pytest.raises(ScalarDomainError):
            compare(Q(3), x)

    def test_infinity_sorts_above(self):
        for x in (QuadInt(BIG, BIG, 2), QuadInt(-BIG, 0, 3), QuadInt(0, 0, 2)):
            assert x < INF and x <= INF and not x > INF and not x >= INF
            assert INF > x and compare(INF, x) == 1 and compare(x, INF) == -1
        assert sorted([INF, QuadInt(1, 0, 2), QuadInt(0, 1, 2)]) == [QuadInt(1, 0, 2), QuadInt(0, 1, 2), INF]

    def test_domain_errors(self):
        x = QuadInt(1, 0, 2)
        with pytest.raises(ScalarDomainError):
            x < QuadInt(1, 0, 3)
        with pytest.raises(ScalarDomainError):
            compare(x, QuadInt(1, 0, 3))
        with pytest.raises(ScalarDomainError):
            x - QuadInt(0, 1, 3)
        with pytest.raises(ScalarDomainError):
            x < Q(1, 2)
        with pytest.raises(ScalarDomainError):
            Q(1, 2) - x


def _assert_strictly_increasing(x: LaurentElement):
    exps = [e for e, _ in x.terms]
    assert all(order_oracle(e, f) < 0 for e, f in zip(exps, exps[1:])), x


def _laurents(p):
    exps = st.tuples(st.integers(-BIG, BIG), st.integers(-BIG, BIG)).map(
        lambda ab: QuadInt(ab[0], ab[1], p)
    )
    return st.dictionaries(exps, st.integers(1, p - 1), max_size=4).map(lambda d: laurent(p, d))


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_laurent_terms_strictly_increasing(p, data):
    x, y = data.draw(_laurents(p)), data.draw(_laurents(p))
    for z in (x, y, x + y, x * y, x.theta(), (x * y).theta()):
        _assert_strictly_increasing(z)


# --------------------------------------------------------------------------
# the ordering as each domain spelled it out before the Ordered base class:
# one compare ladder, a sign ladder, abs_val and per-class rich operators.
# It is the reference for the differential test below.


def ref_sign(x) -> int:
    if isinstance(x, (int, Q)):
        return (x > 0) - (x < 0)
    if isinstance(x, (NFElem, QuadInt)):
        return x.sign()
    if isinstance(x, LexPair):
        s = ref_sign(x.hi)
        return s if s != 0 else ref_sign(x.lo)
    raise ScalarDomainError(f"no sign for {type(x).__name__}")


def ref_abs_val(x):
    return -x if ref_sign(x) < 0 else x


def ref_quad_cmp(x: QuadInt, other) -> int:
    if isinstance(other, QuadInt) and other.p == x.p:
        oa, ob = other.a, other.b
    elif isinstance(other, Infinity):
        return -1
    elif isinstance(other, QuadInt):
        raise ScalarDomainError("quadratic integers over different radicands")
    elif isinstance(other, int):
        oa, ob = other, 0
    else:
        raise ScalarDomainError(f"cannot coerce {type(other).__name__} into Z[sqrt{x.p}]")
    return QuadInt(x.a - oa, x.b - ob, x.p).sign()


def ref_lex_cmp(x: LexPair, other) -> int:
    if isinstance(other, Infinity):
        return -1
    if not isinstance(other, LexPair):
        raise ScalarDomainError("lex pair compared with non lex pair")
    c = ref_compare(x.hi, other.hi)
    if c != 0:
        return c
    return ref_compare(x.lo, other.lo)


def ref_compare(x, y) -> int:
    if isinstance(x, Infinity) or isinstance(y, Infinity):
        if isinstance(x, Infinity) and isinstance(y, Infinity):
            return 0
        return 1 if isinstance(x, Infinity) else -1
    if isinstance(x, QuadInt) and isinstance(y, (QuadInt, int)):
        return ref_quad_cmp(x, y)
    if isinstance(x, int) and isinstance(y, QuadInt):
        return -ref_quad_cmp(y, x)
    if isinstance(x, int):
        x = Q(x)
    if isinstance(y, int):
        y = Q(y)
    if isinstance(x, Q) and isinstance(y, Q):
        return (x > y) - (x < y)
    if isinstance(x, NFElem) or isinstance(y, NFElem):
        if isinstance(x, (Q, NFElem)) and isinstance(y, (Q, NFElem)):
            nf = x if isinstance(x, NFElem) else y
            return ref_sign(nf._coerce(x) - nf._coerce(y))
        raise ScalarDomainError("mixed-domain comparison")
    if isinstance(x, LexPair) and isinstance(y, LexPair):
        return ref_lex_cmp(x, y)
    raise ScalarDomainError(f"mixed-domain comparison: {type(x).__name__} vs {type(y).__name__}")


_RELATIONS = {"lt": operator.lt, "le": operator.le, "gt": operator.gt, "ge": operator.ge}
_REFLECTED = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}


def _ref_method(op: str, x, other):
    """x.__<op>__(other) as each domain class defined it; None for int and Fraction."""
    rel = _RELATIONS[op]
    if isinstance(x, Infinity):
        return {"lt": False, "le": isinstance(other, Infinity), "gt": not isinstance(other, Infinity), "ge": True}[op]
    if isinstance(x, NFElem):
        if isinstance(other, Infinity):
            return op in ("lt", "le")
        return rel((x - other).sign(), 0)
    if isinstance(x, LexPair):
        return rel(ref_lex_cmp(x, other), 0)
    if isinstance(x, QuadInt):
        return rel(ref_quad_cmp(x, other), 0)
    return None


def ref_order(op: str, x, y) -> bool:
    """x <op> y: int and Fraction give way to the other operand's reflected method."""
    got = _ref_method(op, x, y)
    if got is None:
        got = _ref_method(_REFLECTED[op], y, x)
    return _RELATIONS[op](x, y) if got is None else got


def ref_abs(x):
    if isinstance(x, (NFElem, QuadInt)):
        return -x if x.sign() < 0 else x
    if isinstance(x, LexPair):
        return -x if ref_sign(x) < 0 else x
    if isinstance(x, Infinity):
        raise TypeError("bad operand type for abs(): 'Infinity'")
    return abs(x)


BINARY_OPS = {
    "compare": (compare, ref_compare),
    "<": (operator.lt, lambda x, y: ref_order("lt", x, y)),
    "<=": (operator.le, lambda x, y: ref_order("le", x, y)),
    ">": (operator.gt, lambda x, y: ref_order("gt", x, y)),
    ">=": (operator.ge, lambda x, y: ref_order("ge", x, y)),
    # min and max keep the first of equal items and test with < and >
    "min": (lambda x, y: min(x, y), lambda x, y: y if ref_order("lt", y, x) else x),
    "max": (lambda x, y: max(x, y), lambda x, y: y if ref_order("gt", y, x) else x),
}
UNARY_OPS = {"sign": (sign, ref_sign), "abs": (abs, ref_abs_val)}


def _outcome(f, *args):
    try:
        v = f(*args)
    except Exception as exc:
        return "raises", type(exc)
    return "value", type(v), v


def assert_same_order(x, y):
    for a, b in ((x, y), (y, x)):
        for name, (new, ref) in BINARY_OPS.items():
            assert _outcome(new, a, b) == _outcome(ref, a, b), (name, a, b)
        for name, (new, ref) in UNARY_OPS.items():
            assert _outcome(new, a) == _outcome(ref, a), (name, a)
        if a is INF:
            # the old classes left abs undefined on +inf (a plain TypeError);
            # abs now asks sign, which raises its TypeError subclass
            assert _outcome(ref_abs, a) == ("raises", TypeError)
            assert _outcome(abs, a) == ("raises", ScalarDomainError)
        else:
            assert _outcome(abs, a) == _outcome(ref_abs, a), ("abs operator", a)


def _small_rationals():
    return st.builds(Q, st.integers(-4, 4), st.integers(1, 3))


def _field_elems(field):
    return st.lists(_small_rationals(), min_size=field.degree, max_size=field.degree).map(field.elem)


_FLAT_LEX = st.builds(lex, _small_rationals(), _small_rationals())
ORDERED_DOMAINS = (
    st.integers(-4, 4),
    _small_rationals(),
    _field_elems(SQRT2_FIELD),
    _field_elems(SQRT3_FIELD),
    _field_elems(SQRT_2P2_FIELD),
    _FLAT_LEX,
    st.builds(LexPair, _FLAT_LEX, _FLAT_LEX),
    st.builds(LexPair, _field_elems(SQRT2_FIELD), _field_elems(SQRT2_FIELD)),
    st.builds(QuadInt, st.integers(-4, 4), st.integers(-3, 3), st.just(2)),
    st.builds(QuadInt, st.integers(-4, 4), st.integers(-3, 3), st.just(3)),
    st.just(INF),
)
_ANY_SCALAR = st.one_of(ORDERED_DOMAINS)
_PAIRS = st.one_of(
    st.tuples(_ANY_SCALAR, _ANY_SCALAR),
    st.sampled_from(ORDERED_DOMAINS).flatmap(lambda dom: st.tuples(dom, dom)),
    _ANY_SCALAR.map(lambda x: (x, x)),
)

# every domain against every other, with equal values written in different
# domains (2, 2/1, 2 in Q(sqrt 2), (2;0), 2 + 0 sqrt 2)
ORDER_GRID = (
    0,
    2,
    -1,
    Q(2),
    Q(-1, 2),
    SQRT2_FIELD.elem([2]),
    SQRT2_FIELD.gen(),
    SQRT2_FIELD.elem([1, -1]),
    SQRT3_FIELD.gen(),
    SQRT_2P2_FIELD.gen(),
    sqrt2_in_quartic(),
    lex(0, 1),
    lex(0),
    lex(2),
    lex(-1, 5),
    LexPair(lex(0, 1), lex(2)),
    LexPair(SQRT2_FIELD.gen(), SQRT2_FIELD.elem([1])),
    QuadInt(0, 0, 2),
    QuadInt(2, 0, 2),
    QuadInt(-3, 2, 2),
    QuadInt(1, 1, 3),
    QuadInt(2, 0, 3),
    INF,
)


class TestOrderingProtocol:
    """compare, the order operators, sign, abs, min and max against the reference."""

    @pytest.mark.parametrize("x", ORDER_GRID, ids=repr)
    def test_grid(self, x):
        for y in ORDER_GRID:
            assert_same_order(x, y)

    @settings(max_examples=400, deadline=None)
    @given(_PAIRS)
    def test_drawn_pairs(self, pair):
        assert_same_order(*pair)

    def test_operators_are_defined_once(self):
        from weylkit.scalars import Ordered

        for cls in (Infinity, NFElem, LexPair, QuadInt):
            assert issubclass(cls, Ordered)
            for name in ("__lt__", "__le__", "__gt__", "__ge__", "__abs__"):
                assert name not in vars(cls), (cls, name)


class TestSerialization:
    @pytest.mark.parametrize(
        "text",
        ["3/4", "-7", "(1/2;-3)", "3+2√2", "-√3", "2√3", "((1;2);0)"],
    )
    def test_round_trip(self, text):
        val = parse_scalar(text)
        assert parse_scalar(format_scalar(val)) == val

    def test_r_alias(self):
        assert parse_scalar("3+2r2") == QuadInt(3, 2, 2)
