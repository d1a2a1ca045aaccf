"""Exact ordered arithmetic: rationals, real number fields, lex pairs, Z[sqrt p].

Every coefficient domain used by the rest of the package lives here.  All
values are immutable and hashable; all comparisons are exact (no floating
point is ever consulted for a decision, only for rendering).

The pluggable ordered-group contract is: ``+``, unary ``-``, a zero element,
a total order, and an action of rational scalars (``scalar_mul``).  The
shipped domains are :class:`~fractions.Fraction`, :class:`NFElem` (real
number fields given by a minimal polynomial and a root isolator),
:class:`LexPair` (lexicographic pairs, an ordered group that is not
archimedean) and :class:`QuadInt` (the ring Z[sqrt p] for p in {2, 3}).

Every ordered domain, +inf included, subclasses :class:`Ordered`, which
derives ``<``, ``<=``, ``>``, ``>=`` and ``abs`` from one method ``_cmp``;
:func:`compare` and :func:`sign` dispatch to the same methods.  A new domain
subclasses :class:`Ordered` and supplies ``sign()``; it overrides ``_cmp``
only where that is faster than the sign of the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Sequence, Tuple, Union


class ScalarDomainError(TypeError):
    """Raised for mixed-domain comparisons and unsupported scalar actions."""


class Ordered:
    """A totally ordered scalar: the order operators and ``abs`` come from ``_cmp``.

    ``_cmp(other)`` returns -1, 0 or +1, or raises :class:`ScalarDomainError`
    for an operand outside the domain.  The default puts every value below
    +inf and otherwise takes the sign of the difference.  Each domain
    supplies ``sign()``; the base one raises, as +inf has no sign.
    """

    def sign(self) -> int:
        raise ScalarDomainError(f"no sign for {type(self).__name__}")

    def _cmp(self, other) -> int:
        if isinstance(other, Infinity):
            return -1
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if sign(self) < 0 else self


# --------------------------------------------------------------------------
# plus infinity (used by valuations and wedge tables)


class Infinity(Ordered):
    """Positive infinity: absorbing under addition, larger than any scalar; it has no sign."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+inf"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("weylkit-infinity")

    def _cmp(self, other) -> int:
        return 0 if isinstance(other, Infinity) else 1

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ScalarDomainError("negative infinity is not modeled")


INF = Infinity()


# --------------------------------------------------------------------------
# dense rational polynomials, low degree first (tools for number fields)


Poly = Tuple[Fraction, ...]


def poly_trim(c: Sequence[Fraction]) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_neg(a: Sequence[Fraction]) -> Poly:
    return tuple(-x for x in a)


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Poly, Poly]:
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Fraction(0)] * max(0, len(r) - len(b) + 1)
    lead = b[-1]
    while len(poly_trim(r)) >= len(b):
        r = list(poly_trim(r))
        shift = len(r) - len(b)
        coef = r[-1] / lead
        q[shift] = coef
        for i, y in enumerate(b):
            r[shift + i] -= coef * y
    return poly_trim(q), poly_trim(r)


def poly_eval(a: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_deriv(a: Sequence[Fraction]) -> Poly:
    return poly_trim([a[i] * i for i in range(1, len(a))])


def sturm_chain(a: Sequence[Fraction]) -> list[Poly]:
    chain = [poly_trim(a), poly_deriv(a)]
    while chain[-1]:
        _, rem = poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(poly_neg(rem))
    return [c for c in chain if c]


def _sign_variations(vals: Sequence[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in vals if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_real_roots(a: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of ``a`` in the half-open interval (lo, hi]."""
    chain = sturm_chain(a)
    at_lo = _sign_variations([poly_eval(c, lo) for c in chain])
    at_hi = _sign_variations([poly_eval(c, hi) for c in chain])
    return at_lo - at_hi


# --------------------------------------------------------------------------
# real number fields


def _interval_mul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(prods), max(prods)


def _integer_coeffs(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(a, den) with coeffs[k] == a[k] / den and den > 0."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class NumberField:
    """A real field Q(zeta) with zeta the unique root of ``minpoly`` in ``isolator``.

    ``minpoly`` is monic with rational coefficients, low degree first.  The
    isolator is validated with a Sturm count at construction time so that
    later sign determinations can rely on plain bisection.

    Signs are decided by one integer rule: an element with integer
    coefficients a_k lies between the two dot products of a with dyadic
    enclosures L_k / 2^B <= zeta^k <= U_k / 2^B (rounded outward, kept per
    precision B).  While the two bounds differ in sign, B doubles.
    """

    def __init__(self, name: str, minpoly: Sequence[Union[int, Fraction]], isolator: tuple[Fraction, Fraction]):
        self.name = name
        self.minpoly: Poly = poly_trim([Fraction(c) for c in minpoly])
        if not self.minpoly or self.minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.degree = len(self.minpoly) - 1
        lo, hi = Fraction(isolator[0]), Fraction(isolator[1])
        if not (lo < hi):
            raise ValueError("empty isolator")
        if poly_eval(self.minpoly, lo) == 0 or poly_eval(self.minpoly, hi) == 0:
            raise ValueError("isolator endpoints must not be roots")
        if count_real_roots(self.minpoly, lo, hi) != 1:
            raise ValueError("isolator must contain exactly one real root")
        self.isolator = (lo, hi)
        # reduction table: zeta^(degree + i) mod minpoly at index i, extended
        # on demand by reduce(); reducing zeta^(2*degree-2) here fills it up to
        # the largest power in a product of two reduced elements
        self._reduction = [poly_trim([-c for c in self.minpoly[:-1]])]
        self.reduce([Fraction(0)] * (2 * self.degree - 2) + [Fraction(1)])
        self._enclosures: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def reduce(self, p: Sequence[Fraction]) -> Poly:
        p = poly_trim(p)
        while len(p) > self.degree:
            k = len(p) - 1
            while k - self.degree >= len(self._reduction):
                nxt = self.reduce(poly_mul(self._reduction[-1], (Fraction(0), Fraction(1))))
                self._reduction.append(nxt)
            c = p[-1]
            p = poly_trim(p[:-1])
            p = poly_add(p, tuple(c * x for x in self._reduction[k - self.degree]))
        return p

    def elem(self, coeffs: Sequence[Union[int, Fraction]]) -> "NFElem":
        c = [Fraction(x) for x in coeffs]
        c = list(self.reduce(c))
        c += [Fraction(0)] * (self.degree - len(c))
        return NFElem(self, tuple(c))

    def gen(self) -> "NFElem":
        return self.elem([0, 1])

    def zero(self) -> "NFElem":
        return self.elem([])

    def one(self) -> "NFElem":
        return self.elem([1])

    def enclosures(self, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(L, U) with L[k] <= 2^bits * zeta^k <= U[k] for k < degree."""
        enc = self._enclosures.get(bits)
        if enc is None:
            lo, hi = self.isolator
            # an interval power [lo, hi]^k is at most k M^(k-1) (hi - lo) wide
            spread = self.degree * max(abs(lo), abs(hi), Fraction(1)) ** (self.degree - 1)
            while (hi - lo) * spread * 2**bits > 1:
                lo, hi = self.refine_isolator((lo, hi))
            low, high = [], []
            box = (Fraction(1), Fraction(1))
            for _ in range(self.degree):
                low.append(floor(box[0] * 2**bits))
                high.append(ceil(box[1] * 2**bits))
                box = _interval_mul(box, (lo, hi))
            enc = self._enclosures[bits] = (tuple(low), tuple(high))
        return enc

    def bracket(self, a: Sequence[int], bits: int) -> tuple[int, int]:
        """Integers lo <= 2^bits * sum_k a_k zeta^k <= hi for integers a_k."""
        low, high = self.enclosures(bits)
        lo = hi = 0
        for ak, l, u in zip(a, low, high):
            if ak > 0:
                lo += ak * l
                hi += ak * u
            elif ak < 0:
                lo += ak * u
                hi += ak * l
        return lo, hi

    def int_sign(self, a: Sequence[int]) -> int:
        """Exact sign of sum_k a_k zeta^k for integers a_k, k < degree.

        A nonzero element does not vanish at zeta (the minimal polynomial is
        irreducible), so doubling the precision decides it.
        """
        if not any(a):
            return 0
        bits = 64
        while bits <= 1 << 16:
            lo, hi = self.bracket(a, bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
        raise ArithmeticError("sign determination did not converge")  # pragma: no cover

    def refine_isolator(self, iv: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        """One bisection step; keeps the endpoint signs of the minimal polynomial."""
        lo, hi = iv
        mid = (lo + hi) / 2
        if poly_eval(self.minpoly, mid) == 0:
            # nudge off the root; the root is irrational for every shipped field
            # but a custom field may hit it
            mid = (lo + mid) / 2
        if poly_eval(self.minpoly, lo) * poly_eval(self.minpoly, mid) < 0:
            return lo, mid
        return mid, hi

    def minpoly_str(self) -> str:
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.minpoly[k] if k < len(self.minpoly) else Fraction(0)
            if c == 0:
                continue
            mon = "1" if k == 0 else ("x" if k == 1 else f"x^{k}")
            if k == 0:
                term = str(c)
            elif c == 1:
                term = mon
            elif c == -1:
                term = f"-{mon}"
            else:
                term = f"{c}*{mon}"
            parts.append(term)
        s = "+".join(parts).replace("+-", "-")
        return s

    def __repr__(self):
        return f"NumberField({self.name})"


@dataclass(frozen=True)
class NFElem(Ordered):
    """An element of a real number field, as a polynomial in the generator."""

    field: NumberField
    coeffs: Tuple[Fraction, ...]

    def _coerce(self, other) -> "NFElem":
        if isinstance(other, NFElem):
            if other.field is not self.field:
                raise ScalarDomainError("elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.elem([Fraction(other)])
        raise ScalarDomainError(f"cannot coerce {type(other).__name__} into {self.field.name}")

    def __add__(self, other):
        o = self._coerce(other)
        return NFElem(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return NFElem(self.field, tuple(a * c for a in self.coeffs))
        o = self._coerce(other)
        return self.field.elem(poly_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "NFElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in Q[x] against the minimal polynomial
        r0, r1 = self.field.minpoly, poly_trim(self.coeffs)
        s0, s1 = (), (Fraction(1),)
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_add(s0, poly_neg(poly_mul(q, s1)))
        # r0 is a nonzero constant gcd since the minimal polynomial is irreducible
        if len(r0) != 1:
            raise ZeroDivisionError("element is a zero divisor; minimal polynomial not irreducible")
        inv_const = Fraction(1) / r0[0]
        return self.field.elem(tuple(c * inv_const for c in s0))

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def sign(self) -> int:
        return self.field.int_sign(_integer_coeffs(self.coeffs)[0])

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ScalarDomainError:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.name, self.coeffs))

    def to_float(self) -> float:
        a, den = _integer_coeffs(self.coeffs)
        if not any(a):
            return 0.0
        bits = 64
        while True:
            lo, hi = self.field.bracket(a, bits)
            # the bracket's midpoint is within 2^-53 of the value, relatively
            if (hi - lo) << 53 <= abs(lo + hi):
                return float(Fraction(lo + hi, den << (bits + 1)))
            bits *= 2

    def __repr__(self):
        return f"NFElem({self.name_str()})"

    def name_str(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        return (" + ".join(terms) or "0") + f" @ {self.field.name}"


SQRT2_FIELD = NumberField("sqrt2", [-2, 0, 1], (Fraction(1), Fraction(2)))
SQRT3_FIELD = NumberField("sqrt3", [-3, 0, 1], (Fraction(3, 2), Fraction(2)))
# sqrt(2 + sqrt 2) = 2 cos(pi/8), the positive root of x^4 - 4x^2 + 2 near 1.847
SQRT_2P2_FIELD = NumberField("sqrt2+sqrt2", [2, 0, -4, 0, 1], (Fraction(3, 2), Fraction(2)))


def sqrt2_in_quartic() -> NFElem:
    """sqrt 2 inside Q(sqrt(2+sqrt2)): the generator squared minus two."""
    return SQRT_2P2_FIELD.elem([-2, 0, 1])


# --------------------------------------------------------------------------
# lexicographic pairs


@dataclass(frozen=True)
class LexPair(Ordered):
    """An ordered-group element (hi, lo) compared lexicographically."""

    hi: object
    lo: object

    def __add__(self, other):
        if not isinstance(other, LexPair):
            raise ScalarDomainError("lex pair added to non lex pair")
        return LexPair(self.hi + other.hi, self.lo + other.lo)

    def __neg__(self):
        return LexPair(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other)

    def _cmp(self, other) -> int:
        if isinstance(other, Infinity):
            return -1
        if not isinstance(other, LexPair):
            raise ScalarDomainError("lex pair compared with non lex pair")
        c = compare(self.hi, other.hi)
        if c != 0:
            return c
        return compare(self.lo, other.lo)

    def sign(self) -> int:
        return sign(self.hi) or sign(self.lo)

    def __repr__(self):
        return f"({self.hi};{self.lo})"


def lex(hi, lo=Fraction(0)) -> LexPair:
    hi = Fraction(hi) if isinstance(hi, int) else hi
    lo = Fraction(lo) if isinstance(lo, int) else lo
    return LexPair(hi, lo)


# --------------------------------------------------------------------------
# quadratic integers a + b*sqrt(p)


def _quad_sign(a: int, b: int, p: int) -> int:
    """Exact sign of a + b*sqrt(p) for integers a, b and a non-square p > 0."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: compare a^2 against p*b^2 (never equal, sqrt p is irrational)
    if a > 0:  # b < 0
        return 1 if a * a > p * b * b else -1
    return 1 if a * a < p * b * b else -1  # a < 0, b > 0


@dataclass(frozen=True)
class QuadInt(Ordered):
    """a + b*sqrt(p) with integer a, b and p in {2, 3}; ordered exactly."""

    a: int
    b: int
    p: int

    def __post_init__(self):
        if self.p not in (2, 3):
            raise ValueError("p must be 2 or 3")

    def _parts(self, other) -> tuple[int, int]:
        """(a, b) of an operand of the same ring; builds no intermediate QuadInt."""
        if isinstance(other, QuadInt):
            if other.p != self.p:
                raise ScalarDomainError("quadratic integers over different radicands")
            return other.a, other.b
        if isinstance(other, int):
            return other, 0
        raise ScalarDomainError(f"cannot coerce {type(other).__name__} into Z[sqrt{self.p}]")

    def __add__(self, other):
        oa, ob = self._parts(other)
        return QuadInt(self.a + oa, self.b + ob, self.p)

    __radd__ = __add__

    def __neg__(self):
        return QuadInt(-self.a, -self.b, self.p)

    def __sub__(self, other):
        oa, ob = self._parts(other)
        return QuadInt(self.a - oa, self.b - ob, self.p)

    def __rsub__(self, other):
        oa, ob = self._parts(other)
        return QuadInt(oa - self.a, ob - self.b, self.p)

    def __mul__(self, other):
        oa, ob = self._parts(other)
        return QuadInt(self.a * oa + self.p * self.b * ob, self.a * ob + self.b * oa, self.p)

    __rmul__ = __mul__

    def times_sqrt_p(self) -> "QuadInt":
        return QuadInt(self.p * self.b, self.a, self.p)

    def sign(self) -> int:
        return _quad_sign(self.a, self.b, self.p)

    def _cmp(self, other) -> int:
        # same-ring operands first: sorting exponents makes this the hot case
        if isinstance(other, QuadInt) and other.p == self.p:
            oa, ob = other.a, other.b
        elif isinstance(other, Infinity):
            return -1
        else:
            oa, ob = self._parts(other)  # an int; anything else raises ScalarDomainError
        return _quad_sign(self.a - oa, self.b - ob, self.p)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def to_float(self) -> float:
        return self.a + self.b * (self.p ** 0.5)

    def __repr__(self):
        return format_scalar(self)


# --------------------------------------------------------------------------
# generic dispatch helpers


Scalar = Union[Fraction, NFElem, LexPair, QuadInt]


def sign(x) -> int:
    if type(x) is Fraction:
        # Fraction keeps its denominator positive; read the numerator slot
        # directly, as compare does
        n = x._numerator
        return (n > 0) - (n < 0)
    if isinstance(x, Ordered):
        return x.sign()
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    raise ScalarDomainError(f"no sign for {type(x).__name__}")


def compare(x, y) -> int:
    """-1, 0 or +1; mixed-domain comparisons are rejected."""
    if type(x) is Fraction and type(y) is Fraction:
        # Fraction keeps its denominator positive, so the sign of the cross
        # difference is the order.  The slots are read directly: the public
        # numerator/denominator properties cost a Python call each, and
        # skipping them made this path about 3x faster (timeit, CPython 3.11).
        d = x._numerator * y._denominator - y._numerator * x._denominator
        return (d > 0) - (d < 0)
    if isinstance(x, Ordered):
        return x._cmp(y)
    if isinstance(y, Ordered):
        return -y._cmp(x)
    if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
        return (x > y) - (x < y)
    raise ScalarDomainError(f"mixed-domain comparison: {type(x).__name__} vs {type(y).__name__}")


def scalar_mul(c, x):
    """Action of a field scalar ``c`` on the group element ``x``.

    Rationals act on every shipped domain (on Z[sqrt p] only when the result
    stays integral); a number-field scalar acts on its own field.
    """
    if type(c) is Fraction and type(x) is Fraction:
        return c * x
    if isinstance(x, (int, Fraction)):
        if isinstance(c, (int, Fraction)):
            return Fraction(c) * Fraction(x)
        if isinstance(c, NFElem):
            return c * Fraction(x)
        raise ScalarDomainError("unsupported scalar action on rationals")
    if isinstance(x, NFElem):
        if isinstance(c, (int, Fraction)):
            return x * Fraction(c)
        if isinstance(c, NFElem):
            return c * x
        raise ScalarDomainError("unsupported scalar action on number field")
    if isinstance(x, LexPair):
        return LexPair(scalar_mul(c, x.hi), scalar_mul(c, x.lo))
    if isinstance(x, QuadInt):
        if not isinstance(c, (int, Fraction)):
            raise ScalarDomainError("only rational scalars act on Z[sqrt p]")
        c = Fraction(c)
        na, nb = c * x.a, c * x.b
        if na.denominator != 1 or nb.denominator != 1:
            raise ScalarDomainError(f"{c} * {x!r} leaves Z[sqrt {x.p}]")
        return QuadInt(int(na), int(nb), x.p)
    raise ScalarDomainError(f"no scalar action on {type(x).__name__}")


def zero_like(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(0)
    if isinstance(x, NFElem):
        return x.field.zero()
    if isinstance(x, LexPair):
        return LexPair(zero_like(x.hi), zero_like(x.lo))
    if isinstance(x, QuadInt):
        return QuadInt(0, 0, x.p)
    raise ScalarDomainError(f"no zero for {type(x).__name__}")


# --------------------------------------------------------------------------
# text serialization (the grammar used verbatim in CLI JSON)


def format_scalar(x) -> str:
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, LexPair):
        return f"({format_scalar(x.hi)};{format_scalar(x.lo)})"
    if isinstance(x, QuadInt):
        if x.b == 0:
            return str(x.a)
        tail = f"{x.b}√{x.p}" if x.b >= 0 else f"-{-x.b}√{x.p}"
        if x.a == 0:
            return tail
        joiner = "+" if x.b >= 0 else ""
        return f"{x.a}{joiner}{tail}"
    if isinstance(x, NFElem):
        return x.name_str()
    if isinstance(x, Infinity):
        return "+inf"
    raise ScalarDomainError(f"cannot format {type(x).__name__}")


def scalar_to_json(x):
    """JSON value for a scalar: a string, or an object for number fields."""
    if isinstance(x, NFElem):
        return {
            "minpoly": x.field.minpoly_str(),
            "coeffs": [format_scalar(c) for c in x.coeffs],
        }
    return format_scalar(x)


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def parse_scalar(text: str):
    """Parse the plain-text grammar: rationals, ``(hi;lo)`` and ``a+b<sqrt>p``."""
    text = text.strip()
    if text == "+inf":
        return INF
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"malformed lex pair: {text!r}")
        body, depth, cut = text[1:-1], 0, None
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == ";" and depth == 0:
                cut = i
                break
        if cut is None:
            raise ValueError(f"malformed lex pair: {text!r}")
        return LexPair(parse_scalar(body[:cut]), parse_scalar(body[cut + 1 :]))
    for radical in ("√", "r"):
        if radical in text:
            head, _, ptext = text.rpartition(radical)
            p = int(ptext)
            head = head.rstrip()
            if head in ("", "+"):
                return QuadInt(0, 1, p)
            if head == "-":
                return QuadInt(0, -1, p)
            body = head
            # split off the b coefficient: the sign directly before it
            k = max(body.rfind("+", 1), body.rfind("-", 1))
            if k <= 0:
                return QuadInt(0, int(body), p)
            a_text, b_text = body[:k], body[k:]
            b_text = b_text.rstrip()
            if b_text in ("+", "-"):
                b_text += "1"
            return QuadInt(int(a_text), int(b_text), p)
    return parse_rational(text)
