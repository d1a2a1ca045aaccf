"""Characteristic 2 and 3 arithmetic with a Tits endomorphism.

The coefficient field is the prime field F_p, on which the endomorphism
restricts to the identity (so its square is the Frobenius, as required).
Exponents of the twisted Laurent model live in Z[sqrt p]; the endomorphism
multiplies exponents by sqrt p, hence values of the attached valuation scale
by sqrt p as well.  The parameter groups of the rank-one twisted root data,
their anisotropic norms, the closed-form minimum formulas and the
conjugation scalings are all evaluated here exactly.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from .scalars import INF, Infinity, NFElem, QuadInt, ScalarDomainError, SQRT_2P2_FIELD, compare, sqrt2_in_quartic
from .scalars import _quad_sign, _read_radical, _write_radical


class TwistedAlgebraError(ValueError):
    pass


NuValue = Union[QuadInt, Infinity]


# --------------------------------------------------------------------------
# finite-support twisted Laurent series over F_p, exponents in Z[sqrt p]


@dataclass(frozen=True)
class LaurentElement:
    """Finite F_p-combination of powers x^(a + b sqrt p), canonically sorted."""

    p: int
    terms: Tuple[Tuple[QuadInt, int], ...]

    def is_zero(self) -> bool:
        return not self.terms

    def nu(self) -> NuValue:
        """Least exponent; +inf for the zero element."""
        if not self.terms:
            return INF
        return self.terms[0][0]

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        self._check(other)
        return LaurentElement(self.p, _merge(self.terms, other.terms, 1, self.p))

    def __neg__(self) -> "LaurentElement":
        p = self.p
        return LaurentElement(p, tuple([(e, p - c) for e, c in self.terms]))

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        self._check(other)
        return LaurentElement(self.p, _merge(self.terms, other.terms, -1, self.p))

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        self._check(other)
        p, xs, ys = self.p, self.terms, other.terms
        if len(ys) == 1:
            xs, ys = ys, xs
        if len(xs) == 1:
            # a monomial factor shifts every exponent by one amount: the order holds
            (e, c), = xs
            a, b = e.a, e.b
            return LaurentElement(p, tuple([(QuadInt(a + f.a, b + f.b, p), c * d % p) for f, d in ys]))
        acc: Dict[Tuple[int, int], int] = {}
        for e, c in xs:
            a, b = e.a, e.b
            for f, d in ys:
                key = (a + f.a, b + f.b)
                acc[key] = acc.get(key, 0) + c * d
        terms = [(QuadInt(a, b, p), c % p) for (a, b), c in acc.items() if c % p]
        terms.sort(key=_exponent)
        return LaurentElement(p, tuple(terms))

    def __pow__(self, n: int) -> "LaurentElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = laurent_one(self.p)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def theta(self) -> "LaurentElement":
        """The Tits endomorphism: exponents times sqrt p, identity on coefficients.

        Multiplying by sqrt p > 0 keeps the exponents' order, so the terms map in place."""
        # tuple() of a list, here and in negation and the monomial product: tuple() of a
        # generator over-allocates and then shrinks each result, and over a benchmark run
        # that left the heap ~1 MB larger at its peak
        return LaurentElement(self.p, tuple([(e.times_sqrt_p(), c) for e, c in self.terms]))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def inverse(self) -> "LaurentElement":
        if not self.is_monomial():
            raise TwistedAlgebraError(
                "only monomials are invertible in finite-support series"
            )
        e, c = self.terms[0]
        cinv = pow(c, self.p - 2, self.p) if self.p != 2 else c
        return _laurent_from_dict(self.p, {-e: cinv})

    def _check(self, other: "LaurentElement"):
        if self.p != other.p:
            raise TwistedAlgebraError("mixed characteristics")

    def __repr__(self):
        return format_laurent(self)


def _exponent(term):
    return term[0]


def _laurent_from_dict(p: int, d: Dict[QuadInt, int]) -> LaurentElement:
    """The canonical element of a dict of exponents: terms increasing, coefficients in 1..p-1.

    Every element enters through here, so the exponents' ring is checked once: the
    arithmetic reads their (a, b) parts over p without asking again."""
    for e in d:
        if not isinstance(e, QuadInt) or e.p != p:
            raise ScalarDomainError(f"exponent {e!r} does not lie in Z[sqrt {p}]")
    items = tuple(sorted(((e, c % p) for e, c in d.items() if c % p), key=_exponent))
    return LaurentElement(p, items)


def _merge(xs: tuple, ys: tuple, sign: int, p: int) -> tuple:
    """The canonical terms of xs + sign*ys, for canonical xs and ys: one pass over both."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        e, c = xs[i]
        f, d = ys[j]
        s = _quad_sign(e.a - f.a, e.b - f.b, p)
        if s < 0:
            out.append(xs[i])
            i += 1
        elif s > 0:
            out.append((f, sign * d % p))
            j += 1
        else:
            c = (c + sign * d) % p
            if c:
                out.append((e, c))
            i += 1
            j += 1
    out += xs[i:]
    out += ys[j:] if sign == 1 else [(f, -d % p) for f, d in ys[j:]]
    return tuple(out)


def laurent(p: int, d: Dict[QuadInt, int]) -> LaurentElement:
    return _laurent_from_dict(p, d)


def laurent_zero(p: int) -> LaurentElement:
    return LaurentElement(p, ())


def laurent_one(p: int) -> LaurentElement:
    return _laurent_from_dict(p, {QuadInt(0, 0, p): 1})


def monomial(p: int, a: int, b: int = 0, coeff: int = 1) -> LaurentElement:
    return _laurent_from_dict(p, {QuadInt(a, b, p): coeff})


def nu(x: LaurentElement) -> NuValue:
    return x.nu()


def theta(x: LaurentElement) -> LaurentElement:
    return x.theta()


# --------------------------------------------------------------------------
# the parameter groups


@dataclass(frozen=True)
class GroupKElem:
    """An element (s, t) of the characteristic-2 parameter group."""

    s: LaurentElement
    t: LaurentElement

    def __post_init__(self):
        if self.s.p != 2 or self.t.p != 2:
            raise TwistedAlgebraError("the (s, t)-group lives in characteristic 2")


@dataclass(frozen=True)
class GroupTElem:
    """An element (r, s, t) of the characteristic-3 parameter group."""

    r: LaurentElement
    s: LaurentElement
    t: LaurentElement

    def __post_init__(self):
        if not (self.r.p == self.s.p == self.t.p == 3):
            raise TwistedAlgebraError("the (r, s, t)-group lives in characteristic 3")


def identity_K() -> GroupKElem:
    return GroupKElem(laurent_zero(2), laurent_zero(2))


def identity_T() -> GroupTElem:
    z = laurent_zero(3)
    return GroupTElem(z, z, z)


def mul_K(g: GroupKElem, h: GroupKElem) -> GroupKElem:
    return GroupKElem(g.s + h.s + g.t.theta() * h.t, g.t + h.t)


def inv_K(g: GroupKElem) -> GroupKElem:
    return GroupKElem(g.s + g.t.theta() * g.t, g.t)


def mul_T(g: GroupTElem, h: GroupTElem) -> GroupTElem:
    r, s, t = g.r, g.s, g.t
    w, u, v = h.r, h.s, h.t
    return GroupTElem(
        r + w,
        s + u + r.theta() * w,
        t + v - r * u + s * w - r.theta() * r * w,
    )


def inv_T(g: GroupTElem) -> GroupTElem:
    return GroupTElem(-g.r, -g.s + g.r.theta() * g.r, -g.t)


# --------------------------------------------------------------------------
# norms and their valuations


def norm_R(s: LaurentElement, t: LaurentElement) -> LaurentElement:
    """t^(theta+2) + s t + s^theta in characteristic 2."""
    return t.theta() * t * t + s * t + s.theta()


def norm_N(r: LaurentElement, s: LaurentElement, t: LaurentElement) -> LaurentElement:
    """The seven-term characteristic-3 norm."""
    rth = r.theta()
    sth = s.theta()
    tth = t.theta()
    out = rth * r * sth
    out = out - r * tth
    out = out - rth * r * r * r * s
    out = out - r * r * s * s
    out = out + sth * s
    out = out + t * t
    out = out - rth * rth * r * r * r * r
    return out


def phi_K(g: GroupKElem) -> NuValue:
    return nu(norm_R(g.s, g.t))


def phi_T(g: GroupTElem) -> NuValue:
    return nu(norm_N(g.r, g.s, g.t))


def nu_R_closed(s: LaurentElement, t: LaurentElement) -> NuValue:
    """min{sqrt2 nu(s), (sqrt2 + 2) nu(t)} as a closed form."""
    vals = []
    if not s.is_zero():
        vals.append(s.nu().times_sqrt_p())
    if not t.is_zero():
        vals.append(QuadInt(2, 1, 2) * t.nu())
    return min(vals, default=INF)


def nu_N_closed(r: LaurentElement, s: LaurentElement, t: LaurentElement) -> NuValue:
    """min{(2 sqrt3 + 4) nu(r), (sqrt3 + 1) nu(s), 2 nu(t)} as a closed form."""
    vals = []
    if not r.is_zero():
        vals.append(QuadInt(4, 2, 3) * r.nu())
    if not s.is_zero():
        vals.append(QuadInt(1, 1, 3) * s.nu())
    if not t.is_zero():
        vals.append(2 * t.nu())
    return min(vals, default=INF)


# --------------------------------------------------------------------------
# conjugation scalings


def scaling_K(param: GroupKElem, g: GroupKElem) -> GroupKElem:
    """(u, v) -> (u R^theta, v R^(2-theta)) for a parameter with monomial norm."""
    R = norm_R(param.s, param.t)
    if not R.is_monomial():
        raise TwistedAlgebraError(
            "conjugation scaling needs a parameter whose norm is a monomial "
            "(general norms are not invertible in finite-support series)"
        )
    r_theta = R.theta()
    r_2_minus_theta = R * R * R.theta().inverse()
    return GroupKElem(g.s * r_theta, g.t * r_2_minus_theta)


def scaling_T(param: GroupTElem, g: GroupTElem) -> GroupTElem:
    """(w, u, v) -> (w N^(2-theta), u N^(theta-1), v N) for a monomial norm."""
    N = norm_N(param.r, param.s, param.t)
    if not N.is_monomial():
        raise TwistedAlgebraError(
            "conjugation scaling needs a parameter whose norm is a monomial "
            "(general norms are not invertible in finite-support series)"
        )
    n_2_minus_theta = N * N * N.theta().inverse()
    n_theta_minus_1 = N.theta() * N.inverse()
    return GroupTElem(g.r * n_2_minus_theta, g.s * n_theta_minus_1, g.t * N)


# --------------------------------------------------------------------------
# odd root groups of the octagonal case


@dataclass(frozen=True)
class OddRootValue:
    """A formal product sqrt(2 + sqrt 2) * value with value in Z[sqrt 2] or +inf."""

    value: NuValue

    def __add__(self, other: "OddRootValue") -> "OddRootValue":
        if isinstance(self.value, Infinity) or isinstance(other.value, Infinity):
            return OddRootValue(INF)
        return OddRootValue(self.value + other.value)

    def embed_quartic(self) -> NFElem:
        """The same quantity inside Q(sqrt(2+sqrt2)); +inf has no embedding."""
        if isinstance(self.value, Infinity):
            raise TwistedAlgebraError("+inf does not embed")
        zeta = SQRT_2P2_FIELD.gen()
        return zeta * (sqrt2_in_quartic() * self.value.b + self.value.a)

    def __repr__(self):
        return f"sqrt(2+sqrt2)*({self.value!r})"


def odd_root_valuation(k: LaurentElement) -> OddRootValue:
    """sqrt(2+sqrt2) * nu(k) on the odd root groups; +inf at zero."""
    if k.p != 2:
        raise TwistedAlgebraError("odd root groups live in characteristic 2")
    return OddRootValue(k.nu())


# --------------------------------------------------------------------------
# subgroup threshold checks


@dataclass(frozen=True)
class V1Report:
    case: str
    threshold: object
    samples: int
    failures: Tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def random_laurent(rng: random.Random, p: int, lo: int = -3, hi: int = 3) -> LaurentElement:
    n = rng.randint(0, 3)
    d: Dict[QuadInt, int] = {}
    for _ in range(n):
        d[QuadInt(rng.randint(lo, hi), rng.randint(lo, hi), p)] = rng.randint(1, p - 1)
    return _laurent_from_dict(p, d)


def random_K(rng: random.Random, lo: int = -3, hi: int = 3) -> GroupKElem:
    return GroupKElem(random_laurent(rng, 2, lo, hi), random_laurent(rng, 2, lo, hi))


def random_T(rng: random.Random, lo: int = -3, hi: int = 3) -> GroupTElem:
    return GroupTElem(
        random_laurent(rng, 3, lo, hi),
        random_laurent(rng, 3, lo, hi),
        random_laurent(rng, 3, lo, hi),
    )


def _sample_at_least(rng: random.Random, case: str, k) -> object:
    lo = 0 if compare(k, QuadInt(0, 0, 2 if case in "BF" else 3)) >= 0 else -3
    for _ in range(10_000):
        g = random_K(rng, lo, lo + 5) if case in ("B", "F") else random_T(rng, lo, lo + 5)
        phi = phi_K(g) if case in ("B", "F") else phi_T(g)
        if compare(phi, k) >= 0:
            return g
    raise TwistedAlgebraError("could not sample above the threshold")  # pragma: no cover


def check_V1(case: str, k, samples: int = 1000, seed: int = 0) -> V1Report:
    """Sampled closure of the threshold set under products and inverses."""
    if case not in ("B", "F", "G"):
        raise TwistedAlgebraError("case must be B, F or G")
    rng = random.Random(seed)
    failures = []
    if case in ("B", "F"):
        mul, inv, phi = mul_K, inv_K, phi_K
    else:
        mul, inv, phi = mul_T, inv_T, phi_T
    for _ in range(samples):
        g = _sample_at_least(rng, case, k)
        h = _sample_at_least(rng, case, k)
        if compare(phi(mul(g, h)), k) < 0:
            failures.append(("product", g, h))
        if compare(phi(inv(g)), k) < 0:
            failures.append(("inverse", g))
    return V1Report(case, k, samples, tuple(failures))


# --------------------------------------------------------------------------
# two-variable polynomial model of the valuation


@dataclass(frozen=True)
class TwoVarPoly:
    """A polynomial over F_p in s, t with nu = min(i + sqrt p * j) over its support."""

    p: int
    terms: Tuple[Tuple[Tuple[int, int], int], ...]

    def is_zero(self) -> bool:
        return not self.terms

    def nu(self) -> NuValue:
        if not self.terms:
            return INF
        best = None
        for (i, j), _ in self.terms:
            v = QuadInt(i, j, self.p)
            if best is None or v < best:
                best = v
        return best

    def __add__(self, other: "TwoVarPoly") -> "TwoVarPoly":
        acc = dict(self.terms)
        for ij, c in other.terms:
            acc[ij] = (acc.get(ij, 0) + c) % self.p
        return _poly2_from_dict(self.p, acc)

    def __mul__(self, other: "TwoVarPoly") -> "TwoVarPoly":
        acc: Dict[tuple, int] = {}
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in other.terms:
                key = (i1 + i2, j1 + j2)
                acc[key] = (acc.get(key, 0) + c1 * c2) % self.p
        return _poly2_from_dict(self.p, acc)

    def theta(self) -> "TwoVarPoly":
        """s -> t and t -> s^p; identity on coefficients."""
        return _poly2_from_dict(self.p, {(self.p * j, i): c for (i, j), c in self.terms})


def _poly2_from_dict(p: int, d: Dict[tuple, int]) -> TwoVarPoly:
    return TwoVarPoly(p, tuple(sorted((ij, c % p) for ij, c in d.items() if c % p)))


def poly2(p: int, d: Dict[tuple, int]) -> TwoVarPoly:
    for i, j in d:
        if i < 0 or j < 0:
            raise TwistedAlgebraError("polynomial exponents must be non-negative")
    return _poly2_from_dict(p, d)


def valuation_2var(num: TwoVarPoly, den: TwoVarPoly) -> NuValue:
    """nu of a quotient of two-variable polynomials; rejects a zero denominator."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return INF
    return num.nu() - den.nu()


# --------------------------------------------------------------------------
# literal grammar: terms x^{a+br} joined by +, with r meaning sqrt p


def _parse_exponent(text: str, p: int) -> QuadInt:
    if "r" not in text:
        return QuadInt(int(text), 0, p)
    a, b, rest = _read_radical(text, "r")
    if rest:
        raise ValueError(f"unexpected {rest!r} after the radical")
    return QuadInt(a, b, p)


def _split_terms(text: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "+" and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def parse_laurent(text: str, p: int) -> LaurentElement:
    """Parse the term grammar, e.g. ``x^1+x^{2+1r}`` or ``2x^{-1r}+1``."""
    text = text.replace(" ", "")
    if text in ("0", ""):
        return laurent_zero(p)
    acc: Dict[QuadInt, int] = {}
    for term in _split_terms(text):
        m = re.match(r"^(\d+)?\*?(x(?:\^(?:\{([^}]*)\}|(-?\d+)))?)?$", term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise TwistedAlgebraError(f"malformed term {term!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        try:
            if m.group(2) is None:
                e = QuadInt(0, 0, p)
            elif m.group(3) is not None:
                e = _parse_exponent(m.group(3), p)
            elif m.group(4) is not None:
                e = QuadInt(int(m.group(4)), 0, p)
            else:
                e = QuadInt(1, 0, p)
        except ValueError as exc:
            raise TwistedAlgebraError(f"malformed exponent in {term!r}: {exc}") from None
        acc[e] = (acc.get(e, 0) + coeff) % p
    return _laurent_from_dict(p, acc)


def format_exponent(e: QuadInt) -> str:
    return str(e.a) if e.b == 0 else _write_radical(e.a, e.b, "r")


def format_laurent(x: LaurentElement) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for e, c in x.terms:
        prefix = "" if c == 1 else str(c)
        if e.is_zero():
            parts.append(str(c))
        else:
            parts.append(f"{prefix}x^{{{format_exponent(e)}}}")
    return "+".join(parts)


def format_nu(v: NuValue) -> str:
    if isinstance(v, Infinity):
        return "+inf"
    return format_exponent(v)
