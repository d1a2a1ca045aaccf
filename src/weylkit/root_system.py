"""Finite root systems, Weyl groups, lattices and co-weights in exact arithmetic.

Roots are stored in simple-root coordinates over the base field F (rationals
for the crystallographic types, a real cyclotomic field for the dihedral
ones).  Co-roots are never materialized: every formula goes through the
pairing ``<x, a^> = 2 (x, a) / (a, a)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, Sequence, Tuple

from .scalars import (
    Fraction as _Q,
    LexPair,
    NFElem,
    NumberField,
    Poly,
    ScalarDomainError,
    count_real_roots,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_trim,
    scalar_mul,
    sign,
    zero_like,
)


class RootSystemError(ValueError):
    """Unsupported label or an operation outside a system's contract."""


# --------------------------------------------------------------------------
# generic exact linear algebra over a field (Fraction or NFElem entries)


def _f_is_zero(c) -> bool:
    if isinstance(c, NFElem):
        return c.is_zero()
    return c == 0


def solve_linear(A: Sequence[Sequence], rhs: Sequence[Sequence]) -> list[list]:
    """Solve A X = B for several right-hand sides given as columns of ``rhs``."""
    n = len(A)
    m = len(rhs)
    aug = [list(A[i]) + [rhs[j][i] for j in range(m)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not _f_is_zero(aug[r][col])), None)
        if piv is None:
            raise RootSystemError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and not _f_is_zero(aug[r][col]):
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [[aug[i][n + j] for i in range(n)] for j in range(m)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return tuple(
        tuple(_sum_f([A[i][t] * B[t][j] for t in range(k)]) for j in range(m)) for i in range(n)
    )


def _sum_f(vals):
    acc = vals[0]
    for v in vals[1:]:
        acc = acc + v
    return acc


def apply_matrix(M, v):
    """Image of a coordinate vector under an F-matrix; works over F and over Lambda."""
    return LinearForms(M).apply(v)


def _rational_parts(vals):
    """(nums, den) with vals[t] == nums[t] / den, or None if a value is not rational."""
    dens = []
    for v in vals:
        t = type(v)
        if t is Fraction:
            dens.append(v._denominator)
        elif t is int:
            dens.append(1)
        else:
            return None
    den = lcm(*dens)
    return [v._numerator * (den // v._denominator) if type(v) is Fraction else v * den for v in vals], den


def _integer_rows(rows):
    """(integer rows, E) with rows[i][j] == int_rows[i][j] / E for rational rows."""
    den = lcm(*(c.denominator for row in rows for c in row))
    return tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in rows), den


class LinearForms:
    """F-rows applied to Lambda-vectors by integer dot products.

    This is the fraction-free scheme of exact linear algebra (Bareiss 1968):
    the rows are stored once as integers over one common denominator E.
    Applying them to a vector x splits x into rational components -- a
    Fraction is one; an NFElem of the rows' field gives its coefficients,
    acted on through the multiplication matrices of the row entries; a
    LexPair gives hi and lo separately -- clears one common denominator D
    of those, takes integer dot products and builds each result once as
    m / (D E), of the same value and type as the per-term sum.  Rows over a
    number field must have all their entries in that field.

    Any other vector (QuadInt, a foreign field, mixed domains) takes the
    per-term ``scalar_mul`` loop, which defines the result.  ``scale``
    multiplies every result; that loop applies it after the sum.
    """

    def __init__(self, rows, scale=1):
        self.rows = tuple(tuple(r) for r in rows)
        self.scale = scale
        entries = [c for row in self.rows for c in row]
        scaled = [tuple(c * scale for c in row) for row in self.rows] if scale != 1 else self.rows
        self.field = None
        self._int = None  # rational rows: integer rows; field rows: per row, one per coefficient
        if all(type(c) in (Fraction, int) for c in entries):
            self._int, self._den = _integer_rows(scaled)
        elif entries and all(type(c) is NFElem for c in entries):
            field = entries[0].field
            if all(c.field is field for c in entries):
                self.field = field
                self._scaled = scaled
                flat, self._den = _integer_rows([c.coeffs for row in scaled for c in row])
                # row i, coefficient r: the r-th coefficients of the row entries
                n, d = len(scaled[0]), field.degree
                self._int = tuple(
                    tuple(tuple(flat[i * n + j][r] for j in range(n)) for r in range(d))
                    for i in range(len(scaled))
                )
        self._full = None

    def _field_rows(self):
        """Rows acting on the flattened coefficients of field points (built on first use)."""
        if self._full is None:
            field = self.field
            powers = [field.elem([0] * k + [1]) for k in range(field.degree)]
            # entry c acts on the coefficient vector of x by its multiplication
            # matrix: coefficient r of c * zeta^k, for k = 0 .. degree - 1
            blocks = [[[(c * z).coeffs for z in powers] for c in row] for row in self._scaled]
            flat, den = _integer_rows(
                [[col[r] for block in row for col in block] for row in blocks for r in range(field.degree)]
            )
            d = field.degree
            self._full = (tuple(flat[i * d : (i + 1) * d] for i in range(len(blocks))), den)
        return self._full

    def _images(self, vals):
        """(integer images, den): row i applied to vals is images[i] / den.

        An image is an int for rational rows and a tuple of coefficients for
        field rows.  None when vals are not in the rows' domain.
        """
        if self._int is None:
            return None
        parts = _rational_parts(vals)
        field = self.field
        if parts is not None:
            nums, den = parts
            if field is None:
                return [sum(map(mul, row, nums)) for row in self._int], den * self._den
            return [tuple(sum(map(mul, r, nums)) for r in rows) for rows in self._int], den * self._den
        if field is None:
            return None
        pad = (0,) * (field.degree - 1)
        flat = []
        for v in vals:
            t = type(v)
            if t is NFElem and v.field is field:
                flat.extend(v.coeffs)
            elif t is Fraction or t is int:
                flat.append(v)
                flat.extend(pad)
            else:
                return None
        parts = _rational_parts(flat)
        if parts is None:
            return None
        nums, den = parts
        rows, row_den = self._field_rows()
        return [tuple(sum(map(mul, r, nums)) for r in block) for block in rows], den * row_den

    def _build(self, m, den):
        if self.field is None:
            return Fraction(m, den)
        return NFElem(self.field, tuple(Fraction(c, den) for c in m))

    def _sign(self, m) -> int:
        if self.field is None:
            return (m > 0) - (m < 0)
        return self.field.int_sign(m)

    def _components(self, x):
        """[(images, den)] for x, or for the hi and the lo parts of lex pairs; None off the kernel."""
        if x and all(type(v) is LexPair for v in x):
            parts = [self._images([v.hi for v in x]), self._images([v.lo for v in x])]
        else:
            parts = [self._images(x)]
        return None if None in parts else parts

    def _per_term(self, x) -> tuple:
        out = []
        for row in self.rows:
            acc = None
            for c, xi in zip(row, x):
                term = scalar_mul(c, xi)
                acc = term if acc is None else acc + term
            out.append(acc if self.scale == 1 else scalar_mul(self.scale, acc))
        return tuple(out)

    def apply(self, x) -> tuple:
        """The values row_i . x, one per row."""
        parts = self._components(x)
        if parts is None:
            return self._per_term(x)
        values = [[self._build(m, den) for m in images] for images, den in parts]
        return tuple(map(LexPair, *values)) if len(parts) == 2 else tuple(values[0])

    def abs_sum(self, x):
        """sum_i |row_i . x|, every absolute value decided on the integer images."""
        parts = self._components(x)
        if parts is None:
            acc = zero_like(x[0]) if x else Fraction(0)
            for v in self._per_term(x):
                acc = acc + abs(v)
            return acc
        signs = [self._sign(m) for m in parts[0][0]]
        if len(parts) == 2:  # a lex pair takes the sign of its first nonzero part
            signs = [s or self._sign(m) for s, m in zip(signs, parts[1][0])]
        values = [self._build(self._signed_sum(images, signs), den) for images, den in parts]
        return LexPair(*values) if len(parts) == 2 else values[0]

    def _signed_sum(self, images, signs):
        if self.field is None:
            return sum(map(mul, signs, images))
        return tuple(sum(map(mul, signs, coeff)) for coeff in zip(*images))


# --------------------------------------------------------------------------
# real cyclotomic minimal polynomials for the dihedral systems


def _cyclotomic(m: int) -> Poly:
    num: Poly = tuple([_Q(-1)] + [_Q(0)] * (m - 1) + [_Q(1)])  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = poly_divmod(num, _cyclotomic(d))
            assert not rem
    return num


def _chebyshev_like(k: int) -> Poly:
    # q_k(x) = z^k + z^-k written in x = z + 1/z
    if k == 0:
        return (_Q(2),)
    if k == 1:
        return (_Q(0), _Q(1))
    prev, cur = _chebyshev_like(0), _chebyshev_like(1)
    for _ in range(k - 1):
        prev, cur = cur, poly_add(poly_mul((_Q(0), _Q(1)), cur), tuple(-c for c in prev))
    return cur


def real_cyclotomic_minpoly(m: int) -> Poly:
    """Minimal polynomial of 2 cos(2 pi / m), for m > 2."""
    phi = _cyclotomic(m)
    e = (len(phi) - 1) // 2
    out: Poly = (phi[e],)
    for k in range(1, e + 1):
        out = poly_add(out, tuple(phi[e + k] * c for c in _chebyshev_like(k)))
    return poly_trim(out)


def dihedral_cosine_field(n: int) -> NumberField:
    """The field Q(2 cos(pi/n)) with its distinguished positive root isolated."""
    minpoly = real_cyclotomic_minpoly(2 * n)
    approx = 2.0 * math.cos(math.pi / n)
    width = Fraction(1, 10**6)
    center = Fraction(approx).limit_denominator(10**9)
    for attempt in range(40):
        lo, hi = center - width, center + width
        try:
            return NumberField(f"2cos(pi/{n})", minpoly, (lo, hi))
        except ValueError:
            width = width * 3 if count_real_roots(minpoly, lo, hi) == 0 else width / 3
    raise RootSystemError(f"could not isolate 2cos(pi/{n})")  # pragma: no cover


# --------------------------------------------------------------------------
# Weyl elements


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: a word in simple reflections plus its exact matrix."""

    word: Tuple[int, ...]
    matrix: Tuple[Tuple[object, ...], ...]

    def apply(self, x):
        return apply_matrix(self.matrix, x)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def length(self) -> int:
        return len(self.word)


# --------------------------------------------------------------------------
# the root system proper


_AN_RE = re.compile(r"^A(\d+)$")
_I2_RE = re.compile(r"^I2\((\d+)\)$")

_SPHERICAL_ORDER = {"B2": 8, "C2": 8, "G2": 12, "F4": 1152}
_POSITIVE_COUNT = {"B2": 4, "C2": 4, "G2": 6, "F4": 24}


class RootSystem:
    def __init__(self, label: str):
        m_an = _AN_RE.match(label)
        m_i2 = _I2_RE.match(label)
        self.label = label
        self.field: NumberField | None = None
        if m_an:
            n = int(m_an.group(1))
            if n < 1:
                raise RootSystemError(label)
            self.rank = n
            self.crystallographic = True
            g = [[_Q(0)] * n for _ in range(n)]
            for i in range(n):
                g[i][i] = _Q(2)
                if i + 1 < n:
                    g[i][i + 1] = g[i + 1][i] = _Q(-1)
            self.gram = tuple(tuple(r) for r in g)
            self.weyl_order = math.factorial(n + 1)
            self._expected_positives = n * (n + 1) // 2
        elif label in ("B2", "C2", "G2", "F4"):
            self.rank = 4 if label == "F4" else 2
            self.crystallographic = True
            grams = {
                "B2": ((2, -1), (-1, 1)),
                "C2": ((2, -2), (-2, 4)),
                "G2": ((2, -3), (-3, 6)),
                "F4": (
                    (2, -1, 0, 0),
                    (-1, 2, -1, 0),
                    (0, -1, 1, Fraction(-1, 2)),
                    (0, 0, Fraction(-1, 2), 1),
                ),
            }
            self.gram = tuple(tuple(_Q(x) for x in row) for row in grams[label])
            self.weyl_order = _SPHERICAL_ORDER[label]
            self._expected_positives = _POSITIVE_COUNT[label]
        elif m_i2:
            n = int(m_i2.group(1))
            if n < 3:
                raise RootSystemError(f"I2(n) needs n >= 3, got {n}")
            self.rank = 2
            # A2, B2 and G2 are the crystallographic forms of I2(3), I2(4) and
            # I2(6); this equal-length realisation has number-field Cartan
            # entries, which the lattice code paths cannot take
            self.crystallographic = False
            self.field = dihedral_cosine_field(n)
            c = self.field.gen()
            one = self.field.one()
            half = Fraction(1, 2)
            self.gram = ((one, c * -half), (c * -half, one))
            self.weyl_order = 2 * n
            self._expected_positives = n
        else:
            raise RootSystemError(f"unsupported label: {label}")

        self._gram_forms = LinearForms(self.gram)
        # one-row forms per F-vector: <x, alpha^> and (x, y)
        self._coroot_forms: Dict[tuple, LinearForms] = {}
        self._bilinear_forms: Dict[tuple, LinearForms] = {}
        self.simple_roots = tuple(
            tuple(self._f(1 if i == j else 0) for j in range(self.rank)) for i in range(self.rank)
        )
        self.cartan = tuple(
            tuple(self.pairing_f(self.simple_roots[j], i) for j in range(self.rank))
            for i in range(self.rank)
        )
        if self.crystallographic and not all(
            c.denominator == 1 for row in self.cartan for c in row
        ):
            raise RootSystemError(f"non-integral Cartan data for {label}")  # pragma: no cover
        # column k without its zero entries: (j, <alpha_k, alpha_j^>)
        self._cartan_columns = tuple(
            tuple((j, row[k]) for j, row in enumerate(self.cartan) if not _f_is_zero(row[k]))
            for k in range(self.rank)
        )
        self._reflection_matrices = tuple(self._simple_reflection_matrix(i) for i in range(self.rank))
        self._reflection_forms = tuple(LinearForms(m) for m in self._reflection_matrices)
        self.positive_roots = self._positive_closure()
        if len(self.positive_roots) != self._expected_positives:
            raise RootSystemError(
                f"{label}: got {len(self.positive_roots)} positive roots, "
                f"expected {self._expected_positives}"
            )  # pragma: no cover
        simple_coroots = [self.coroot_vec(a) for a in self.simple_roots]
        #: <x, alpha^> for the simple roots, in order
        self.simple_coroot_forms = LinearForms(simple_coroots)
        #: the heights x^alpha = 1/2 <x, alpha^> over the simple roots
        self.height_forms = LinearForms(simple_coroots, scale=Fraction(1, 2))
        #: <x, alpha^> for the positive roots, in order: the rows of the metric
        self.coroot_forms = LinearForms(self.coroot_vec(a) for a in self.positive_roots)
        self._coweights: tuple | None = None
        self._w0: WeylElement | None = None
        self._group: list[WeylElement] | None = None

    # -- scalar helpers ----------------------------------------------------

    def _f(self, x):
        """Lift a rational into the base field F of this system."""
        if self.field is not None:
            return self.field.elem([Fraction(x)])
        return Fraction(x)

    def f_zero(self):
        return self._f(0)

    # -- bilinear data -----------------------------------------------------

    def bilinear_f(self, x, y):
        """(x, y) for two F-coordinate vectors."""
        acc = self.f_zero()
        for i in range(self.rank):
            for j in range(self.rank):
                acc = acc + x[i] * self.gram[i][j] * y[j]
        return acc

    def bilinear(self, x, y_f):
        """(x, y) for a Lambda-vector x against an F-vector y."""
        key = tuple(y_f)
        forms = self._bilinear_forms.get(key)
        if forms is None:
            forms = self._bilinear_forms[key] = LinearForms([self._gram_forms.apply(key)])
        return forms.apply(x)[0]

    def norm_sq(self, alpha):
        return self.bilinear_f(alpha, alpha)

    def pairing_f(self, x_f, i: int):
        """<x, alpha_i^> for an F-vector; returns an F value."""
        alpha = self.simple_roots[i]
        return self.bilinear_f(x_f, alpha) * 2 / self.norm_sq(alpha)

    def _coroot_form(self, alpha) -> LinearForms:
        key = tuple(alpha)
        forms = self._coroot_forms.get(key)
        if forms is None:
            nn = self.norm_sq(key)
            row = tuple(c * 2 / nn for c in self._gram_forms.apply(key))
            forms = self._coroot_forms[key] = LinearForms([row])
        return forms

    def coroot_vec(self, alpha) -> tuple:
        """Coefficients c with <x, alpha^> = sum_j c_j x_j."""
        return self._coroot_form(alpha).rows[0]

    def pairing(self, x, alpha):
        """<x, alpha^> for a Lambda-point x (linear extension of co-root evaluation)."""
        return self._coroot_form(alpha).apply(x)[0]

    def root_level(self, x, alpha):
        """(alpha, x) for a Lambda-point x; indexes the affine wall family."""
        return self.bilinear(x, alpha)

    # -- reflections ---------------------------------------------------------

    def reflect(self, alpha, x):
        """s_alpha(x) = x - <x, alpha^> alpha; x may live over F or Lambda."""
        if all(_f_is_zero(a) for a in alpha):
            raise RootSystemError("reflection in the zero vector")
        p = self.pairing(x, alpha)
        return tuple(xi - scalar_mul(aj, p) for xi, aj in zip(x, alpha))

    def affine_reflect(self, alpha, k, x):
        """r_{alpha,k}(x) = s_alpha(x) + k * 2/(alpha,alpha) * alpha.

        The fixed locus is the wall {y : (alpha, y) = k}.
        """
        refl = self.reflect(alpha, x)
        nn = self.norm_sq(alpha)
        return tuple(r + scalar_mul(aj * 2 / nn, k) for r, aj in zip(refl, alpha))

    def _simple_reflection_matrix(self, i: int):
        cols = [self.reflect(self.simple_roots[i], self.simple_roots[j]) for j in range(self.rank)]
        return tuple(tuple(cols[j][r] for j in range(self.rank)) for r in range(self.rank))

    def simple_reflection(self, i: int) -> WeylElement:
        return WeylElement((i,), self._reflection_matrices[i])

    def identity_element(self) -> WeylElement:
        eye = tuple(
            tuple(self._f(1 if i == j else 0) for j in range(self.rank)) for i in range(self.rank)
        )
        return WeylElement((), eye)

    def multiply(self, w: WeylElement, v: WeylElement) -> WeylElement:
        return WeylElement(w.word + v.word, mat_mul(w.matrix, v.matrix))

    def inverse(self, w: WeylElement) -> WeylElement:
        out = self.identity_element()
        for i in reversed(w.word):
            out = self.multiply(out, self.simple_reflection(i))
        return out

    # -- roots ----------------------------------------------------------------

    def _positive_closure(self):
        seen = set(self.simple_roots) | {tuple(-c for c in a) for a in self.simple_roots}
        frontier = list(seen)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(self.rank):
                    img = self._reflection_forms[i].apply(beta)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        positives = [b for b in seen if all(sign(c) >= 0 for c in b)]
        return tuple(sorted(positives))

    def all_roots(self):
        return self.positive_roots + tuple(tuple(-c for c in b) for b in self.positive_roots)

    def highest_root(self):
        if not self.crystallographic:
            raise RootSystemError("highest root needs a crystallographic system")
        dominant = [
            b
            for b in self.positive_roots
            if all(sign(self.pairing(b, a)) >= 0 for a in self.simple_roots)
        ]
        return max(dominant, key=lambda b: sum(b))

    def coroot_of(self, alpha) -> tuple:
        """The co-root 2 alpha/(alpha,alpha) as a coordinate vector."""
        nn = self.norm_sq(alpha)
        return tuple(a * 2 / nn for a in alpha)

    # -- orbits and dominance ---------------------------------------------

    def weyl_orbit(self, x) -> tuple:
        seen = {tuple(x)}
        frontier = [tuple(x)]
        while frontier:
            nxt = []
            for p in frontier:
                for a in self.simple_roots:
                    img = self.reflect(a, p)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return tuple(sorted(seen))

    def dominant_walk(self, x) -> tuple:
        """(x_plus, word) with s_word[0] ... s_word[-1] . x = x_plus dominant.

        The walk keeps the pairings p_i = <x, alpha_i^> beside x.  Reflecting in
        a simple root alpha_k changes only coordinate k of x (alpha_k is a unit
        vector in simple-root coordinates) and moves each pairing by a Cartan
        entry: p_j <- p_j - <alpha_k, alpha_j^> p_k.  So the pairings are
        computed once, not once per step, and no Weyl matrix is built.
        """
        cur = list(x)
        pairs = list(self.simple_coroot_forms.apply(cur))
        word: list[int] = []
        for _ in range(len(self.positive_roots) + 1):
            k = next((i for i, p in enumerate(pairs) if sign(p) < 0), None)
            if k is None:
                word.reverse()
                return tuple(cur), tuple(word)
            pk = pairs[k]
            cur[k] = cur[k] - pk
            for j, c in self._cartan_columns[k]:
                pairs[j] = pairs[j] - scalar_mul(c, pk)
            word.append(k)
        raise RootSystemError("dominance walk did not terminate")  # pragma: no cover

    def dominant_rep(self, x) -> tuple:
        """(x_plus, w) with w.x = x_plus dominant."""
        xp, word = self.dominant_walk(x)
        w = self.identity_element()
        for k in reversed(word):
            w = self.multiply(self.simple_reflection(k), w)
        return xp, w

    def is_dominant(self, x) -> bool:
        return all(sign(self.pairing(x, a)) >= 0 for a in self.simple_roots)

    def interior_dominant_f(self) -> tuple:
        """A regular dominant F-vector (sum of the fundamental co-weights)."""
        cw = self.fundamental_coweights()
        return tuple(_sum_f([cw[i][j] for i in range(self.rank)]) for j in range(self.rank))

    def longest_element(self) -> WeylElement:
        if self._w0 is None:
            d = self.interior_dominant_f()
            neg = tuple(-c for c in d)
            _, w = self.dominant_rep(neg)
            if len(w.word) != len(self.positive_roots):
                raise RootSystemError("longest element has wrong length")  # pragma: no cover
            self._w0 = w
        return self._w0

    def weyl_group(self) -> list[WeylElement]:
        """All Weyl elements, BFS by word length (canonical reduced words)."""
        if self._group is None:
            if self.field is None:
                group = self._integral_weyl_group()
            else:
                ident = self.identity_element()
                seen: Dict[tuple, WeylElement] = {ident.matrix: ident}
                frontier = [ident]
                while frontier:
                    nxt = []
                    for w in frontier:
                        for i in range(self.rank):
                            cand = self.multiply(w, self.simple_reflection(i))
                            if cand.matrix not in seen:
                                seen[cand.matrix] = cand
                                nxt.append(cand)
                    frontier = nxt
                group = seen.values()
            self._group = sorted(group, key=lambda w: (len(w.word), w.word))
            if len(self._group) != self.weyl_order:
                raise RootSystemError("Weyl group enumeration mismatch")  # pragma: no cover
        return self._group

    def _integral_weyl_group(self) -> list[WeylElement]:
        """The BFS of ``weyl_group`` on integer matrices (systems over the rationals).

        In simple-root coordinates s_i = I - e_i c_i with c_i row i of the
        Cartan matrix, so M s_i subtracts M[r][i] * c_i from each row r of M.
        The BFS order, and so the first-found words, are those of the
        generic search; each Fraction matrix is built once at the end.
        """
        n = self.rank
        cartan = [[int(c) for c in row] for row in self.cartan]
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        words: Dict[tuple, tuple] = {ident: ()}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                for i, ci in enumerate(cartan):
                    cand = tuple(tuple(v - row[i] * c for v, c in zip(row, ci)) for row in m)
                    if cand not in words:
                        words[cand] = words[m] + (i,)
                        nxt.append(cand)
            frontier = nxt
        # F4's 4,608 matrix rows hold 240 distinct rows of a few distinct
        # integers: each is built once and shared
        as_q = {v: _Q(v) for m in words for row in m for v in row}
        rows = {row: tuple(as_q[v] for v in row) for m in words for row in m}
        return [WeylElement(word, tuple(rows[row] for row in m)) for m, word in words.items()]

    def length_by_inversions(self, w: WeylElement) -> int:
        negs = 0
        for beta in self.positive_roots:
            img = w.apply(beta)
            if all(sign(c) <= 0 for c in img):
                negs += 1
        return negs

    # -- lattices -----------------------------------------------------------

    def fundamental_coweights(self) -> tuple:
        """Vectors with (beta_j, cw_i) = delta_ij for simple beta_j."""
        if self._coweights is None:
            rhs = [
                [self._f(1 if i == j else 0) for i in range(self.rank)] for j in range(self.rank)
            ]
            sols = solve_linear(self.gram, rhs)
            self._coweights = tuple(tuple(col) for col in sols)
        return self._coweights

    def fundamental_coweight(self, i: int) -> tuple:
        return self.fundamental_coweights()[i]

    def _require_rational_point(self, x):
        for c in x:
            if not isinstance(c, (int, Fraction)):
                raise ScalarDomainError("lattice membership needs rational coordinates")

    def coroot_lattice_member(self, x) -> bool:
        if not self.crystallographic:
            raise RootSystemError("co-root lattice needs a crystallographic system")
        self._require_rational_point(x)
        for i, c in enumerate(x):
            k = Fraction(c) * self.gram[i][i] / 2
            if k.denominator != 1:
                return False
        return True

    def root_lattice_member(self, x) -> bool:
        if not self.crystallographic:
            raise RootSystemError("root lattice needs a crystallographic system")
        self._require_rational_point(x)
        return all(Fraction(c).denominator == 1 for c in x)

    def weight_lattice_member(self, x) -> bool:
        if not self.crystallographic:
            raise RootSystemError("weight lattice needs a crystallographic system")
        self._require_rational_point(x)
        for a in self.simple_roots:
            v = self.pairing(x, a)
            if Fraction(v).denominator != 1:
                return False
        return True

    def coweight_lattice_member(self, x) -> bool:
        """Membership in P(R^), which is exactly the set of special vertices."""
        if not self.crystallographic:
            raise RootSystemError("co-weight lattice needs a crystallographic system")
        self._require_rational_point(x)
        for a in self.simple_roots:
            v = self.root_level(x, a)
            if Fraction(v).denominator != 1:
                return False
        return True

    def coroot_coset_member(self, x, y) -> bool:
        """Whether x - y lies in the co-root lattice."""
        diff = tuple(Fraction(a) - Fraction(b) for a, b in zip(x, y))
        return self.coroot_lattice_member(diff)

    def zero_point(self) -> tuple:
        return tuple(_Q(0) for _ in range(self.rank))

    def __repr__(self):
        return f"RootSystem({self.label})"


_CACHE: Dict[str, RootSystem] = {}


def build(label: str) -> RootSystem:
    """Construct (and cache) the root system with the given label."""
    if label not in _CACHE:
        _CACHE[label] = RootSystem(label)
    return _CACHE[label]
