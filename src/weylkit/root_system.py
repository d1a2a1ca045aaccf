"""Finite root systems, Weyl groups, lattices and co-weights in exact arithmetic.

Roots are stored in simple-root coordinates over the base field F (rationals
for the crystallographic types, a real cyclotomic field for the dihedral
ones).  Co-roots enter through the pairing ``<x, a^> = 2 (x, a) / (a, a)``.

Every crystallographic system -- A_n, B_n, C_n, D_n, E6, F4 and G2 -- is
built by one table (``_dynkin``) of its Gram diagonal, its bonds and the
degrees of its invariants; the dihedral I2(n) is built over its field.

The integer kernels of a crystallographic system work in level coordinates
L_j = (alpha_j, x), the coordinates of x in the basis of the fundamental
co-weights.  A special vertex has integer levels, and a simple reflection
s_i acts on them by L_j <- L_j - cartan[i][j] L_i, so every Weyl element and
every alcove wall acts by an integer matrix G M G^-1 (G the Gram matrix).
``to_levels`` and ``from_levels`` are the boundary: they turn rational
vectors into integer level vectors over one common denominator and back, so
Fractions are built only for what a public function returns.  The dominance
walk and the orbit walk run on the integer numerators of a rational point in
the same way.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import add, mul, sub
from typing import Dict, Sequence, Tuple

from .scalars import (
    Fraction as _Q,
    LexPair,
    NFElem,
    NumberField,
    Poly,
    ScalarDomainError,
    _clear_denominators,
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


def _integer_rows(rows):
    """(integer rows, E) with rows[i][j] == int_rows[i][j] / E for rational rows."""
    nums, den = _clear_denominators([c for row in rows for c in row])
    flat = iter(nums)
    return tuple(tuple(next(flat) for _ in row) for row in rows), den


class LinearForms:
    """F-rows applied to Lambda-vectors by integer dot products.

    This is the fraction-free scheme of exact linear algebra (Bareiss 1968):
    the rows are stored once as integers over one common denominator E, in
    one flat tuple -- one row per form over the rationals, and one row per
    (form, coefficient) over a number field.  ``_read`` splits a point into
    rational components -- a Fraction is one; an NFElem of the rows' field
    gives its coefficients, acted on through the multiplication matrices of
    the row entries; a LexPair gives hi and lo -- clears one common
    denominator D of all of them in one call and takes integer dot
    products, so each result is built once as m / (D E), of the same value
    and type as the per-term sum.  Rows over a number field must have all
    their entries in that field.  ``abs_sum`` takes a difference x - y in
    the same call, by subtracting the numerators of y from those of x, and
    decides every absolute value on the integer images.

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
        self._int = None  # the flat integer rows, over self._den
        if all(type(c) in (Fraction, int) for c in entries):
            self._int, self._den = _integer_rows(scaled)
        elif entries and all(type(c) is NFElem for c in entries):
            field = entries[0].field
            if all(c.field is field for c in entries):
                self.field = field
                self._scaled = scaled
                # form i, coefficient r (a rational point): the r-th coefficients of the entries of row i
                coeffs = [[c.coeffs[r] for c in row] for row in scaled for r in range(field.degree)]
                self._int, self._den = _integer_rows(coeffs)

    @cached_property
    def _field_rows(self):
        """(rows, den) acting on the flattened coefficients of field points, flat as ``_int`` (built on first use)."""
        field, d = self.field, self.field.degree

        def columns(c):
            # entry c acts on the coefficient vector of x by its multiplication
            # matrix: column k is c * zeta^k, the column before times zeta
            cols = [c.coeffs]
            for _ in range(d - 1):
                cols.append(field.elem((0, *cols[-1])).coeffs)
            return cols

        blocks = [[columns(c) for c in row] for row in self._scaled]
        return _integer_rows([[col[r] for block in row for col in block] for row in blocks for r in range(d)])

    def _read(self, x, minus=None):
        """(images, den) for x - minus, or x: per component, the flat rows applied to it over den.

        The components are the point, or the hi and the lo parts when every
        coordinate is a lex pair.  Every value of both operands and both
        parts is cleared in one call, and the numerators of minus are
        subtracted from those of x, so no difference is built.  None off
        the kernel.
        """
        rows = self._int
        if rows is None or minus is not None and len(minus) != len(x):
            return None  # the coordinate-wise difference truncates, as zip does
        vals = x if minus is None else [*x, *minus]
        lex = bool(vals) and all(type(v) is LexPair for v in vals)
        if lex:
            vals = [v.hi for v in vals] + [v.lo for v in vals]
        parts = _clear_denominators(vals)
        row_den = self._den
        if parts is None and self.field is not None:
            # field points: each coordinate gives its coefficients, a rational fills the first of its slots
            field, pad, flat = self.field, (0,) * (self.field.degree - 1), []
            for v in vals:
                if type(v) is NFElem and v.field is field:
                    flat += v.coeffs
                elif type(v) is Fraction or type(v) is int:
                    flat += (v, *pad)
                else:
                    return None
            parts = _clear_denominators(flat)
            rows, row_den = self._field_rows
        if parts is None:
            return None
        nums, den = parts
        k = len(nums) >> lex
        comps = [nums[:k], nums[k:]] if lex else [nums]
        if minus is not None:
            comps = [list(map(sub, c[: k // 2], c[k // 2 :])) for c in comps]
        return [[sum(map(mul, row, c)) for row in rows] for c in comps], den * row_den

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
        parts = self._read(x)
        if parts is None:
            return self._per_term(x)
        images, den = parts
        field = self.field
        if field is None:
            values = [[Fraction(m, den) for m in img] for img in images]
        else:
            d = field.degree
            values = [[Fraction(c, den) for c in img] for img in images]
            values = [[NFElem(field, tuple(q[i : i + d])) for i in range(0, len(q), d)] for q in values]
        return tuple(map(LexPair, *values)) if len(values) == 2 else tuple(values[0])

    def abs_sum(self, x, minus=None):
        """sum_i |row_i . (x - minus)|, every absolute value decided on the integer images.

        Without ``minus`` the sum is taken on x.  A pair off the kernel takes
        the difference ``x_i - minus_i`` coordinate by coordinate first.  A
        lex pair takes the sign of its first nonzero part, and a field value
        the sign ``int_sign`` decides on its coefficients.
        """
        parts = self._read(x, minus)
        if parts is None:
            if minus is not None:
                return self.abs_sum(tuple(a - b for a, b in zip(x, minus)))
            acc = zero_like(x[0]) if x else Fraction(0)
            for v in self._per_term(x):
                acc = acc + abs(v)
            return acc
        images, den = parts
        field = self.field
        if field is None and len(images) == 1:
            return Fraction(sum(map(abs, images[0])), den)
        if field is None:
            signs = [(h > 0) - (h < 0) or (l > 0) - (l < 0) for h, l in zip(*images)]
            return LexPair(*[Fraction(sum(map(mul, signs, img)), den) for img in images])
        d, int_sign = field.degree, field.int_sign
        cut = range(0, len(images[0]), d)
        signs = [int_sign(images[0][i : i + d]) for i in cut]
        if len(images) == 2:
            signs = [s or int_sign(images[1][i : i + d]) for s, i in zip(signs, cut)]
        sums = [[Fraction(sum(map(mul, signs, img[r::d])), den) for r in range(d)] for img in images]
        values = [NFElem(field, tuple(c)) for c in sums]
        return LexPair(*values) if len(values) == 2 else values[0]


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
    """The field Q(2 cos(pi/n)), n >= 3, with its generator isolated exactly.

    The roots of the minimal polynomial are the conjugates 2 cos(k pi/n), k
    odd and prime to n; cosine falls on [0, pi], so k = 1 gives the largest
    one, and it lies in [1, 2).  Neither 0 nor 2 is a root, so (0, 2] holds
    every positive root, and halving it from below until one root is left
    isolates the generator.  A halving runs only while lo lies below the next
    conjugate, at most 2 cos(3 pi/n), and 2 - 2 cos(3 pi/n) exceeds twice
    2 - 2 cos(pi/n): so lo never passes the generator.
    """
    minpoly = real_cyclotomic_minpoly(2 * n)
    lo, hi = Fraction(0), Fraction(2)
    while count_real_roots(minpoly, lo, hi) > 1:
        lo = (lo + hi) / 2
    return NumberField(f"2cos(pi/{n})", minpoly, (lo, hi))


# --------------------------------------------------------------------------
# Weyl elements


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: a word in simple reflections plus its exact matrix."""

    word: Tuple[int, ...]
    matrix: Tuple[Tuple[object, ...], ...]

    @cached_property
    def forms(self) -> LinearForms:
        """The matrix as ``LinearForms``: built on first use, published by one assignment.

        Not a dataclass field, so it takes no part in eq, hash or repr.
        """
        return LinearForms(self.matrix)

    def apply(self, x):
        return self.forms.apply(x)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)


def _times_simple_reflection(m, i: int, cartan_row):
    """M s_i, over any field or over the integers.

    In simple-root coordinates s_i = I - e_i c_i with c_i row i of the Cartan
    matrix, so M s_i subtracts M[r][i] * c_i from each row r of M; a row with
    M[r][i] = 0 is kept as it is.
    """
    return tuple([row if row[i] == 0 else tuple([v - row[i] * c for v, c in zip(row, cartan_row)]) for row in m])


# --------------------------------------------------------------------------
# walks over a simple system


def _reflect(cur: list, pairs: list, k: int, system, times) -> None:
    """Reflect ``cur`` in the simple root beta_k of ``system`` in place, with its pairings.

    A simple system is (roots, columns): roots[k] lists the nonzero
    coordinates (m, a) of beta_k, and columns[k] the nonzero Cartan entries
    (j, <beta_k, beta_j^>).  ``pairs`` holds the pairings <cur, beta_i^>:
    s_k moves cur by -p_k beta_k and each pairing by
    p_j <- p_j - <beta_k, beta_j^> p_k, so no pairing is computed twice.
    ``times`` multiplies a coefficient into a pairing.
    """
    roots, columns = system
    pk = pairs[k]
    for m, a in roots[k]:
        cur[m] = cur[m] - (pk if a == 1 else times(a, pk))
    for j, c in columns[k]:
        pairs[j] = pairs[j] - times(c, pk)


def _dominance_walk(cur: list, pairs: list, system, times, bound: int) -> tuple:
    """Walk ``cur`` into the dominant chamber of ``system`` in place; the word, last letter applied first.

    Each step reflects in the first simple root with a negative pairing
    (``_reflect``); ``bound`` exceeds the number of positive roots, the
    length of the longest walk.  The pairings are scanned by a plain loop,
    which costs an integer walk far less than a generator per step.
    """
    word = ()
    for _ in range(bound):
        for k, p in enumerate(pairs):
            if sign(p) < 0:
                break
        else:
            return word
        _reflect(cur, pairs, k, system, times)
        word = (k, *word)
    raise RootSystemError("dominance walk did not terminate")  # pragma: no cover


def _orbit_walk(point, pairs, system, times, bound: int):
    """Each point of the orbit of ``point`` under ``system`` once, in tree order, from the dominant one.

    The parent of a point off the dominant chamber is the first step of its
    ``_dominance_walk``: its image in the first beta_k with a negative
    pairing.  So the children of p are the s_k p with <p, beta_k^> > 0 whose
    pairings with beta_1^ ... beta_{k-1}^ are all >= 0 (D. M. Snow, *Weyl
    group orbits*, ACM TOMS 16, 1990), and the walk down this tree reaches
    each point once, from its parent, with no seen-set.  ``pairs`` holds the
    pairings of ``point``; the walk is lazy, so a caller may stop it early.
    """
    p, pp = list(point), list(pairs)
    _dominance_walk(p, pp, system, times, bound)
    stack = [(p, pp)]
    while stack:
        p, pp = stack.pop()
        yield tuple(p)
        for k, pk in enumerate(pp):
            if sign(pk) > 0:
                y, q = p[:], pp[:]
                _reflect(y, q, k, system, times)
                for v in q[:k]:
                    if sign(v) < 0:
                        break
                else:
                    stack.append((y, q))


# --------------------------------------------------------------------------
# the root system proper


_LABEL_RE = re.compile(r"^([A-G])(\d+)$")
_I2_RE = re.compile(r"^I2\((\d+)\)$")
# a system is built by closing orbits and pairing every positive root, so
# its build time grows with its size: the bounds keep a build near a second
_MAX_RANK = 16
_MAX_I2_ORDER = 48


def _dynkin(letter: str, n: int):
    """(Gram diagonal, bonds, degrees) of the Dynkin diagram letter_n; None when there is none.

    The diagonal holds the norms d_i = (alpha_i, alpha_i): long roots have
    norm 2, B_n ends in a root of norm 1 and C_n in one of norm 4.  Bonded
    simple roots have (alpha_i, alpha_j) = -max(d_i, d_j) / 2.  The degrees
    of the basic invariants give |W| as their product and the number of
    positive roots as the sum of (d - 1)
    (Humphreys, Reflection Groups and Coxeter Groups, 3.7; Bourbaki, Lie
    Groups and Lie Algebras VI, plates I-IX, whose numbering E6 keeps).
    """
    if not {"A": n >= 1, "B": n >= 2, "C": n >= 2, "D": n >= 4, "E": n == 6, "F": n == 4, "G": n == 2}[letter]:
        return None
    if n > _MAX_RANK:
        raise RootSystemError(f"{letter}{n}: ranks above {_MAX_RANK} are not supported")
    chain = [(i, i + 1) for i in range(n - 1)]
    evens = range(2, 2 * n + 1, 2)
    diag, bonds, degrees = {
        "A": ([2] * n, chain, range(2, n + 2)),
        "B": ([2] * (n - 1) + [1], chain, evens),
        "C": ([2] * (n - 1) + [4], chain, evens),
        "D": ([2] * n, chain[:-1] + [(n - 3, n - 1)], [*evens[:-1], n]),
        "E": ([2] * n, [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)], (2, 5, 6, 8, 9, 12)),
        "F": ([2, 2, 1, 1], chain, (2, 6, 8, 12)),
        "G": ([2, 6], chain, (2, 6)),
    }[letter]
    return diag, bonds, tuple(degrees)


class RootSystem:
    """A finite root system and the data derived from its Cartan data.

    The system is immutable once built.  Derived data that not every caller
    needs (co-weights, the Weyl group, w0, the highest root, the fundamental
    alcove, the height forms) is a ``cached_property``: computed on first use,
    at most once per instance, and published by one assignment of an
    immutable value.
    """

    def __init__(self, label: str):
        self.label = label
        self.field: NumberField | None = None
        m_i2 = _I2_RE.match(label)
        if m_i2:
            n = int(m_i2.group(1))
            if n < 3:
                raise RootSystemError(f"I2(n) needs n >= 3, got {n}")
            if n > _MAX_I2_ORDER:
                raise RootSystemError(f"I2(n) needs n <= {_MAX_I2_ORDER}, got {n}")
            # A2, B2 and G2 are the crystallographic forms of I2(3), I2(4) and
            # I2(6); this equal-length realisation has number-field Cartan
            # entries, which the lattice code paths cannot take
            self.crystallographic = False
            self.field = dihedral_cosine_field(n)
            c = self.field.gen()
            one = self.field.one()
            half = Fraction(1, 2)
            self.gram = ((one, c * -half), (c * -half, one))
            degrees = (2, n)
        else:
            m = _LABEL_RE.match(label)
            dynkin = m and _dynkin(m.group(1), int(m.group(2)))
            if not dynkin:
                raise RootSystemError(f"unsupported label: {label}")
            diag, bonds, degrees = dynkin
            self.crystallographic = True
            n = len(diag)
            g = [[_Q(diag[i] if i == j else 0) for j in range(n)] for i in range(n)]
            for i, j in bonds:
                g[i][j] = g[j][i] = _Q(-max(diag[i], diag[j]), 2)
            self.gram = tuple(map(tuple, g))
        self.rank = len(self.gram)
        self.weyl_order = math.prod(degrees)
        self._expected_positives = sum(d - 1 for d in degrees)

        self._gram_forms = LinearForms(self.gram)
        self.simple_roots = tuple(
            tuple(self._f(1 if i == j else 0) for j in range(self.rank)) for i in range(self.rank)
        )
        #: row i is the simple co-root alpha_i^: cartan[i][j] = <alpha_j, alpha_i^>
        self.cartan = tuple(self.coroot_vec(a) for a in self.simple_roots)
        if self.crystallographic and not all(
            c.denominator == 1 for row in self.cartan for c in row
        ):
            raise RootSystemError(f"non-integral Cartan data for {label}")  # pragma: no cover
        # the simple system of the walks: root k is the unit vector e_k, and column k holds
        # (j, <alpha_k, alpha_j^>) without its zero entries, as ints when crystallographic
        cartan = self.integer_cartan if self.crystallographic else self.cartan
        columns = tuple(tuple((j, c) for j, c in enumerate(col) if not _f_is_zero(c)) for col in zip(*cartan))
        self._simple_system = (tuple(((k, 1),) for k in range(self.rank)), columns)
        #: <x, alpha^> for the simple roots, in order
        self.simple_coroot_forms = LinearForms(self.cartan)
        self.positive_roots = self._positive_closure()
        if len(self.positive_roots) != self._expected_positives:
            raise RootSystemError(
                f"{label}: got {len(self.positive_roots)} positive roots, "
                f"expected {self._expected_positives}"
            )  # pragma: no cover
        #: the heights x^alpha = 1/2 <x, alpha^> over the simple roots
        self.height_forms = LinearForms(self.cartan, scale=Fraction(1, 2))
        #: <x, alpha^> for the positive roots, in order: the rows of the metric
        self.coroot_forms = LinearForms(self.coroot_vec(a) for a in self.positive_roots)

    # -- scalar helpers ----------------------------------------------------

    def _f(self, x):
        """Lift a rational into the base field F of this system."""
        if self.field is not None:
            return self.field.elem([Fraction(x)])
        return Fraction(x)

    # -- bilinear data -----------------------------------------------------

    def bilinear_forms(self, ys) -> LinearForms:
        """The forms x -> (x, y), one row per F-vector y of ``ys``."""
        return LinearForms([self._gram_forms.apply(tuple(y)) for y in ys])

    def bilinear(self, x, y_f):
        """(x, y) for a Lambda-vector x against an F-vector y."""
        return self.bilinear_forms([y_f]).apply(x)[0]

    def norm_sq(self, alpha):
        return self.bilinear(alpha, alpha)

    def coroot_vec(self, alpha) -> tuple:
        """Coefficients c with <x, alpha^> = sum_j c_j x_j."""
        return self._gram_forms.apply(self.coroot_of(alpha))

    def pairing(self, x, alpha):
        """<x, alpha^> for a Lambda-point x (linear extension of co-root evaluation)."""
        return self.bilinear(x, self.coroot_of(alpha))

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

    def simple_reflection(self, i: int) -> WeylElement:
        return self.element((i,))

    def element(self, word) -> WeylElement:
        """The Weyl element s_word[0] ... s_word[-1], built by one row update per letter."""
        word = tuple(word)
        m = tuple(map(tuple, self._identity()))
        for i in word:
            m = _times_simple_reflection(m, i, self.cartan[i])
        return WeylElement(word, m)

    # -- roots ----------------------------------------------------------------

    def _positive_closure(self):
        """The positive part of the Weyl orbits of the simple roots: every root lies in one."""
        roots: set = set()
        for a in self.simple_roots:
            if a not in roots:
                roots.update(self.weyl_orbit(a))
        return tuple(sorted(b for b in roots if all(sign(c) >= 0 for c in b)))

    def highest_root(self):
        return self._highest_root

    @cached_property
    def _highest_root(self) -> tuple:
        if not self.crystallographic:
            raise RootSystemError("highest root needs a crystallographic system")
        return max(filter(self.is_dominant, self.positive_roots), key=sum)

    def coroot_of(self, alpha) -> tuple:
        """The co-root 2 alpha/(alpha,alpha) as a coordinate vector."""
        nn = self.norm_sq(alpha)
        return tuple(a * 2 / nn for a in alpha)

    # -- orbits and dominance ---------------------------------------------

    def weyl_orbit(self, x) -> tuple:
        """The orbit of x lifted into F, sorted, as ``_orbit_walk`` yields it over the simple roots.

        A rational point of a rational system walks on its integer numerators
        over one common denominator, as ``dominant_rep`` does: they sort as
        the Fractions would, and each distinct numerator becomes one Fraction.
        """
        bound = self._expected_positives + 1
        parts = _clear_denominators(x) if self.field is None else None
        if parts is None:
            x = [scalar_mul(self._f(1), c) for c in x]
            pairs = self.simple_coroot_forms.apply(x)
            return tuple(sorted(_orbit_walk(x, pairs, self._simple_system, scalar_mul, bound)))
        nums, den = parts
        pairs = [sum(map(mul, row, nums)) for row in self.integer_cartan]
        orbit = sorted(_orbit_walk(nums, pairs, self._simple_system, mul, bound))
        value = {c: Fraction(c, den) for c in set().union(*orbit)}
        return tuple(tuple(value[c] for c in p) for p in orbit)

    def dominant_rep(self, x) -> tuple:
        """(x_plus, word) with s_word[0] ... s_word[-1] . x = x_plus dominant.

        The walk keeps the pairings p_i = <x, alpha_i^> beside x.  Reflecting in
        a simple root alpha_k changes only coordinate k of x (alpha_k is a unit
        vector in simple-root coordinates) and moves each pairing by a Cartan
        entry: p_j <- p_j - <alpha_k, alpha_j^> p_k.  So the pairings are
        computed once, not once per step, and no Weyl matrix is built.  A
        rational point of a rational system walks on the integer numerators
        over one common denominator (``dominant_numerators``); field and lex
        points walk on their own scalars.
        """
        parts = _clear_denominators(x) if self.field is None else None
        if parts is not None:
            nums, den = parts
            cur, word = self.dominant_numerators(nums)
            return tuple(Fraction(n, den) for n in cur), word
        cur = list(x)
        pairs = list(self.simple_coroot_forms.apply(cur))
        word = _dominance_walk(cur, pairs, self._simple_system, scalar_mul, self._expected_positives + 1)
        return tuple(cur), word

    def dominant_numerators(self, nums) -> tuple:
        """(numerators of x_plus, word) for the rational point x = nums / den.

        The walk of ``dominant_rep`` on integers, with the integer Cartan
        columns: each step subtracts an integer pairing from one numerator,
        so x_plus keeps the denominator of x.
        """
        cur = list(nums)
        pairs = [sum(map(mul, row, cur)) for row in self.integer_cartan]
        return cur, _dominance_walk(cur, pairs, self._simple_system, mul, self._expected_positives + 1)

    def is_dominant(self, x) -> bool:
        return all(sign(p) >= 0 for p in self.simple_coroot_forms.apply(x))

    def interior_dominant_f(self) -> tuple:
        """A regular dominant F-vector (sum of the fundamental co-weights)."""
        return tuple(reduce(add, col) for col in zip(*self._coweights))

    def longest_element(self) -> WeylElement:
        return self._w0

    @cached_property
    def _w0(self) -> WeylElement:
        _, word = self.dominant_rep(tuple(-c for c in self.interior_dominant_f()))
        if len(word) != len(self.positive_roots):
            raise RootSystemError("longest element has wrong length")  # pragma: no cover
        return self.element(word)

    def weyl_group(self) -> tuple[WeylElement, ...]:
        """All Weyl elements, BFS by word length (canonical reduced words)."""
        return self._group

    @cached_property
    def _weyl_bfs(self) -> tuple:
        """The Weyl group by breadth-first search on v_w = w^-1 . d: per element, (word, v_w, parent index).

        d is the regular vector with every level 1.  W acts simply
        transitively on the orbit of a regular vector, so v_w names w, and
        w = p s_i has v_w = s_i v_p = v_p - v_p[i] * row i of the Cartan
        matrix (integer rows over the rationals, field rows for I2(n)): a
        search on rank-length vectors, with no matrix hashed.  Each element
        keeps its first-found word, its parent's word + (i,), and records
        its parent's index.  The queue is in (length, word) order: each
        length is found from the one before, in that order, letter by
        letter.  The identity has parent index -1.
        """
        if self.field is None:
            cartan, one = self.integer_cartan, 1
        else:
            cartan, one = self.cartan, self._f(1)
        start = (one,) * self.rank
        seen = {start}
        queue = [((), start, -1)]
        for k, (word, v, _) in enumerate(queue):
            for i, c in enumerate(cartan):
                vi = v[i]
                if vi < 0:
                    continue  # (w alpha_i, d) < 0: w s_i is shorter than w, so found already
                u = tuple([a - vi * b for a, b in zip(v, c)])
                if u not in seen:
                    seen.add(u)
                    queue.append((word + (i,), u, k))
        if len(queue) != self.weyl_order:
            raise RootSystemError("Weyl group enumeration mismatch")  # pragma: no cover
        return tuple(queue)

    @cached_property
    def _group(self) -> tuple[WeylElement, ...]:
        """Each element's matrix built once, from its parent's: M_{p s_i} = M_p s_i.

        Systems over the rationals update integer matrices, and each distinct
        integer row becomes one Fraction row, shared by every matrix holding
        it (F4's 4,608 matrix rows hold 240 distinct rows).
        """
        n = self.rank
        if self.field is None:
            cartan, one, zero = self.integer_cartan, 1, 0
        else:
            cartan, one, zero = self.cartan, self._f(1), self._f(0)
        bfs = self._weyl_bfs
        mats = [tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))]
        for word, _, parent in bfs[1:]:
            mats.append(_times_simple_reflection(mats[parent], word[-1], cartan[word[-1]]))
        rows = {row: row for m in mats for row in m}
        if self.field is None:
            as_q = {v: _Q(v) for row in rows for v in row}
            rows = {row: tuple(as_q[v] for v in row) for row in rows}
        return tuple(WeylElement(word, tuple(rows[row] for row in m)) for (word, _, _), m in zip(bfs, mats))

    # -- lattices -----------------------------------------------------------

    def fundamental_coweights(self) -> tuple:
        """Vectors with (beta_j, cw_i) = delta_ij for simple beta_j."""
        return self._coweights

    def _identity(self) -> list:
        """The identity matrix over F as lists: its rows, and the right-hand sides of C X = I."""
        return [[self._f(1 if i == j else 0) for j in range(self.rank)] for i in range(self.rank)]

    @cached_property
    def _coweights(self) -> tuple:
        return tuple(tuple(col) for col in solve_linear(self.gram, self._identity()))

    @cached_property
    def dual_directions(self) -> tuple:
        """The Weyl orbits of the fundamental co-weights, in order, each direction once."""
        return tuple(dict.fromkeys(d for cw in self._coweights for d in self.weyl_orbit(cw)))

    @cached_property
    def inverse_height_forms(self) -> LinearForms:
        """Rows 2 C^-1: the point with heights x^alpha_i, since <x, alpha_i^> = 2 x^alpha_i."""
        cols = solve_linear(self.cartan, self._identity())
        # solve_linear returns solution columns of C X = I; X[j][i] indexed [row][col]
        return LinearForms(tuple(cols[i][j] * 2 for i in range(self.rank)) for j in range(self.rank))

    @cached_property
    def coroot_height_forms(self) -> LinearForms:
        """Per positive root alpha, the w_b with <x, alpha^> = sum_b w_b x^beta_b.

        w_b = alpha_b (beta_b, beta_b) * 2 / (alpha, alpha): the coefficient of
        the simple co-root beta_b^ in alpha^, doubled because x^beta = 1/2 <x, beta^>.
        """
        rows = []
        for alpha in self.positive_roots:
            nn = self.norm_sq(alpha)
            rows.append(tuple(alpha[b] * self.gram[b][b] * 2 / nn for b in range(self.rank)))
        return LinearForms(rows)

    @cached_property
    def interior_alcove_point(self) -> tuple:
        """A rational point inside the fundamental alcove: the co-weight sum, scaled below the far wall."""
        d = self.interior_dominant_f()
        p0 = tuple(c / (self.root_level(d, self.highest_root()) + 1) for c in d)
        assert all(0 < self.root_level(p0, a) < 1 for a in self.positive_roots)
        return p0

    @cached_property
    def alcove_walls(self) -> tuple:
        """Walls of the fundamental alcove in level coordinates, as integer (beta, k, c).

        Each wall {x : (beta, x) = k} is oriented so that the alcove is the set
        of x with (beta, x) > k for every wall; (beta, x) is the dot product of
        beta with the levels of x.  c holds the levels (alpha_j, beta^) of the
        co-root, so the reflection in the wall moves a level vector L by
        L <- L - ((beta, x) - k) c.  Index 0 is the far wall (-theta, x) = -1
        of the highest root theta, whose reflection sends the origin to
        theta^.  Index i + 1 is the wall of alpha_i through the origin, and its
        c is row i of the Cartan matrix.
        """
        walls = ((tuple(-c for c in self.highest_root()), -1), *((a, 0) for a in self.simple_roots))
        return tuple(
            (tuple(int(c) for c in beta), k, tuple(int(c) for c in self.coroot_vec(beta))) for beta, k in walls
        )

    @cached_property
    def alcove_walk_starts(self) -> tuple:
        """Per Weyl element w, in ``weyl_group()`` order: (word of w, w^-1 . d, M_w), on integer level vectors.

        d is the regular dominant vector with every level 1, and M_w is the
        matrix of w on level vectors: y -> tuple((row, y) for row in M_w).
        Words and vectors are those of the group's search; each M_w is
        built from its parent's, w = p s_i, as M_w = M_p S_i, which changes
        only column i of M_p: a row r becomes r with r[i] - (r, c_i) in
        place i, c_i row i of the Cartan matrix, and stays r itself when
        (r, c_i) = 0.  The table holds few distinct rows (E6: 72 in 51,840
        matrices), so each letter keeps the row each row becomes, and a
        matrix is read from it, one lookup per row; equal rows are stored
        once.  Built on the first gallery walk, without the group's
        matrices.
        """
        cartan = self.integer_cartan
        n = self.rank
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        rows = {row: row for row in ident}
        child = [{} for _ in range(n)]  # per letter i: row -> its row in M S_i
        bfs = self._weyl_bfs
        mats = [ident]
        for word, _, parent in bfs[1:]:
            i = word[-1]
            become, c = child[i], cartan[i]
            m = []
            for row in mats[parent]:
                r = become.get(row)
                if r is None:  # a row not yet met under this letter
                    t = sum(map(mul, row, c))
                    r = row[:i] + (row[i] - t,) + row[i + 1 :] if t else row
                    r = become[row] = rows.setdefault(r, r)
                m.append(r)
            mats.append(tuple(m))
        return tuple((word, v, m) for (word, v, _), m in zip(bfs, mats))

    # -- level coordinates (rational systems) ----------------------------------

    @cached_property
    def integer_positive_roots(self) -> tuple:
        """The positive roots over the integers, in simple-root coordinates."""
        return tuple(tuple(int(c) for c in alpha) for alpha in self.positive_roots)

    @cached_property
    def integer_cartan(self) -> tuple:
        """The Cartan matrix over the integers: row i holds the levels of alpha_i^."""
        return tuple(tuple(int(c) for c in row) for row in self.cartan)

    @cached_property
    def _level_maps(self) -> tuple:
        """(G, E, K, F): integer rows with gram = G / E and gram^-1 = K / F.

        G / E are the integer rows that ``_gram_forms`` already keeps.
        """
        # the inverse Gram matrix is symmetric: its columns, the co-weights, are its rows
        k_rows, f = _integer_rows(self._coweights)
        return self._gram_forms._int, self._gram_forms._den, k_rows, f

    def to_levels(self, vectors) -> tuple:
        """(levels, den): integer vectors over one den, levels[k][j] / den = (alpha_j, vectors[k])."""
        nums, d = _clear_denominators([c for v in vectors for c in v])
        g_rows, e, _, _ = self._level_maps
        n = self.rank
        return [tuple(sum(map(mul, row, nums[k : k + n])) for row in g_rows) for k in range(0, len(nums), n)], d * e

    def from_levels(self, levels, den) -> tuple:
        """The rational vector, in simple-root coordinates, whose levels are levels / den."""
        _, _, k_rows, f = self._level_maps
        den *= f
        return tuple(Fraction(sum(map(mul, row, levels)), den) for row in k_rows)

    def sorted_from_levels(self, pairs) -> tuple:
        """The distinct rational vectors of the (levels, den) ``pairs``, sorted, as ``from_levels`` gives them.

        Each is written as integer simple-root numerators over one common
        denominator D > 0, so the numerator tuples dedupe and sort as the
        Fraction tuples would; each distinct numerator becomes one Fraction.
        """
        pairs = set(pairs)
        _, _, k_rows, f = self._level_maps
        d = math.lcm(*{den for _, den in pairs})
        nums = {tuple(sum(map(mul, row, levels)) * (d // den) for row in k_rows) for levels, den in pairs}
        d *= f
        value = {c: Fraction(c, d) for c in {c for v in nums for c in v}}
        return tuple(tuple(value[c] for c in v) for v in sorted(nums))

    def _require_rational_point(self, x):
        if _clear_denominators(x) is None:
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
        return all(v.denominator == 1 for v in self.simple_coroot_forms.apply(x))

    def coweight_lattice_member(self, x) -> bool:
        """Membership in P(R^), which is exactly the set of special vertices."""
        if not self.crystallographic:
            raise RootSystemError("co-weight lattice needs a crystallographic system")
        self._require_rational_point(x)
        # (alpha_i, x) for the simple roots: the Gram rows
        return all(v.denominator == 1 for v in self._gram_forms.apply(x))

    def coroot_coset_member(self, x, y) -> bool:
        """Whether x - y lies in the co-root lattice."""
        self._require_rational_point((*x, *y))
        return self.coroot_lattice_member(tuple(a - b for a, b in zip(x, y)))

    def zero_point(self) -> tuple:
        return tuple(_Q(0) for _ in range(self.rank))

    def __repr__(self):
        return f"RootSystem({self.label})"


_CACHE: Dict[str, RootSystem] = {}


def build(label: str) -> RootSystem:
    """Construct (and cache) the root system with the given label.

    Threads that build one label at once all get the first system stored.
    """
    rs = _CACHE.get(label)
    if rs is None:
        rs = _CACHE.setdefault(label, RootSystem(label))
    return rs
