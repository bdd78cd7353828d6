"""Integer matrices, products, exact norms, spectral radii and leading
eigenvectors for small dimensions.

Everything is exact: spectral radii are RealAlgebraic values certified
through characteristic polynomials, eigenvectors are solved over the
number field generated by the eigenvalue, and matrix 2-norms come from
the largest eigenvalue of A^T A.

Spectral radii in dimensions 2 and 3 have closed forms, with no
factoring, Sturm chains or root isolation by bisection.  A 2x2 radius
comes from the trace and determinant.  A 3x3 radius comes from the
characteristic cubic: an integer root, found from the discriminant or
at the end of a root's cell, splits off a quadratic; otherwise the sign
of the discriminant separates one real root and a complex pair from
three real roots, whose dyadic cells float seeds find and exact signs
certify.  Only dimension 4 and up factors the characteristic
polynomial, and a cubic whose roots the float seeds cannot place (two
in one cell, or one too large for a float).  The radius is then the
largest of the moduli |r| of the real roots and sqrt(|z|^2) of the
complex pairs.  A pair is compared through its squared modulus against
the square of the best real modulus, so a square root is taken only
when a complex pair attains the radius; for a nonnegative matrix
(Perron-Frobenius) it never does.  The squared modulus of a cubic's pair
is the real root of a reversed cubic, so no number field is built for
it.

Three facts of a matrix are computed at most once per `IntMatrix`
object, at their first read, and kept on it (`_fact`): its entries in
row-major order, its columns and its spectral-radius entry (minimal
polynomial, isolating interval and the two leading-eigenvalue flags).
A campaign's member matrices are shared by every pair that holds them
(`reduce.decode`), so the quick lemmas read each member's order tests and
radius from the object, and `spectral_radius` builds a fresh value from
the entry on each call.  Equality and hashing read the rows alone.

A product is computed row by column in Python integers: the columns of
the right factor are taken once, and each entry is the sum of the
elementwise products of a row and a column (`sum(map(mul, row, col))`),
so the same loop serves every dimension without an index per term.
`IntMatrix.apply` multiplies a vector of ints, Fractions or field
elements the same way, through `algebraic.integer_combinations`, after
bringing the vector to one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import acos, cbrt, copysign, cos, floor, isqrt, pi, sqrt
from operator import mul
from typing import Iterable, Sequence

from .algebraic import (
    MEMO_SIZE,
    AlgebraicError,
    FieldElement,
    IntPolynomial,
    Ordering,
    RealAlgebraic,
    compare,
    compare_powers,
    factor_int_poly,
    faddeev_leverrier,
    integer_combinations,
    is_power,
    isolate_real_roots,
    nth_root,
)
from .linalg import kernel

# a 3x3 radius's irrational roots are isolated in dyadic cells of this
# many bits, [k, k + 1] / 2^_CUBIC_CELL_BITS
_CUBIC_CELL_BITS = 24


class _fact:
    """A per-matrix fact: computed at its first read and stored in the
    matrix's `__dict__` under its own name, where every later read finds
    it without reaching this descriptor.  That is what
    `functools.cached_property` does, without the lock that Python 3.11
    takes on each of its misses."""

    __slots__ = ("fn", "name")

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class IntMatrix:
    """Dense square integer matrix, row-major, with its entries, columns
    and spectral radius kept as facts of the object (`_fact`)."""

    rows: tuple[tuple[int, ...], ...]

    @_fact
    def entries(self) -> tuple[int, ...]:
        """The entries in row-major order."""
        return tuple(chain.from_iterable(self.rows))

    @_fact
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.rows))

    @_fact
    def radius(self) -> tuple:
        """(minpoly, lo, hi, simple, complex) of the spectral radius
        (`_radius_entry`), from which `spectral_radius` builds a fresh
        value on every call."""
        return _radius_entry(self)

    @staticmethod
    def make(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        rs = tuple(tuple(int(v) for v in row) for row in rows)
        if any(len(r) != len(rs) for r in rs):
            raise ValueError("matrix must be square")
        return IntMatrix(rs)

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(dim: int) -> "IntMatrix":
        """The dim x dim identity, built once per dimension and shared."""
        return IntMatrix(tuple(tuple(int(i == j) for j in range(dim))
                               for i in range(dim)))

    @staticmethod
    def zero(dim: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * dim for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        cols = tuple(zip(*other.rows))
        return IntMatrix(tuple(tuple(sum(map(mul, row, col)) for col in cols)
                               for row in self.rows))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def apply(self, vec: Sequence) -> list:
        """The product with a vector of ints, Fractions or FieldElements,
        by the one integer-combination kernel
        (`algebraic.integer_combinations`)."""
        return integer_combinations(self.rows, vec)

    def flat(self) -> list[int]:
        """The entries as a JSON-ready list."""
        return list(self.entries)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in r) for r in self.rows) + "]"


@dataclass(frozen=True)
class MatrixFamily:
    """The finite input set of matrices, with its alphabet tag."""

    matrices: tuple[IntMatrix, ...]
    alphabet: str = "general"  # {binary, sign, general}

    @staticmethod
    def make(mats: Iterable[IntMatrix | Sequence[Sequence[int]]],
             alphabet: str = "general") -> "MatrixFamily":
        ms = tuple(m if isinstance(m, IntMatrix) else IntMatrix.make(m)
                   for m in mats)
        if not ms:
            raise ValueError("family must be nonempty")
        if len({m.dim for m in ms}) != 1:
            raise ValueError("family must have uniform dimension")
        return MatrixFamily(ms, alphabet)

    @property
    def dim(self) -> int:
        return self.matrices[0].dim

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, j: int) -> IntMatrix:
        return self.matrices[j]


@dataclass(frozen=True)
class Product:
    """A word over matrix indices with its evaluated matrix.

    The word lists indices j_1..j_n; the evaluated matrix is
    A_{j_n} ... A_{j_1} (letters applied right to left).  Indices are
    1-based to match the usual A_1, A_2 notation.
    """

    word: tuple[int, ...]
    value: IntMatrix

    @property
    def length(self) -> int:
        return len(self.word)


def evaluate(word: Sequence[int], family: MatrixFamily) -> Product:
    if not word:
        raise ValueError("empty product word")
    acc = family[word[0] - 1]
    for j in word[1:]:
        acc = family[j - 1] @ acc
    return Product(tuple(word), acc)


def char_poly(A: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - A)."""
    # the leading coefficient is 1, so the closed forms need no trimming
    n = A.dim
    if n == 1:
        return IntPolynomial((-A.rows[0][0], 1))
    if n == 2:
        (a, b), (c, d) = A.rows
        return IntPolynomial((a * d - b * c, -(a + d), 1))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = A.rows
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        tr = a + e + i
        # sum of principal 2x2 minors
        m2 = (e * i - f * h) + (a * i - c * g) + (a * e - b * d)
        return IntPolynomial((-det, m2, -tr, 1))
    # general fallback: Faddeev-LeVerrier over the integers
    return IntPolynomial.make(faddeev_leverrier(A.rows)[0])


@dataclass
class SpectralRadius:
    """Exact spectral radius with leading-eigenvalue structure flags."""

    value: RealAlgebraic
    leading_simple: bool
    leading_complex: bool


def spectral_radius(A: IntMatrix) -> SpectralRadius:
    """max |eigenvalue| as an exact nonnegative RealAlgebraic.

    leading_simple is true iff exactly one eigenvalue attains the
    radius, counted with algebraic multiplicity, up to complex
    conjugate pairs.  leading_complex is true iff the attaining
    eigenvalue is non-real.  The zero matrix returns 0 with
    leading_simple True by convention.

    Dimensions 1 to 3 take closed forms: a 1x1 matrix [a] has the simple
    real radius |a|, a 2x2 matrix its trace and determinant
    (`_quadratic_radius`), a 3x3 matrix the roots of its
    characteristic cubic (`_cubic_radius`).  Factoring the characteristic
    polynomial and isolating its roots (`_radius_by_factoring`) serves
    only dimension 4 and up and a cubic whose roots float seeds cannot
    place.  The radius is a fact of the matrix object (`IntMatrix.radius`),
    computed once per matrix; from dimension 3 on it depends on the
    characteristic polynomial alone and is also memoized by it
    (`MEMO_SIZE` entries), which serves distinct matrices with one
    polynomial.  Every call returns a fresh value, built from the
    interval of the first computation, so refining one result never
    narrows another.
    """
    minpoly, lo, hi, simple, leading_complex = A.radius
    return SpectralRadius(RealAlgebraic(minpoly, lo, hi), simple, leading_complex)


def _radius_entry(A: IntMatrix) -> tuple:
    """(minpoly, lo, hi, simple, complex) of A's spectral radius: the zero
    matrix's 0 by convention, the closed forms of dimensions 1 and 2,
    and `_spectral_radius_of` the characteristic polynomial above."""
    if A.is_zero():
        return _entry(_integer_radius(0), True, False)
    if A.dim == 1:
        return _entry(_integer_radius(abs(A.rows[0][0])), True, False)
    if A.dim == 2:
        (a, b), (c, d) = A.rows
        value, attaining, leading_complex = _quadratic_radius(a + d, a * d - b * c)
        return _entry(value, attaining == 1, leading_complex)
    return _spectral_radius_of(char_poly(A))


def _quadratic_radius(t: int, det: int) -> tuple[RealAlgebraic, int, bool]:
    """(radius, attaining eigenvalues, complex) of the roots of
    x^2 - t x + det, from the discriminant D = t^2 - 4 det.

    D >= 0: the roots (t +- sqrt D) / 2 are real and the radius is
    (|t| + sqrt D) / 2, a root of x^2 - |t| x + det (irreducible unless D
    is a square, when the radius is an integer).  With s = isqrt(D) it
    lies in [(|t| + s) / 2, (|t| + s + 1) / 2], which isolates it: the
    other root is sqrt D > 1 below.  D < 0: a conjugate pair of modulus
    sqrt det, in [r, r + 1] with r = isqrt(det).  Either way the radius
    is the larger root of its monic minimal polynomial.  Two roots
    attain it exactly when D = 0 (a double root) or t = 0 < D (the pair
    +-sqrt(D) / 2).
    """
    t = abs(t)
    disc = t * t - 4 * det
    if disc < 0:
        r = isqrt(det)
        value = (_integer_radius(r) if r * r == det else
                 RealAlgebraic(IntPolynomial((-det, 0, 1)), Fraction(r),
                               Fraction(r + 1)))
        return value, 1, True
    s = isqrt(disc)
    if s * s == disc:
        value = _integer_radius((t + s) // 2)
    else:
        value = RealAlgebraic(IntPolynomial((det, -t, 1)),
                              Fraction(t + s, 2), Fraction(t + s + 1, 2))
    return value, 1 if disc != 0 and t != 0 else 2, False


def _integer_radius(r: int) -> RealAlgebraic:
    """`RealAlgebraic.from_rational(r)` for an integer r >= 0, whose
    minimal polynomial x - r is already primitive."""
    q = Fraction(r)
    return RealAlgebraic(IntPolynomial((-r, 1)), q, q)


@lru_cache(maxsize=MEMO_SIZE)
def _spectral_radius_of(cp: IntPolynomial) -> tuple:
    """(minpoly, lo, hi, simple, complex) of the radius of a nonzero
    matrix with characteristic polynomial cp: by `_cubic_radius` for a
    cubic, by `_radius_by_factoring` otherwise."""
    if cp.degree == 3:
        return _cubic_radius(cp)
    return _radius_by_factoring(cp)


def _entry(rho: RealAlgebraic, simple: bool, leading_complex: bool) -> tuple:
    """A `_spectral_radius_of` entry for the radius rho."""
    lo, hi = rho.interval()
    return rho.minpoly, lo, hi, simple, leading_complex


def _cubic_radius(cp: IntPolynomial) -> tuple:
    """The `_spectral_radius_of` entry of a monic cubic
    x^3 + a x^2 + b x + c, without factoring or Sturm chains.

    A rational root of a monic integer cubic is an integer root r: 0 when
    c = 0; the repeated root when the discriminant is 0; otherwise a
    point where the cubic vanishes, met while its roots' cells are
    sought.  With such an r the cubic is (x - r) times a quadratic, whose
    radius is `_quadratic_radius`'s, and |r| is compared with it in
    integers.  Without one the cubic is irreducible, and its discriminant
    tells its real roots:

    - Negative: one real root r and a pair with |z|^2 = |c| / |r|, so r
      attains the radius iff |r|^3 >= |c|, decided on r's interval.
      Equality needs r^3 = +-c, so the cubic is x^3 + c, whose three
      roots all attain it.  A winning pair's modulus is the square root of the
      real root of the reversed cubic (`_complex_pair_modulus_squares`).
    - Positive: three real roots r1 < r2 < r3, and the radius is the
      larger of -r1 and r3.  They never tie, as r1 + r3 = -a - r2 and r2
      is irrational; r3 wins iff r2 < -a, which r2's cell tells.

    The roots' cells, ascending, are the dyadic [k, k + 1] /
    2^_CUBIC_CELL_BITS holding one root each: float seeds find them and
    exact signs certify them (`_seeded_cells`).  When the seeds fail, as
    for two roots in one cell or a root too large for a float to place,
    the entry comes from the factoring path (`_radius_by_factoring`).
    """
    c, b, a, _ = cp.coeffs
    # negative iff one real root and a complex pair, zero iff a root repeats
    disc = a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c
    if c == 0:
        root = 0
    elif disc == 0:
        # (x - s)^2 (x - t) has a^2 - 3b = (s - t)^2 and 9c - ab = 2s(s - t)^2;
        # a triple root is -a/3
        d = a * a - 3 * b
        root = (9 * c - a * b) // (2 * d) if d else -a // 3
    else:
        cells = _seeded_cells(cp, disc)
        if cells is None:
            return _radius_by_factoring(cp)
        root = next((int(lo) for lo, hi in cells if lo == hi), None)
    if root is not None:
        return _with_integer_root(a, b, root)
    if disc < 0:
        ((lo, hi),) = cells
        r = RealAlgebraic(cp, lo, hi)
        # the cell excludes 0, a grid point where p = c != 0
        r_abs = r if lo >= 0 else -r
        if a == b == 0:
            return _entry(r_abs, False, True)
        if compare_powers(abs(c), 1, r_abs, 3) == Ordering.LESS:
            return _entry(r_abs, True, False)
        (m2,) = _complex_pair_modulus_squares(cp, [r])
        return _entry(nth_root(m2, 2), True, True)
    (l1, h1), (_, h2), (l3, h3) = cells
    # r2 < -a iff its cell ends by -a, an integer and so a grid point
    if h2 <= -a:
        return _entry(RealAlgebraic(cp, l3, h3), True, False)
    return _entry(-RealAlgebraic(cp, l1, h1), True, False)


def _with_integer_root(a: int, b: int, r: int) -> tuple:
    """The `_spectral_radius_of` entry of x^3 + a x^2 + b x + c with the
    integer root r: the cubic is (x - r)(x^2 + b1 x + b0) with
    b1 = a + r and b0 = b + r b1."""
    b1 = a + r
    q, attaining, leading_complex = _quadratic_radius(-b1, b + r * b1)
    m = abs(r)
    cs = q.minpoly.coeffs
    if len(cs) == 2:
        order = m + cs[0]  # q = -cs[0]
    else:
        # q is the larger root of x^2 + cs[1] x + cs[0], so m > q iff m is
        # right of the vertex with a positive value there
        order = 1 if 2 * m > -cs[1] and m * m + cs[1] * m + cs[0] > 0 else -1
    if order > 0:
        return _entry(_integer_radius(m), True, False)
    return _entry(q, order < 0 and attaining == 1, leading_complex)


def _seeded_cells(cp: IntPolynomial, disc: int
                  ) -> list[tuple[Fraction, Fraction]] | None:
    """The real roots of a monic squarefree cubic with a nonzero constant,
    as cells from its float roots (`_float_roots`): the cells ascending,
    or [r, r] alone for an integer root r met on the way, or None when
    the seeds fail.

    Each root's cell is the [k, k + 1] / 2^_CUBIC_CELL_BITS that holds
    its float value x; when cp does not change sign across it (a root too
    large for a float to place so closely), the cell [n - 1, n + 1] for
    the integer n nearest x, narrowed by signs.  The cells are certified
    when they are disjoint and cp changes sign across each: as many cells
    as roots then hold one root each.  A cell end where cp vanishes is a
    rational root, so an integer.
    """
    scale = 1 << _CUBIC_CELL_BITS
    try:
        seeds = [(floor(x * scale), (round(x) - 1) * scale)
                 for x in _float_roots(cp, disc)]
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    c, b, a, _ = cp.coeffs
    a1, b2, c3 = a * scale, b * scale * scale, c * scale**3

    def sign(k: int) -> int:
        # of cp(k / scale) scale^3, by Horner in integers
        v = ((k + a1) * k + b2) * k + c3
        return (v > 0) - (v < 0)

    lows = []
    for cell, wide in seeds:
        for k, width in ((cell, 1), (wide, 2 * scale)):
            s_lo, s_hi = sign(k), sign(k + width)
            if s_lo == 0 or s_hi == 0:
                r = Fraction(k if s_lo == 0 else k + width, scale)
                return [(r, r)]
            if s_lo != s_hi:
                break
        else:
            return None
        while width > 1:
            width //= 2
            s_mid = sign(k + width)
            if s_mid == 0:  # the integer n
                r = Fraction(k + width, scale)
                return [(r, r)]
            if s_mid == s_lo:
                k += width
        lows.append(k)
    lows.sort()
    if any(k == j for k, j in zip(lows, lows[1:])):
        return None
    return [(Fraction(k, scale), Fraction(k + 1, scale)) for k in lows]


def _float_roots(cp: IntPolynomial, disc: int) -> list[float]:
    """Float approximations of the real roots of a monic cubic with
    discriminant disc != 0, through x = y - a/3 and y^3 + p y + q.

    One real root comes from Cardano's formula, with the cube root taken
    on the side without cancellation.  Of three, the cosine form gives
    the largest in modulus, R, and the other two are the roots of the
    quotient x^2 + e x + f by x - R, where f = -c / R and e = (f - b) / R
    come without the cancellation that costs the cosine form the roots
    small beside R.  A Newton step polishes each.
    """
    c, b, a, _ = map(float, cp.coeffs)
    s = a / 3
    p = b - a * s
    q = s * (2 * s * s - b) + c
    if disc > 0:
        m = 2 * sqrt(-p / 3)
        t = acos(min(1.0, max(-1.0, 3 * q / (p * m)))) / 3
        big = max((m * cos(t - k * 2 * pi / 3) - s for k in range(3)), key=abs)
        f = -c / big
        e = (f - b) / big
        h = -(e + copysign(sqrt(max(e * e - 4 * f, 0.0)), e)) / 2
        roots = [big, h, f / h]
    else:
        # the cube roots u, v of -q/2 +- sqrt(-disc / 108) have u v = -p/3
        u = -copysign(cbrt(abs(q) / 2 + sqrt(-disc / 108)), q)
        roots = [u - p / (3 * u) - s]
    return [x - (((x + a) * x + b) * x + c) / ((3 * x + 2 * a) * x + b)
            for x in roots]


def _radius_by_factoring(cp: IntPolynomial) -> tuple:
    """The `_spectral_radius_of` entry of any cp, from its factors."""
    factors = factor_int_poly(cp)
    real_mods: list[tuple[RealAlgebraic, int]] = []  # (|eigenvalue|, multiplicity)
    complex_mods: list[tuple[RealAlgebraic, int]] = []  # (|pair|^2, multiplicity)
    for fac, mult in factors:
        roots = isolate_real_roots(fac)
        for r in roots:
            real_mods.append((r if r.sign() >= 0 else -r, mult))
        for m2 in _complex_pair_modulus_squares(fac, roots):
            complex_mods.append((m2, mult))
    # the radius: maximum of |real eigenvalue| and sqrt(|pair|^2)
    best: RealAlgebraic | None = None
    best_sq: RealAlgebraic | None = None
    for a, _ in real_mods:
        if best is None or compare(a, best) == Ordering.GREATER:
            best = a
    for m2, _ in complex_mods:
        if best_sq is None or compare(m2, best_sq) == Ordering.GREATER:
            best_sq = m2
    rho_sq = None
    rho = best
    # best^2 < best_sq is the test sqrt(best_sq) > best without the root,
    # which is taken only for a complex pair that wins
    if best_sq is not None and (
            best is None or compare_powers(best, 2, best_sq, 1) == Ordering.LESS):
        rho, rho_sq = nth_root(best_sq, 2), best_sq
    # attainment count with multiplicity (a conjugate pair counts once),
    # by equality tests: |pair|^2 against rho^2, or rho_sq when known
    attain = sum(mult for a, mult in real_mods if is_power(a, rho, 1))
    base, n = (rho, 2) if rho_sq is None else (rho_sq, 1)
    pair_attain = sum(mult for m2, mult in complex_mods if is_power(m2, base, n))
    return _entry(rho, attain + pair_attain == 1, pair_attain > 0)


def _complex_pair_modulus_squares(fac: IntPolynomial,
                                  roots: list[RealAlgebraic]
                                  ) -> list[RealAlgebraic]:
    """|z|^2 for each complex-conjugate root pair of an irreducible factor
    whose real roots are `roots`.

    deg 2: modulus^2 = constant/leading (product of the pair).
    deg 3: one real root r and one pair; the product of the roots is
    k = -c0/c3, so |pair|^2 = k / r.  With r = k / y the cubic
    c3 r^3 + c2 r^2 + c1 r + c0 becomes, times y^3, the reversed cubic
    c3 k^3 + c2 k^2 y + c1 k y^2 + c0 y^3, irreducible as the factor is
    (y = k / r generates Q(r)), and its one real root k / r is isolated
    by the image of r's interval once that excludes 0.
    Higher degrees are not needed for dimensions <= 3.
    """
    d = fac.degree
    n_pairs = (d - len(roots)) // 2
    if n_pairs == 0:
        return []
    if d == 2:
        return [RealAlgebraic.from_rational(Fraction(fac.coeffs[0], fac.coeffs[2]))]
    if d == 3 and len(roots) == 1:
        r = roots[0]
        c0, c1, c2, c3 = fac.coeffs
        k = Fraction(-c0, c3)
        if r.is_rational:
            return [RealAlgebraic.from_rational(k / r.as_rational())]
        # k = n / m: the reversed cubic times m^3, lowest degree first
        n, m = k.numerator, k.denominator
        poly = IntPolynomial.make([c3 * n**3, c2 * n * n * m, c1 * n * m * m,
                                   c0 * m**3]).primitive()
        r.exclude_zero()
        lo, hi = sorted((k / b for b in r.interval()))
        return [RealAlgebraic(poly, lo, hi)]
    raise AlgebraicError(
        f"complex pair modulus for degree {d} factors is not supported")


def is_eigenvalue(A: IntMatrix, lam: FieldElement) -> bool:
    """Exactly: lam is a root of the characteristic polynomial of A
    (Horner over lam's field)."""
    ctx = lam.context
    acc = ctx.zero()
    for c in reversed(char_poly(A).coeffs):
        acc = acc * lam + ctx.from_rational(c)
    return acc.is_zero()


def leading_eigenvector(A: IntMatrix, lam: FieldElement) -> list[FieldElement]:
    """A kernel vector of (A - lam*I) over lam's field.

    Normalized so the first nonzero coordinate is 1.  Raises if the
    kernel is not 1-dimensional: a lam that is not an eigenvalue gives
    dimension 0, and a larger one feeds non-termination diagnostics.
    In dimensions 2 and 3 the kernel line comes from the rows without an
    inverse (`_kernel_line`); other dimensions, and kernels that are not
    a line, take the Gauss-Jordan kernel.  The kernel of a line has one
    vector whose first nonzero coordinate is 1, so both give it.
    """
    ctx = lam.context
    n = A.dim
    M = [[ctx.from_rational(A.rows[i][j]) - (lam if i == j else ctx.zero())
          for j in range(n)] for i in range(n)]
    v = _kernel_line(M)
    if v is None:
        kern = kernel(M)
        if len(kern) != 1:
            raise AlgebraicError(
                f"kernel dimension {len(kern)} != 1 for eigenvalue (multiplicity issue)")
        v = kern[0]
    # normalize first nonzero coordinate to 1, inverting it once
    inv = next(e for e in v if not e.is_zero()).inverse()
    return [e * inv for e in v]


def _kernel_line(B: list[list[FieldElement]]) -> list[FieldElement] | None:
    """A vector spanning the kernel of the 2x2 or 3x3 B when that kernel
    is a line, else None: (-b, a) for a nonzero row (a, b), or the cross
    product of two independent rows, which is orthogonal to both.  It
    spans the kernel when the remaining row is orthogonal to it too, as
    B then has rank dim - 1."""
    if len(B) == 2:
        choices = (((-b, a), B[1 - i]) for i, (a, b) in enumerate(B))
    elif len(B) == 3:
        choices = (((r1 * s2 - r2 * s1, r2 * s0 - r0 * s2, r0 * s1 - r1 * s0), B[k])
                   for (r0, r1, r2), (s0, s1, s2), k in
                   ((B[0], B[1], 2), (B[0], B[2], 1), (B[1], B[2], 0)))
    else:
        return None
    for v, rest in choices:
        if any(not x.is_zero() for x in v):
            if sum((x * y for x, y in zip(rest, v)), start=v[0] * 0).is_zero():
                return list(v)
            return None
    return None


def two_norm_sq(A: IntMatrix) -> RealAlgebraic:
    """Largest eigenvalue of A^T A; the squared matrix 2-norm.

    A^T A is positive semidefinite, so this is its spectral radius.
    """
    return spectral_radius(A.transpose() @ A).value


def frobenius_norm_sq(A: IntMatrix) -> int:
    return sum(v * v for r in A.rows for v in r)
