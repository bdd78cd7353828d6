"""Integer matrices, products, exact norms, spectral radii and leading
eigenvectors for small dimensions.

Everything is exact: spectral radii are RealAlgebraic values certified
through characteristic polynomials, eigenvectors are solved over the
number field generated by the eigenvalue, and matrix 2-norms come from
the largest eigenvalue of A^T A.

A 2x2 spectral radius has a closed form in the trace and determinant,
with no factoring or root isolation.  In other dimensions it is the
largest of the moduli |r| of the real roots of the factored
characteristic polynomial and sqrt(|z|^2) of its complex pairs.  The
pairs are compared through their squared moduli against the square of
the best real modulus, so a square root is taken only when a complex
pair attains the radius; for a nonnegative matrix (Perron-Frobenius) it
never does.  The squared modulus of a cubic's pair is the real root of a
reversed cubic, so no number field is built for it.

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
from math import isqrt
from operator import le, mul
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
    isolate_real_roots,
    nth_root,
)
from .linalg import kernel


@dataclass(frozen=True)
class IntMatrix:
    """Dense square integer matrix, row-major."""

    rows: tuple[tuple[int, ...], ...]

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

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for r in self.rows for v in r)

    def entrywise_leq(self, other: "IntMatrix") -> bool:
        return all(map(le, chain.from_iterable(self.rows),
                       chain.from_iterable(other.rows)))

    def apply(self, vec: Sequence) -> list:
        """The product with a vector of ints, Fractions or FieldElements,
        by the one integer-combination kernel
        (`algebraic.integer_combinations`)."""
        return integer_combinations(self.rows, vec)

    def flat(self) -> list[int]:
        return [v for r in self.rows for v in r]

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

    A 2x2 matrix takes the closed form of `_spectral_radius_2x2`, from
    its trace and determinant.  Other dimensions factor the
    characteristic polynomial and isolate its roots; that result depends
    on the characteristic polynomial alone and is memoized by it
    (`MEMO_SIZE` entries).  Every call returns a fresh value, built in
    other dimensions from the interval of the first computation, so
    refining one result never narrows another.
    """
    if A.is_zero():
        return SpectralRadius(RealAlgebraic.from_rational(0), True, False)
    if A.dim == 2:
        return _spectral_radius_2x2(A)
    minpoly, lo, hi, simple, leading_complex = _spectral_radius_of(char_poly(A))
    return SpectralRadius(RealAlgebraic(minpoly, lo, hi), simple, leading_complex)


def _spectral_radius_2x2(A: IntMatrix) -> SpectralRadius:
    """The radius of a nonzero 2x2 matrix from its trace t, determinant
    det and discriminant D = t^2 - 4 det, with no factoring.

    D >= 0: the eigenvalues (t +- sqrt D) / 2 are real and the radius is
    (|t| + sqrt D) / 2, a root of x^2 - |t| x + det (irreducible unless D
    is a square, when the radius is an integer).  With s = isqrt(D) it
    lies in [(|t| + s) / 2, (|t| + s + 1) / 2], which isolates it: the
    other root is sqrt D > 1 below.  D < 0: a conjugate pair of modulus
    sqrt det, in [r, r + 1] with r = isqrt(det).  Two eigenvalues attain
    the radius exactly when D = 0 (a double eigenvalue) or t = 0 < D
    (the pair +-sqrt(D) / 2).
    """
    (a, b), (c, d) = A.rows
    t, det = abs(a + d), a * d - b * c
    disc = t * t - 4 * det
    if disc < 0:
        r = isqrt(det)
        value = (_integer_radius(r) if r * r == det else
                 RealAlgebraic(IntPolynomial((-det, 0, 1)), Fraction(r),
                               Fraction(r + 1)))
        return SpectralRadius(value, True, True)
    s = isqrt(disc)
    if s * s == disc:
        value = _integer_radius((t + s) // 2)
    else:
        value = RealAlgebraic(IntPolynomial((det, -t, 1)),
                              Fraction(t + s, 2), Fraction(t + s + 1, 2))
    return SpectralRadius(value, disc != 0 and t != 0, False)


def _integer_radius(r: int) -> RealAlgebraic:
    """`RealAlgebraic.from_rational(r)` for an integer r >= 0, whose
    minimal polynomial x - r is already primitive."""
    q = Fraction(r)
    return RealAlgebraic(IntPolynomial((-r, 1)), q, q)


@lru_cache(maxsize=MEMO_SIZE)
def _spectral_radius_of(cp: IntPolynomial) -> tuple:
    """(minpoly, lo, hi, simple, complex) of the radius of a
    nonzero matrix with characteristic polynomial cp."""
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
    # attainment count with multiplicity (a conjugate pair counts once)
    attain = 0
    for a, mult in real_mods:
        if compare(a, rho) == Ordering.EQUAL:
            attain += mult
    pair_attain = 0
    if complex_mods and rho_sq is None:
        rho_sq = rho.pow(2)
    for m2, mult in complex_mods:
        if compare(m2, rho_sq) == Ordering.EQUAL:
            pair_attain += mult
    lo, hi = rho.interval()
    return rho.minpoly, lo, hi, attain + pair_attain == 1, pair_attain > 0


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
    """
    ctx = lam.context
    n = A.dim
    M = [[ctx.from_rational(A.rows[i][j]) - (lam if i == j else ctx.zero())
          for j in range(n)] for i in range(n)]
    kern = kernel(M)
    if len(kern) != 1:
        raise AlgebraicError(
            f"kernel dimension {len(kern)} != 1 for eigenvalue (multiplicity issue)")
    v = kern[0]
    # normalize first nonzero coordinate to 1, inverting it once
    inv = next(e for e in v if not e.is_zero()).inverse()
    return [e * inv for e in v]


def two_norm_sq(A: IntMatrix) -> RealAlgebraic:
    """Largest eigenvalue of A^T A; the squared matrix 2-norm.

    A^T A is positive semidefinite, so this is its spectral radius.
    """
    return spectral_radius(A.transpose() @ A).value


def frobenius_norm_sq(A: IntMatrix) -> int:
    return sum(v * v for r in A.rows for v in r)
