"""Exact real algebraic arithmetic.

Rationals, integer polynomials, real root isolation, real algebraic
numbers, and arithmetic in a fixed real number field Q(alpha).

Every number here is exact.  A real algebraic number has one
representation: its minimal polynomial, irreducible and primitive with a
positive leading coefficient, together with a rational interval
isolating exactly one real root.  Two values with the same minimal
polynomial are conjugates, equal iff their intervals share a root, and
values with different minimal polynomials differ.  Equality is decided
without ordering (`is_power`): equal minimal polynomials and a sign
change across the intervals' overlap, or for a == b^n a divisibility
and b^n's powered interval inside a's.  An ordering needs one sign for
a rational against an irrational and interval refinement otherwise,
never a floating tolerance.  Every halving loop of an exact answer is
bounded by its operands (a root-separation bound, Cauchy's bound, the
bits of a width), and more halvings are a bug; only `nth_root`, whose
bracket does not shrink with its argument's width alone, keeps the
fixed guard `_MAX_REFINE`.  Number field elements are integer
numerators of the coordinates over one positive denominator, in lowest
terms, over a shared immutable context; mixing contexts is a hard
error.

A root is pinned one way (`_root_in`): given a rational interval (lo,
hi) that holds exactly one real root of an integer polynomial p, with
no root at hi, the root is that of the one irreducible factor of p that
changes sign across the interval, with the interval as it is.  Each
caller brings its own interval: `real_algebraic_root` checks an
untrusted one with a Sturm count, `isolate_real_roots` bisects from the
Cauchy bound, and `nth_root` brackets the root by integer n-th roots of
the ends of its argument's interval.

The kernels below the public API work in integers: a polynomial's sign
at n/d is the sign of its homogenized value at (n, d), Sturm chains and
gcds come from pseudo-remainders with the content divided out, and
field products reduce modulo the integer minimal polynomial.  One memo
policy holds for the whole package: a pure function of immutable
arguments is memoized per process by `lru_cache` on those arguments,
with `MEMO_SIZE` entries unless its keys are few and fixed (a coded
member matrix, an identity), and returns values no caller can change.
Here that is Sturm chains, squarefree parts and factorizations, keyed
by the polynomial, and a number's text, keyed by its minimal polynomial
and interval.

A float conversion narrows a root once, at its first float need: a float
Newton iterate from the isolating interval, one exact Newton step, and a
cell of the 2^-_NARROW_BITS relative grid around it that two exact signs
certify (`_newton_cell`); halving takes over when they do not.

Field arithmetic normalizes each result once: an int operand scales
the numerators directly, and products over a monic minimal polynomial
of degree 2 or 3 are unrolled.  Three fused kernels serve the polytope
algorithm: `integer_combinations` (an integer matrix times a vector
brought to one denominator), `sub_scaled` (the elimination row update
v - f w) and `linear_combination` (a certificate's combination sums,
zero coefficients skipped).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from math import frexp, gcd, isfinite, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence, Union

import sympy

RationalLike = Union[int, Fraction]

# halvings of nth_root's argument before its bracket is declared a bug;
# every other halving loop takes its bound from its operands
_MAX_REFINE = 256
# a narrowed root's cell is two steps of 2^(e - _NARROW_BITS) for a root
# of binary exponent e, and its Newton iterate takes at most
# _FLOAT_NEWTON_STEPS float steps
_NARROW_BITS = 96
_FLOAT_NEWTON_STEPS = 8
# interval halvings compare_powers tries before building exact powers
_POWER_REFINE_ROUNDS = 3
# a cubic is factored by trial of its rational root candidates when its
# constant and leading coefficients are at most this in absolute value
_RATIONAL_ROOT_LIMIT = 1 << 14
# entries of each per-process memo in the package
MEMO_SIZE = 4096


class Ordering(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class AlgebraicError(Exception):
    pass


class ZeroPolynomialError(AlgebraicError):
    pass


class ContextMismatchError(AlgebraicError):
    pass


def _sgn(q) -> int:
    return (q > 0) - (q < 0)


def _format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Dense univariate polynomial with integer coefficients.

    Coefficients are stored lowest degree first; the leading coefficient
    is nonzero unless the polynomial is zero.
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def make(coeffs: Iterable[int]) -> "IntPolynomial":
        cs = list(int(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def sign_at(self, x: RationalLike) -> int:
        """Sign of p(n/d), from the integer sum c_i n^i d^(deg-i), which is
        p(n/d) times d^deg > 0."""
        n, d = x.numerator, x.denominator
        acc, dk = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * n + c * dk
            dk *= d
        return (acc > 0) - (acc < 0)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial.make(x + y for x, y in zip(a, b))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.make(out)

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial.make(k * c for c in self.coeffs)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.make(i * c for i, c in enumerate(self.coeffs) if i)

    def compose_power(self, n: int) -> "IntPolynomial":
        """Return p(x**n)."""
        if n < 1:
            raise ValueError("power must be >= 1")
        out = [0] * (self.degree * n + 1) if not self.is_zero else []
        for i, c in enumerate(self.coeffs):
            out[i * n] = c
        return IntPolynomial.make(out)

    def content(self) -> int:
        return gcd(*self.coeffs)

    def primitive(self) -> "IntPolynomial":
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    @lru_cache(maxsize=MEMO_SIZE)
    def squarefree_part(self) -> "IntPolynomial":
        """The primitive squarefree part (memoized)."""
        g = gcd_int_poly(self, self.derivative())
        if g.degree <= 0:
            return self.primitive()
        q, _ = _pseudo_divmod(self, g)
        return q.primitive()

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*x")
                else:
                    parts.append(f"{c}*x^{i}")
        return " + ".join(parts)


# -- integer pseudo-division ---------------------------------------------------


def _pseudo_divmod(a: IntPolynomial, b: IntPolynomial
                   ) -> tuple[IntPolynomial, IntPolynomial]:
    """(q, r) with |lc(b)|^k a = q b + r, k = max(deg a - deg b + 1, 0)
    and deg r < deg b, for nonzero b.

    The scale |lc(b)|^k is positive, so r is a positive multiple of the
    remainder over Q and keeps its signs.
    """
    lead, db = b.coeffs[-1], b.degree
    r = list(a.coeffs)
    q = [0] * max(0, len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        # r <- lead * r - c x^(i-db) b cancels the top term c
        c = r.pop()
        q = [lead * x for x in q]
        q[i - db] = c
        r = [lead * x for x in r]
        if c:
            for j in range(db):
                r[i - db + j] -= c * b.coeffs[j]
    if lead < 0 and len(q) % 2:
        q, r = [-x for x in q], [-x for x in r]
    return IntPolynomial.make(q), IntPolynomial.make(r)


def _content_free(p: IntPolynomial) -> IntPolynomial:
    """p divided by its (positive) content; the signs are kept."""
    g = p.content()
    return p if g <= 1 else IntPolynomial(tuple(c // g for c in p.coeffs))


def gcd_int_poly(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Q, normalized to an integer polynomial."""
    while not b.is_zero:
        _, r = _pseudo_divmod(a, b)
        a, b = b, _content_free(r)
    return a.primitive()


@lru_cache(maxsize=MEMO_SIZE)
def factor_int_poly(p: IntPolynomial
                    ) -> tuple[tuple[IntPolynomial, int], ...]:
    """Irreducible factorization over Q (primitive integer factors).

    The constant content is dropped; only non-constant factors with
    their multiplicities are returned, sorted by degree and coefficients.
    Degree 3 or less is factored by rational roots (`_factor_low_degree`),
    higher degrees by sympy.  Memoized, since one minimal polynomial is
    factored again by each check that meets it; the tuple is the memo's.
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    out = _factor_low_degree(p) if p.degree <= 3 else None
    if out is None:
        x = sympy.Symbol("x")
        poly = sympy.Poly(list(reversed(p.coeffs)), x)
        _, factors = poly.factor_list()
        out = []
        for fac, mult in factors:
            coeffs = [int(c) for c in reversed(fac.all_coeffs())]
            q = IntPolynomial.make(coeffs).primitive()
            if q.degree >= 1:
                out.append((q, int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return tuple(out)


def _factor_low_degree(p: IntPolynomial
                       ) -> list[tuple[IntPolynomial, int]] | None:
    """The factors of p, of degree at most 3, or None for a cubic whose
    rational root candidates are too many to try.

    Over Q such a polynomial is reducible iff it has a rational root
    s/t, and then s divides the constant and t the leading coefficient.
    Roots at 0 give the factor x; a cubic without one is deflated by the
    linear factor t x - s of a rational root found by trial; a quadratic
    splits iff its discriminant is a square.
    """
    zeros = next(k for k, c in enumerate(p.coeffs) if c)
    rest = IntPolynomial(p.coeffs[zeros:]).primitive()
    linear = [(0, 1)] * zeros  # (s, t) of each rational root s/t
    if rest.degree == 3:
        c0, lead = rest.coeffs[0], rest.coeffs[-1]
        if max(abs(c0), lead) > _RATIONAL_ROOT_LIMIT:
            return None
        root = next(((s, t) for t in _divisors(lead) for d in _divisors(c0)
                     for s in (d, -d)
                     if gcd(s, t) == 1 and rest.sign_at(Fraction(s, t)) == 0),
                    None)
        if root is not None:
            linear.append(root)
            # Gauss: the quotient by the primitive t x - s is primitive
            q, _ = _pseudo_divmod(rest, IntPolynomial((-root[0], root[1])))
            rest = q.primitive()
    if rest.degree == 2:
        c, b, a = rest.coeffs
        disc = b * b - 4 * a * c
        r = isqrt(disc) if disc >= 0 else -1
        if r * r == disc:
            for num in (-b - r, -b + r):
                q = Fraction(num, 2 * a)
                linear.append((q.numerator, q.denominator))
            rest = IntPolynomial((1,))
    mult: dict[IntPolynomial, int] = {}
    for s, t in linear:
        f = IntPolynomial((-s, t))
        mult[f] = mult.get(f, 0) + 1
    if rest.degree >= 1:
        mult[rest] = mult.get(rest, 0) + 1
    return list(mult.items())


def integer_roots(p: IntPolynomial) -> list[int]:
    """The distinct integer roots of a nonzero p, ascending: those of
    its monic linear factors.  For a monic p, such as a characteristic
    polynomial, these are all of its rational roots."""
    return sorted(-f.coeffs[0] for f, _ in factor_int_poly(p)
                  if f.coeffs[1:] == (1,))


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


# -- Sturm sequences ---------------------------------------------------------


@lru_cache(maxsize=MEMO_SIZE)
def sturm_chain(p: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """The Sturm chain of p with the contents divided out, memoized: one
    minimal polynomial meets the context check, `deserialize`,
    `to_real_algebraic` and `compare` again and again."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree >= 1:
        _, r = _pseudo_divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        # only positive scaling preserves Sturm sign sequences
        chain.append(_content_free(-r))
    return tuple(q for q in chain if not q.is_zero)


def _sign_changes(chain: Sequence[IntPolynomial], x: Fraction) -> int:
    signs = [s for s in (q.sign_at(x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of squarefree p in (lo, hi]."""
    chain = sturm_chain(p)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def root_bound(p: IntPolynomial) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(p.leading)
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree >= 1 else 0
    return Fraction(1) + Fraction(m, lead)


# ---------------------------------------------------------------------------
# real algebraic numbers
# ---------------------------------------------------------------------------


class RealAlgebraic:
    """An exact real number: minimal polynomial + isolating interval.

    The polynomial is the number's minimal polynomial over Q: irreducible,
    primitive, with a positive leading coefficient.  Every constructor
    keeps this invariant, so equal polynomials mean the same conjugate
    class and different ones mean different numbers.  A rational q has
    the interval [q, q].

    Instances are immutable; refinement returns nothing but tightens the
    cached interval in place (the represented value never changes, so
    this is safe to share between threads holding the GIL).
    """

    __slots__ = ("minpoly", "_lo", "_hi", "_sign_hi", "_narrowed")

    def __init__(self, minpoly: IntPolynomial, lo: Fraction, hi: Fraction):
        self.minpoly = minpoly
        self._lo = lo
        self._hi = hi
        self._sign_hi = None  # the sign of minpoly at _hi, once `refine` needs it
        self._narrowed = False  # `narrow` has run

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rational(q: RationalLike) -> "RealAlgebraic":
        q = Fraction(q)
        poly = IntPolynomial.make([-q.numerator, q.denominator]).primitive()
        return RealAlgebraic(poly, q, q)

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def is_rational(self) -> bool:
        return self.minpoly.degree == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise AlgebraicError("not a rational value")
        return Fraction(-self.minpoly.coeffs[0], self.minpoly.coeffs[1])

    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def refine(self) -> None:
        """Halve the isolating interval.

        One sign evaluation per halving: the sign of the minimal
        polynomial at the upper endpoint is kept.  It never changes, as
        the upper endpoint moves only to a midpoint of that same sign.
        """
        if self._lo == self._hi:
            return
        if self._sign_hi is None:
            self._sign_hi = self.minpoly.sign_at(self._hi)
        mid = (self._lo + self._hi) / 2
        s = self.minpoly.sign_at(mid)
        if s == 0:
            # rational root hit exactly; can only happen for degree-1 minpoly
            self._lo = self._hi = mid
            return
        if s == self._sign_hi:
            self._hi = mid
        else:
            self._lo = mid

    def narrow(self) -> None:
        """Narrow the isolating interval of an irrational value once, to
        the cell `_newton_cell` certifies; later calls do nothing, and
        without a certified cell the interval stays as it was."""
        if self._narrowed or self._lo == self._hi:
            return
        self._narrowed = True
        cell = _newton_cell(self.minpoly, self._lo, self._hi)
        if cell is not None:
            self._lo, self._hi, self._sign_hi = cell

    def refine_below(self, width: Fraction) -> None:
        """Halve the interval until it is at most width > 0 wide; each
        halving halves it (or pins a rational), so this takes at most
        log2(current width / width) + 1 halvings."""
        while self._hi - self._lo > width:
            self.refine()

    def sign(self) -> int:
        if self.is_rational:
            return _sgn(self.as_rational())
        self.exclude_zero()
        return 1 if self._lo > 0 else -1

    def exclude_zero(self) -> None:
        """Refine until the interval is sign-definite (value must be != 0).

        The halvings are bounded by the width's bits and the value's
        size: Cauchy's bound on 1 / value gives
        |value| > |c_0| / (|c_0| + max |c_i|) for the minimal polynomial's
        coefficients; more are a bug."""
        if self.is_rational:
            return
        limit = None
        while self._lo <= 0 <= self._hi:
            if limit is None:
                c0, *rest = map(abs, self.minpoly.coeffs)
                limit = _halvings(self._hi - self._lo,
                                  _log2_above(Fraction(c0 + max(rest), c0)))
            elif limit == 0:
                raise AlgebraicError("sign determination did not converge")
            self.refine()
            limit -= 1

    def __neg__(self) -> "RealAlgebraic":
        poly = IntPolynomial.make(
            (-c if i % 2 else c) for i, c in enumerate(self.minpoly.coeffs)
        ).primitive()
        return RealAlgebraic(poly, -self._hi, -self._lo)

    def scale(self, q: RationalLike) -> "RealAlgebraic":
        """Return q * self for rational q."""
        q = Fraction(q)
        if q == 0:
            return RealAlgebraic.from_rational(0)
        d = self.degree
        # p(x/q) cleared of denominators
        cs = [self.minpoly.coeffs[i] * q.denominator**i * q.numerator ** (d - i)
              for i in range(d + 1)]
        poly = IntPolynomial.make(cs).primitive()
        lo, hi = self._lo * q, self._hi * q
        if q < 0:
            lo, hi = hi, lo
        return RealAlgebraic(poly, lo, hi)

    def pow(self, k: int) -> "RealAlgebraic":
        if k == 0:
            return RealAlgebraic.from_rational(1)
        if k < 0:
            raise ValueError("negative powers not supported")
        if self.is_rational:
            return RealAlgebraic.from_rational(self.as_rational() ** k)
        ctx = NumberFieldContext(self.minpoly, self._lo, self._hi)
        return (ctx.generator() ** k).to_real_algebraic()

    def __float__(self) -> float:
        """The midpoint of an isolating interval narrower than 1e-17:
        narrowed once (`narrow`), then halved while still wider."""
        if self._hi - self._lo > Fraction(1, 10**17):
            self.narrow()
            self.refine_below(Fraction(1, 10**17))
        return float((self._lo + self._hi) / 2)

    def __repr__(self) -> str:
        return f"RealAlgebraic({self.minpoly}, ~{float(self):.6g})"

    # -- serialization (certificate text form) --------------------------------

    def serialize(self) -> str:
        """Text that depends on the number alone, not on refinement history.

        The polynomial is the minimal polynomial and the interval is the
        widest dyadic cell [k/2^j, (k+1)/2^j], j >= 0, that isolates the
        root; a rational q is written [q,q].  The text is memoized by
        minimal polynomial and current interval: as it depends on the
        number alone, a hit is the text a fresh computation would give.
        """
        return _render(self.minpoly, self._lo, self._hi)

    def isolating_cell(self) -> tuple[Fraction, Fraction]:
        """[q, q] for a rational q, else `_dyadic_cell`; either depends on
        the number alone."""
        return (self._lo, self._hi) if self.is_rational else \
            _dyadic_cell(self.minpoly, self._lo, self._hi)

    @staticmethod
    def deserialize(text: str) -> "RealAlgebraic":
        try:
            mp_part, iv_part = text.split(";")
            cs = mp_part.removeprefix("minpoly=[").removesuffix("]")
            lo_hi = iv_part.removeprefix("interval=[").removesuffix("]")
            coeffs = [int(c) for c in cs.split(",")]
            lo_s, hi_s = lo_hi.split(",")
            lo, hi = Fraction(lo_s), Fraction(hi_s)
        except (ValueError, ZeroDivisionError) as exc:
            raise AlgebraicError(f"malformed real-algebraic text: {text!r}") from exc
        poly = IntPolynomial.make(coeffs)
        # deserialized data is untrusted: the endpoints of a proper interval
        # must not be roots, and `real_algebraic_root` checks the rest
        if lo != hi and (poly.sign_at(lo) == 0 or poly.sign_at(hi) == 0):
            raise AlgebraicError("interval endpoint is a root")
        return real_algebraic_root(poly, lo, hi)


@lru_cache(maxsize=MEMO_SIZE)
def _render(p: IntPolynomial, lo: Fraction, hi: Fraction) -> str:
    """`RealAlgebraic.serialize` of the root of p isolated by [lo, hi]."""
    cs = ",".join(map(str, p.coeffs))
    if p.degree != 1:
        lo, hi = _dyadic_cell(p, lo, hi)
    return f"minpoly=[{cs}];interval=[{_format_rational(lo)},{_format_rational(hi)}]"


def _dyadic_cell(p: IntPolynomial, lo: Fraction, hi: Fraction
                 ) -> tuple[Fraction, Fraction]:
    """The widest dyadic cell of width <= 1 isolating the irrational root
    of p that [lo, hi] isolates.

    The cell is found by bisection from the unit cell that contains
    the root, so only the number decides it; that unit cell is found by
    bisection over the integers from floor(lo) to ceil(hi), so a wide
    interval costs its bit length, not its width.  No rational point is
    a root of an irreducible polynomial of degree >= 2, so every cell
    endpoint is a non-root.
    """
    s_lo = p.sign_at(lo)

    def left_of(c: Fraction) -> bool:
        # (lo, hi) isolates the root, so inside it the sign of p
        # tells the side
        if c <= lo:
            return False
        if c >= hi:
            return True
        return p.sign_at(c) != s_lo

    # the root lies in (k, top)
    k, top = lo.numerator // lo.denominator, -(-hi.numerator // hi.denominator)
    while top - k > 1:
        mid = (k + top) // 2
        if left_of(Fraction(mid)):
            top = mid
        else:
            k = mid
    # a cell narrower than p's root separation holds one root
    a, b = Fraction(k), Fraction(k + 1)
    limit = _halvings(b - a, _separation_bits(p))
    while count_roots_in(p, a, b) != 1:
        if limit == 0:
            raise AlgebraicError("dyadic isolation did not converge")
        mid = (a + b) / 2
        if left_of(mid):
            b = mid
        else:
            a = mid
        limit -= 1
    return a, b


def _newton_cell(p: IntPolynomial, lo: Fraction, hi: Fraction
                 ) -> tuple[Fraction, Fraction, int] | None:
    """A narrow cell (a, b) inside [lo, hi] around the irrational root of
    p that [lo, hi] isolates, with the sign of p at b; or None, when the
    floats fail or the signs do not certify the cell.

    Float Newton steps from the midpoint of [lo, hi] give x = n / D.
    One exact Newton step from x, which squares its error, gives
    X = (n P' - P) / (D P'), for P = p(x) D^deg and P' = p'(x) D^(deg-1)
    in integers.  The cell is [k - 1, k + 1] h for the grid step
    h = 2^(e - _NARROW_BITS) of x's binary exponent e and the k nearest
    X / h.  It holds the root when it lies in [lo, hi] and p changes sign
    across it; no rational is a root of p, so neither end is.  A root or
    coefficient beyond the float range fails the floats.
    """
    coeffs = p.coeffs[::-1]  # highest degree first
    try:
        fc = [float(c) for c in coeffs]
        x = float((lo + hi) / 2)
        for _ in range(_FLOAT_NEWTON_STEPS):
            v = dv = 0.0
            for c in fc:
                dv = dv * x + v
                v = v * x + c
            step = v / dv
            x -= step
            if abs(step) <= abs(x) * 2.0**-52:
                break
    except (OverflowError, ZeroDivisionError):
        return None
    if not isfinite(x) or x == 0.0:
        return None
    n, D = x.as_integer_ratio()
    deg = p.degree
    val = der = 0
    dk = 1
    for i, c in enumerate(coeffs):
        val = val * n + c * dk
        if i < deg:
            der = der * n + (deg - i) * c * dk
        dk *= D
    # val = P, der = P': X = n / D - P / (D P')
    num, den = n * der - val, D * der
    if den == 0:
        return None
    if den < 0:
        num, den = -num, -den
    shift = _NARROW_BITS - frexp(x)[1]
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    k = (2 * num + den) // (2 * den)
    a, b = (Fraction(k - 1, 1 << shift), Fraction(k + 1, 1 << shift)) \
        if shift >= 0 else (Fraction((k - 1) << -shift), Fraction((k + 1) << -shift))
    if a < lo or b > hi:
        return None
    sb = p.sign_at(b)
    if p.sign_at(a) != -sb:
        return None
    return a, b, sb


def _root_in(p: IntPolynomial, lo: Fraction, hi: Fraction) -> RealAlgebraic:
    """The one real root of p in (lo, hi), whose end hi is no root of p.

    The root is a simple root of exactly one irreducible factor f of p,
    and no other factor vanishes inside the interval, so f is the one
    factor that changes sign across it.  The end lo may be a root of
    another factor, whose sign there is 0; f's is not.
    """
    f = next(f for f, _ in factor_int_poly(p) if f.sign_at(lo) * f.sign_at(hi) < 0)
    if f.degree == 1:
        return RealAlgebraic.from_rational(Fraction(-f.coeffs[0], f.coeffs[1]))
    return RealAlgebraic(f, lo, hi)


def real_algebraic_root(p: IntPolynomial, lo: Fraction, hi: Fraction) -> RealAlgebraic:
    """The unique real root of p in [lo, hi] as a canonical RealAlgebraic.

    The polynomial need not be irreducible or squarefree; the interval
    must contain exactly one distinct real root, which the checks here
    establish before `_root_in` pins it.
    """
    if p.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if lo == hi:
        if p.sign_at(lo) != 0:
            raise AlgebraicError("claimed rational root does not vanish")
        return RealAlgebraic.from_rational(lo)
    sf = p.squarefree_part()
    if sf.sign_at(lo) == 0:
        if count_roots_in(sf, lo, hi) == 0:
            return RealAlgebraic.from_rational(lo)
        raise AlgebraicError("interval does not isolate a single root")
    n = count_roots_in(sf, lo, hi)
    if n != 1:
        raise AlgebraicError("interval does not isolate a single root")
    if sf.sign_at(hi) == 0:
        # the isolated root is the rational endpoint hi itself
        return RealAlgebraic.from_rational(hi)
    return _root_in(sf, lo, hi)


def isolate_real_roots(p: IntPolynomial) -> list[RealAlgebraic]:
    """All distinct real roots of p, ascending, with disjoint intervals
    that exclude 0.

    The squarefree part is bisected from its Cauchy bound, its rational
    roots included, into half-open intervals (lo, hi] holding one root
    each: a root on a bisection point is the rational hi, any other is
    pinned by `_root_in`.  An interval with two roots is wider than their
    distance, so the squarefree part's root-separation bound
    (`_separation_bits`) bounds the depth and the separation of
    neighbours; beyond it is a bug.
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    sf = p.squarefree_part()
    bound = root_bound(sf)
    sep_bits = _separation_bits(sf)
    max_depth = _halvings(2 * bound, sep_bits)
    out: list[RealAlgebraic] = []
    stack = [(-bound, bound, count_roots_in(sf, -bound, bound), 0)]
    while stack:
        lo, hi, n, depth = stack.pop()
        if n == 0:
            continue
        if n == 1:
            if sf.sign_at(hi) == 0:
                out.append(RealAlgebraic.from_rational(hi))
            else:
                r = _root_in(sf, lo, hi)
                r.exclude_zero()
                out.append(r)
            continue
        if depth == max_depth:
            raise AlgebraicError("root isolation did not converge")
        mid = (lo + hi) / 2
        nl = count_roots_in(sf, lo, mid)
        stack.append((lo, mid, nl, depth + 1))
        stack.append((mid, hi, n - nl, depth + 1))
    # a rational root hi may be the lo of the next root's interval, so
    # the order is by (lo, hi), not by lo alone
    out.sort(key=RealAlgebraic.interval)
    for a, b in zip(out, out[1:]):
        _separate(a, b, sep_bits)
    return out


def _separate(a: RealAlgebraic, b: RealAlgebraic, sep_bits: int) -> None:
    """Refine two values a < b, at least 2^-sep_bits apart, until their
    intervals are disjoint."""
    limit = None
    while a.interval()[1] >= b.interval()[0]:
        if limit is None:
            limit = _halvings(a._hi - a._lo + b._hi - b._lo, sep_bits)
        elif limit == 0:
            raise AlgebraicError("interval separation did not converge")
        a.refine()
        b.refine()
        limit -= 1


def compare(a, b) -> Ordering:
    """Exact total order on real algebraic numbers and rationals; a
    RealAlgebraic and a rational may be mixed freely.  Use it for
    orderings; `is_power` answers equality without one.

    A rational is ordered against an irrational by one sign
    (`_order_at`).  Two irrationals are equal iff they are conjugates
    whose intervals share the root; otherwise both intervals are halved
    until they separate.  Both values are distinct roots of the minimal
    polynomial, or of the two minimal polynomials' product, so the
    halvings are bounded by the bits of the widths and that polynomial's
    root-separation bound (`_separation_bits`); more are a bug.
    """
    if type(a) is RealAlgebraic and a.is_rational:
        a = a.as_rational()
    if type(b) is RealAlgebraic and b.is_rational:
        b = b.as_rational()
    if type(a) is not RealAlgebraic:
        if type(b) is not RealAlgebraic:
            return Ordering(_sgn(a - b))
        # never EQUAL: b is irrational
        return Ordering.LESS if _order_at(b, a) is Ordering.GREATER else Ordering.GREATER
    if type(b) is not RealAlgebraic:
        return _order_at(a, b)
    if a.minpoly == b.minpoly and _share_root(a, b):
        return Ordering.EQUAL
    # distinct values: refine until the intervals separate
    limit = None
    while True:
        alo, ahi = a.interval()
        blo, bhi = b.interval()
        if ahi < blo:
            return Ordering.LESS
        if bhi < alo:
            return Ordering.GREATER
        if limit is None:
            p = a.minpoly if a.minpoly == b.minpoly else a.minpoly * b.minpoly
            limit = _halvings(ahi - alo + bhi - blo, _separation_bits(p))
        elif limit == 0:
            raise AlgebraicError("comparison did not converge")
        a.refine()
        b.refine()
        limit -= 1


def _share_root(a: RealAlgebraic, b: RealAlgebraic) -> bool:
    """For irrational conjugates a and b: their intervals' overlap holds
    the root, so a == b.  Each interval isolates one root of the minimal
    polynomial p, so the overlap holds at most one; p has no rational
    root, so it holds one iff p changes sign across it."""
    lo, hi = max(a._lo, b._lo), min(a._hi, b._hi)
    p = a.minpoly
    return lo < hi and p.sign_at(lo) == -p.sign_at(hi)


def _log2_above(q: Fraction) -> int:
    """An integer above log2 q, for q > 0."""
    return q.numerator.bit_length() - q.denominator.bit_length() + 1


def _halvings(width: Fraction, bits: int) -> int:
    """Halvings enough to take an interval of this width below 2^-bits."""
    return max(_log2_above(width) + bits, 0) + 1


def _separation_bits(p: IntPolynomial) -> int:
    """An s with 2^-s below the distance of any two distinct roots of the
    squarefree integer polynomial p of degree d >= 2: Mahler's bound
    sqrt(3 |disc|) d^(-(d + 2)/2) ||p||_2^(1 - d), where the nonzero
    integer discriminant is at least 1 in size and
    log2 ||p||_2 <= ceil(bits(sum c_i^2) / 2)."""
    d = p.degree
    norm_bits = (sum(c * c for c in p.coeffs).bit_length() + 1) // 2
    return ((d + 2) * d.bit_length() + 1) // 2 + (d - 1) * norm_bits


def is_power(a, b, n: int) -> bool:
    """Exactly: a == b^n, for a and b each rational or a RealAlgebraic
    and n >= 1, without ordering them: a is never refined, and b only to
    place b^n among the roots of a's minimal polynomial.

    - A rational b: b^n is rational, and equals a only as a rational.
    - n = 1: equal iff the minimal polynomials are equal and the overlap
      of the isolating intervals holds their root (`_share_root`).
    - n > 1: b^n is a root of a's minimal polynomial p_a iff b's minimal
      polynomial divides p_a(x^n), which one integer pseudo-division
      decides; a rational a is then b^n, as p_a has one root.  An
      irrational a is the root of p_a in its interval, so b is refined
      until b^n's powered interval lies in a's (equal) or misses it (a
      conjugate).  b^n and the ends of a's interval are distinct roots
      of p_a times the ends' linear factors, so a root-separation bound
      (`_separation_bits`) bounds the halvings; more are a bug.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    if type(a) is RealAlgebraic and a.is_rational:
        a = a.as_rational()
    if type(b) is RealAlgebraic and b.is_rational:
        b = b.as_rational()
    if type(b) is not RealAlgebraic:
        return type(a) is not RealAlgebraic and a == b**n
    if n == 1:
        return type(a) is RealAlgebraic and a.minpoly == b.minpoly and _share_root(a, b)
    pa = a.minpoly if type(a) is RealAlgebraic else \
        IntPolynomial((-a.numerator, a.denominator))
    if not _pseudo_divmod(pa.compose_power(n), b.minpoly)[1].is_zero:
        return False
    if type(a) is not RealAlgebraic:
        return True
    lo, hi = a.interval()
    b.exclude_zero()
    limit = None
    while True:
        blo, bhi = b.interval()
        plo, phi = sorted((blo**n, bhi**n))
        if lo <= plo and phi <= hi:
            return True
        if phi < lo or hi < plo:
            return False
        if limit is None:
            # the powered width is at most n max(|blo|, |bhi|)^(n-1) (bhi - blo)
            top = max(abs(blo), abs(bhi))
            limit = _halvings((bhi - blo) * n * top ** (n - 1), max(
                _separation_bits(pa * IntPolynomial((-e.numerator, e.denominator)))
                for e in (lo, hi)))
        elif limit == 0:
            raise AlgebraicError("power test did not converge")
        b.refine()
        limit -= 1


def _order_at(r: RealAlgebraic, q: RationalLike) -> Ordering:
    """The order of an irrational r against a rational q, by one sign:
    off r's interval [lo, hi] the interval tells, and inside it q is
    above r iff the minimal polynomial has the same sign at q as at hi
    (neither is a root)."""
    lo, hi = r.interval()
    if q <= lo:
        return Ordering.GREATER
    if q >= hi:
        return Ordering.LESS
    p = r.minpoly
    return Ordering.LESS if p.sign_at(q) == p.sign_at(hi) else Ordering.GREATER


class PowerMemo:
    """Powers of one nonnegative RealAlgebraic b, by exponent, for
    `compare_powers`: the exact powers built so far, and the powered
    endpoints of b's isolating interval as (lo, hi, lo^n, hi^n) for the
    interval [lo, hi] they were made from."""

    __slots__ = ("exact", "ends")

    def __init__(self):
        self.exact: dict[int, RealAlgebraic] = {}
        self.ends: dict[int, tuple[Fraction, Fraction, Fraction, Fraction]] = {}


def compare_powers(a: Union[int, Fraction, RealAlgebraic], m: int,
                   b: RealAlgebraic, n: int,
                   b_powers: PowerMemo | None = None) -> Ordering:
    """Exact order of a^m against b^n for nonnegative a and b.  Use it
    for orderings; `is_power` decides a == b^n without one.

    When each of a and b is rational or a root of a binomial minimal
    polynomial c x^k - d (every complex-pair 2x2 radius sqrt(det) is
    one), one integer comparison decides (`_radical_order`), without
    intervals or Fractions.  Otherwise the powered isolating intervals
    decide on strict separation, after at most `_POWER_REFINE_ROUNDS`
    halvings of each interval; only on overlap are the powers built
    exactly, through `RealAlgebraic.pow`.  `b_powers`, when given,
    memoizes the powers of b and is filled in place.
    """
    order = _radical_order(a, m, b, n)
    if order is not None:
        return order
    if isinstance(a, RealAlgebraic) and a.is_rational:
        a = a.as_rational()
    exact = not isinstance(a, RealAlgebraic)
    zero = Fraction(0)
    if exact:
        alo_m = ahi_m = a**m
    for rounds in range(_POWER_REFINE_ROUNDS + 1):
        if not exact:
            # both values are nonnegative: clip the intervals at 0 to power them
            alo, ahi = a.interval()
            alo_m, ahi_m = max(alo, zero)**m, max(ahi, zero)**m
        blo_n, bhi_n = _powered_interval(b, n, b_powers)
        if ahi_m < blo_n:
            return Ordering.LESS
        if alo_m > bhi_n:
            return Ordering.GREATER
        if rounds < _POWER_REFINE_ROUNDS:
            if not exact:
                a.refine()
            b.refine()
    bn = None if b_powers is None else b_powers.exact.get(n)
    if bn is None:
        bn = b if n == 1 else b.pow(n)
        if b_powers is not None:
            b_powers.exact[n] = bn
    return compare(alo_m if exact else a if m == 1 else a.pow(m), bn)


def _radical_order(a, m: int, b: RealAlgebraic, n: int) -> Ordering | None:
    """The order of a^m against b^n by integers alone, or None.

    It applies when a and b are each rational, x = d / c with c > 0
    (k = 1), or positive roots of a binomial minimal polynomial
    c x^k - d.  Raising both sides to the power ka kb turns a^m against
    b^n into (da / ca)^(m kb) against (db / cb)^(n ka), and clearing
    the positive denominators gives da^(m kb) cb^(n ka) against
    db^(n ka) ca^(m kb).  The raising keeps the order when both sides
    are nonnegative; two rationals (ka = kb = 1) need no raising and may
    have any sign.
    """
    ra, rb = _radical(a), _radical(b)
    if ra is None or rb is None:
        return None
    (da, ca, ka), (db, cb, kb) = ra, rb
    if ka * kb > 1 and (da < 0 or db < 0):
        return None
    ea, eb = m * kb, n * ka
    return Ordering(_sgn(da**ea * cb**eb - db**eb * ca**ea))


def _radical(x) -> tuple[int, int, int] | None:
    """(d, c, k) with x^k = d / c and c > 0 when x is rational (k = 1) or
    a positive root of a binomial minimal polynomial c x^k - d, else
    None."""
    if not isinstance(x, RealAlgebraic):
        return x.numerator, x.denominator, 1
    cs = x.minpoly.coeffs
    k = len(cs) - 1
    if k == 1 or (x._lo >= 0 and not any(cs[1:k])):
        return -cs[0], cs[k], k
    return None


def _powered_interval(b: RealAlgebraic, n: int,
                      memo: PowerMemo | None) -> tuple[Fraction, Fraction]:
    """The endpoints of b's isolating interval, clipped at 0, to the n-th
    power."""
    lo, hi = b.interval()
    if memo is not None:
        hit = memo.ends.get(n)
        # refine() replaces an endpoint object whenever it moves it
        if hit is not None and hit[0] is lo and hit[1] is hi:
            return hit[2], hit[3]
    zero = Fraction(0)
    lo_n, hi_n = max(lo, zero)**n, max(hi, zero)**n
    if memo is not None:
        memo.ends[n] = (lo, hi, lo_n, hi_n)
    return lo_n, hi_n


def nth_root(a: RealAlgebraic, n: int) -> RealAlgebraic:
    """The positive real n-th root of a > 0.

    Each end u/v of a's interval brackets its n-th root by the integer
    k = floor((u v^(n-1))^(1/n)): (u/v)^(1/n) lies in [k, k + 1] / v.
    The ends (alo, ahi) give [lo, hi] with lo^n <= alo and hi^n > ahi,
    and a is refined until (lo^n, hi^n) holds no other root of a's
    minimal polynomial p; then (lo, hi) holds one root of p(x^n), pinned
    by `_root_in`.  A rational a that is an exact n-th power is lo^n.
    The bracket's resolution is 1 / v for the denominators v of a's
    interval ends, not the interval's width (an end that halving has not
    moved keeps its denominator), so no bound on the halvings follows from
    the operands alone; the fixed `_MAX_REFINE` guards them instead.
    """
    if n < 1:
        raise ValueError("root order must be >= 1")
    if a.sign() <= 0:
        raise AlgebraicError("nth_root requires a positive argument")
    if n == 1:
        return a
    p = a.minpoly
    guard = 0
    while True:
        alo, ahi = a.interval()
        m = alo.numerator * alo.denominator ** (n - 1)
        k = _int_floor_root(m, n)
        lo = Fraction(k, alo.denominator)
        if a.is_rational and k ** n == m:
            return RealAlgebraic.from_rational(lo)
        hi = Fraction(_int_floor_root(ahi.numerator * ahi.denominator ** (n - 1), n) + 1,
                      ahi.denominator)
        if count_roots_in(p, lo ** n, hi ** n) == 1:
            return _root_in(p.compose_power(n), lo, hi)
        a.refine()
        guard += 1
        if guard > _MAX_REFINE:
            raise AlgebraicError("n-th root isolation did not converge")


def _int_floor_root(m: int, n: int) -> int:
    """The integer floor(m^(1/n)) of m >= 0."""
    if m < 2:
        return m
    if n == 2:
        return isqrt(m)
    # integer Newton from 2^ceil(bits/n) >= m^(1/n) decreases to the floor
    r = 1 << -(-m.bit_length() // n)
    while True:
        s = ((n - 1) * r + m // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------


class NumberFieldContext:
    """The field Q(alpha) for a fixed real root alpha of an irreducible poly.

    Contexts are immutable and shared by handle: elements of different
    context objects must never be mixed, even if mathematically equal.
    """

    __slots__ = ("minpoly", "_root", "degree")

    def __init__(self, minpoly: IntPolynomial, lo: Fraction, hi: Fraction):
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self._root = RealAlgebraic(minpoly, lo, hi)

    @staticmethod
    def rational_context() -> "NumberFieldContext":
        return NumberFieldContext(IntPolynomial.make([0, 1]), Fraction(0), Fraction(0))

    @staticmethod
    def from_real_algebraic(a: RealAlgebraic) -> "NumberFieldContext":
        lo, hi = a.interval()
        return NumberFieldContext(a.minpoly, lo, hi)

    def root_interval(self) -> tuple[Fraction, Fraction]:
        return self._root.interval()

    def refine_root(self) -> None:
        self._root.refine()

    def narrow_root(self) -> None:
        """Narrow the root once (`RealAlgebraic.narrow`)."""
        self._root.narrow()

    def root_cell(self) -> tuple[Fraction, Fraction]:
        """The root's widest isolating dyadic cell, or [q, q] for a
        rational root: unlike `root_interval`, it does not depend on how
        far the root has been refined."""
        return self._root.isolating_cell()

    # -- element constructors -------------------------------------------------

    def element(self, coords: Sequence[RationalLike]) -> "FieldElement":
        cs = [Fraction(c) for c in coords]
        den = lcm(*(c.denominator for c in cs))
        return self._element([c.numerator * (den // c.denominator) for c in cs], den)

    def from_rational(self, q: RationalLike) -> "FieldElement":
        if type(q) is not int:
            q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1),
                            q.denominator)

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            # alpha is the rational root itself
            return self.from_rational(
                Fraction(-self.minpoly.coeffs[0], self.minpoly.coeffs[1]))
        return self._element([0, 1], 1)

    def _element(self, nums: list[int], den: int) -> "FieldElement":
        """The element nums(alpha) / den for den != 0, in lowest terms;
        nums may be of any length."""
        d = self.degree
        if len(nums) > d:
            nums, den = self._reduce(nums, den)
        elif len(nums) < d:
            nums = nums + [0] * (d - len(nums))
        return self._lowest(nums, den)

    def _reduce(self, nums: list[int], den: int) -> tuple[list[int], int]:
        """(r, e) with r(alpha) / e = nums(alpha) / den and len(r) == degree."""
        d = self.degree
        m = self.minpoly.coeffs
        lead = m[-1]
        # each step r <- lead * r - c x^(i-d) minpoly cancels the top term
        # c and multiplies the value by lead
        for i in range(len(nums) - 1, d - 1, -1):
            c = nums.pop()
            if c:
                if lead != 1:
                    nums = [lead * x for x in nums]
                    den *= lead
                for j in range(d):
                    nums[i - d + j] -= c * m[j]
        return nums, den

    def _lowest(self, nums: list[int], den: int) -> "FieldElement":
        """The element nums(alpha) / den, len(nums) == degree, in lowest
        terms: the one normalization of every operation."""
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        return FieldElement(self, tuple(nums), den)

    def _mul_nums(self, a: Sequence[int], b: Sequence[int]
                  ) -> tuple[list[int], int]:
        """(r, s) with a(alpha) b(alpha) = r(alpha) / s and len(r) ==
        degree; s == 1 for a monic minimal polynomial, whose products of
        degree 2 and 3 are unrolled (the minimal polynomial of an
        eigenvalue of an integer matrix is monic)."""
        d = self.degree
        m = self.minpoly.coeffs
        if m[-1] == 1 and d <= 3:
            if d == 3:
                a0, a1, a2 = a
                b0, b1, b2 = b
                c0, c1, c2 = m[0], m[1], m[2]
                # x^3 = -(c0 + c1 x + c2 x^2) folds the x^4, then the x^3 term
                p4 = a2 * b2
                p3 = a1 * b2 + a2 * b1 - p4 * c2
                return [a0 * b0 - p3 * c0,
                        a0 * b1 + a1 * b0 - p4 * c0 - p3 * c1,
                        a0 * b2 + a1 * b1 + a2 * b0 - p4 * c1 - p3 * c2], 1
            if d == 2:
                a0, a1 = a
                b0, b1 = b
                p2 = a1 * b1
                return [a0 * b0 - p2 * m[0], a0 * b1 + a1 * b0 - p2 * m[1]], 1
            return [a[0] * b[0]], 1
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self._reduce(prod, 1)

    def __repr__(self) -> str:
        lo, hi = self.root_interval()
        return f"NumberFieldContext({self.minpoly}, root~[{lo},{hi}])"


class FieldElement:
    """Element of a NumberFieldContext: sum nums[i] * alpha**i / den.

    The numerators are integers over one positive denominator with
    gcd(den, *nums) == 1, so each value has one representation and `==`
    and `hash` are exact.  `coords` gives the same value as Fractions.
    Build elements through the context; the constructor takes the
    representation as is.
    """

    __slots__ = ("context", "nums", "den")

    def __init__(self, context: NumberFieldContext, nums: tuple[int, ...],
                 den: int = 1):
        self.context = context
        self.nums = nums
        self.den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def _check(self, other: "FieldElement") -> None:
        if self.context is not other.context:
            raise ContextMismatchError("elements belong to different field contexts")

    def _coerce(self, other) -> "FieldElement":
        if type(other) is FieldElement:
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.from_rational(other)
        return NotImplemented

    def _combine(self, o: "FieldElement", sign: int) -> "FieldElement":
        a, b = self.den, o.den
        if a == b:
            if sign > 0:
                nums = [x + y for x, y in zip(self.nums, o.nums)]
            else:
                nums = [x - y for x, y in zip(self.nums, o.nums)]
        else:
            g = gcd(a, b)
            ma, mb = b // g, a // g
            if sign < 0:
                mb = -mb
            nums = [x * ma + y * mb for x, y in zip(self.nums, o.nums)]
            a *= ma
        return self.context._lowest(nums, a)

    def _shift(self, k: int) -> "FieldElement":
        """self + k for an integer k: adding k * den to the constant
        numerator keeps gcd(den, *nums) == 1, so nothing is normalized."""
        return FieldElement(self.context,
                            (self.nums[0] + k * self.den,) + self.nums[1:],
                            self.den)

    def __add__(self, other):
        if type(other) is int:
            return self._shift(other)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return self._shift(-other)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return FieldElement(self.context, tuple(-a for a in self.nums), self.den)

    def __mul__(self, other):
        t = type(other)
        if t is FieldElement:
            self._check(other)
            ctx = self.context
            nums, s = ctx._mul_nums(self.nums, other.nums)
            return ctx._lowest(nums, self.den * other.den * s)
        if t is int:
            # gcd(den, k * nums) == gcd(den, k), as gcd(den, *nums) == 1
            g = gcd(self.den, other)
            k = other // g
            return FieldElement(self.context, tuple(k * a for a in self.nums),
                                self.den // g)
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            return self.context._lowest([n * a for a in self.nums], self.den * d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.context.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _is_generator(self) -> bool:
        """The element is alpha itself, in a field of degree >= 2."""
        return self.context.degree > 1 and self.den == 1 and \
            self.nums[1] == 1 and not any(self.nums[0:1] + self.nums[2:])

    def inverse(self) -> "FieldElement":
        """1 / self: for the generator alpha, the closed form
        -(c_1 + c_2 alpha + ... + c_d alpha^(d-1)) / c_0 read off its
        minimal polynomial sum c_i x^i (c_0 != 0, as it is irreducible);
        for any other irrational element, extended Euclid."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        ctx = self.context
        if self.is_rational():
            return ctx._element([self.den], self.nums[0])
        if self._is_generator():
            c0, *rest = ctx.minpoly.coeffs
            return ctx._element([-c for c in rest], c0)
        # extended Euclid against the (irreducible) context minimal
        # polynomial m by pseudo-division, keeping r_i = s_i * a (mod m)
        # for the numerator polynomial a
        r0, r1 = ctx.minpoly, IntPolynomial.make(self.nums)
        s0, s1 = IntPolynomial(()), IntPolynomial((1,))
        while r1.degree >= 1:
            q, r = _pseudo_divmod(r0, r1)
            if r.is_zero:
                raise AlgebraicError("context polynomial is reducible")
            k = r0.degree - r1.degree + 1
            s = s0.scale(abs(r1.leading) ** k) - q * s1
            g = gcd(r.content(), s.content())
            r0, r1 = r1, IntPolynomial(tuple(c // g for c in r.coeffs))
            s0, s1 = s1, IntPolynomial(tuple(c // g for c in s.coeffs))
        # s1(alpha) * a(alpha) = r1, a nonzero constant, and self = a(alpha) / den
        return ctx._element([self.den * c for c in s1.coeffs], r1.coeffs[0])

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise AlgebraicError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other) -> bool:
        if type(other) is FieldElement:
            self._check(other)
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and \
                self.nums[0] * other.denominator == other.numerator * self.den
        return NotImplemented

    def __hash__(self):
        return hash((id(self.context), self.nums, self.den))

    def _interval_nums(self) -> tuple[int, int, int]:
        """(lo, hi, q) with q > 0: interval Horner over the root interval
        gives [lo/q, hi/q], with every step over one common denominator."""
        rlo, rhi = self.context.root_interval()
        dd = lcm(rlo.denominator, rhi.denominator)
        a = rlo.numerator * (dd // rlo.denominator)
        b = rhi.numerator * (dd // rhi.denominator)
        # after t steps the bounds are over den * dd^(t-1)
        alo = ahi = 0
        scale = 1
        for t, c in enumerate(reversed(self.nums)):
            if t:
                scale *= dd
            cands = (alo * a, alo * b, ahi * a, ahi * b)
            alo, ahi = min(cands) + c * scale, max(cands) + c * scale
        return alo, ahi, self.den * scale

    def interval(self) -> tuple[Fraction, Fraction]:
        lo, hi, q = self._interval_nums()
        return Fraction(lo, q), Fraction(hi, q)

    def sign(self) -> int:
        """The sign, from the element's interval once it excludes 0.

        The context root is halved until then, at most
        `_root_halvings(s)` times for a bound 2^-s <= |self|: with
        self = g(alpha) / den, the norm of g(alpha) is a nonzero integer
        resultant over lc^(d-1), for the minimal polynomial's leading
        coefficient lc, and each conjugate of g(alpha) is at most
        S R^(d-1) in size, for the numerators' absolute sum S and the
        Cauchy bound R of the roots; so
        |self| >= 1 / (den lc^(d-1) S^(d-1) R^((d-1)^2)).  More
        halvings are a bug."""
        if self.is_zero():
            return 0
        if self.is_rational():
            return _sgn(self.nums[0])
        limit = None
        while True:
            lo, hi, _ = self._interval_nums()
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if limit is None:
                coeffs = self.context.minpoly.coeffs
                lc, d = abs(coeffs[-1]), self.context.degree
                r_bits = _log2_above(Fraction(lc + max(map(abs, coeffs[:-1])), lc))
                limit = self._root_halvings(self.den.bit_length() + (d - 1) * (
                    lc.bit_length() + sum(map(abs, self.nums)).bit_length()
                    + (d - 1) * r_bits))
            elif limit == 0:
                raise AlgebraicError("field element sign did not converge")
            self.context.refine_root()
            limit -= 1

    def _root_halvings(self, bits: int) -> int:
        """Halvings of the context root that take the element's interval
        below 2^-bits wide.  Interval Horner over a root interval of width
        w inside [-M, M] gives a width at most d S max(1, M)^(d-1) w / den,
        for the d numerators of absolute sum S."""
        rlo, rhi = self.context.root_interval()
        d = len(self.nums)
        width = (rhi - rlo) * d * sum(map(abs, self.nums)) \
            * max(1, abs(rlo), abs(rhi)) ** (d - 1) / self.den
        return _halvings(width, bits)

    def __float__(self) -> float:
        """The midpoint of the element's interval once it is narrower than
        1e-17.  At the first float need the context root is narrowed once
        (`NumberFieldContext.narrow_root`), so most conversions halve
        nothing; halving goes on while the interval is still wider, at
        most 81 times."""
        lo, hi, q = self._interval_nums()
        # width at least 1e-17
        if (hi - lo) * 10**17 >= q:
            self.context.narrow_root()
            lo, hi, q = self._interval_nums()
            guard = 0
            while (hi - lo) * 10**17 >= q and guard <= 80:
                self.context.refine_root()
                guard += 1
                lo, hi, q = self._interval_nums()
        return (lo + hi) / (2 * q)

    def minimal_polynomial(self) -> IntPolynomial:
        """Minimal polynomial over Q via the multiplication matrix."""
        if self.is_rational():
            return IntPolynomial.make([-self.nums[0], self.den]).primitive()
        d = self.context.degree
        cols = [self * self.context._element([0] * i + [1], 1) for i in range(d)]
        den = lcm(*(col.den for col in cols))
        N = [[cols[j].nums[i] * (den // cols[j].den) for j in range(d)]
             for i in range(d)]
        # det(xI - N/den) is a positive multiple of sum cp_i den^i x^i; its
        # squarefree part is the minimal polynomial since the context
        # minpoly is irreducible (the characteristic polynomial is a power
        # of one irreducible)
        cp, _ = faddeev_leverrier(N)
        return IntPolynomial.make(c * den**i for i, c in enumerate(cp)).squarefree_part()

    def to_real_algebraic(self) -> RealAlgebraic:
        """The element as a RealAlgebraic: the context generator is the
        context root itself (a value of its own, at the root's interval;
        the context polynomial is the root's minimal polynomial); any
        other element takes its minimal polynomial and refines the root
        until the element's interval isolates one of its roots, which an
        interval narrower than the polynomial's root separation does
        (`_root_halvings`, `_separation_bits`); more halvings are a bug."""
        ctx = self.context
        if self._is_generator():
            lo, hi = ctx.root_interval()
            return RealAlgebraic(ctx.minpoly, lo, hi)
        mp = self.minimal_polynomial()
        if mp.degree == 1:
            return RealAlgebraic.from_rational(Fraction(-mp.coeffs[0], mp.coeffs[1]))
        limit = None
        while True:
            lo, hi = self.interval()
            if mp.sign_at(lo) != 0 and mp.sign_at(hi) != 0 and \
                    count_roots_in(mp, lo, hi) == 1:
                return RealAlgebraic(mp, lo, hi)
            if limit is None:
                limit = self._root_halvings(_separation_bits(mp))
            elif limit == 0:
                raise AlgebraicError("root isolation for field element did not converge")
            self.context.refine_root()
            limit -= 1

    def serialize(self) -> list[str]:
        return [_format_rational(c) for c in self.coords]

    def __repr__(self) -> str:
        return f"FieldElement({self.serialize()})"


# -- fused kernels ----------------------------------------------------------


def integer_combinations(rows: Sequence[Sequence[int]], vec: Sequence) -> list:
    """[sum_j row[j] * vec[j] for row in rows] for integer rows.

    The vector holds ints, Fractions, or FieldElements of one context
    (with ints or Fractions among them).  It is brought to one
    denominator once, so each entry of the result is an integer
    combination of numerators, normalized once; ints stay ints.
    """
    fields = [x for x in vec if type(x) is FieldElement]
    if fields:
        ctx = fields[0].context
        vec = [x if type(x) is FieldElement else ctx.from_rational(x)
               for x in vec]
        if any(x.context is not ctx for x in vec):
            raise ContextMismatchError("elements belong to different field contexts")
        den = lcm(*(x.den for x in vec))
        # cols[k]: the k-th numerators of the vector over den
        cols = list(zip(*(x.nums if x.den == den else
                          [a * (den // x.den) for a in x.nums] for x in vec)))
        return [ctx._lowest([sum(map(mul, row, col)) for col in cols], den)
                for row in rows]
    if all(type(x) is int for x in vec):
        return [sum(map(mul, row, vec)) for row in rows]
    den = lcm(*(x.denominator for x in vec))
    nums = [x.numerator * (den // x.denominator) for x in vec]
    return [Fraction(sum(map(mul, row, nums)), den) for row in rows]


def sub_scaled(v: Sequence, f, w: Sequence) -> list:
    """[a - f * b for a, b in zip(v, w)], the row update of an
    elimination step.  With a FieldElement f, v and w hold FieldElements
    of f's context: each entry is normalized once, and an entry with
    b == 0 is a itself.  Other types of f use their own arithmetic."""
    if type(f) is not FieldElement:
        return [a - f * b for a, b in zip(v, w)]
    ctx, fn, fd = f.context, f.nums, f.den
    out = []
    for a, b in zip(v, w):
        if a.context is not ctx or b.context is not ctx:
            raise ContextMismatchError("elements belong to different field contexts")
        if not any(b.nums):
            out.append(a)
            continue
        p, s = ctx._mul_nums(fn, b.nums)
        ad, pd = a.den, fd * b.den * s
        g = gcd(ad, pd)
        ma, mp = pd // g, ad // g
        out.append(ctx._lowest([x * ma - y * mp for x, y in zip(a.nums, p)],
                               ad * ma))
    return out


def linear_combination(ctx: NumberFieldContext, coeffs: Sequence[FieldElement],
                       vectors: Sequence[Sequence[FieldElement]]
                       ) -> list[FieldElement]:
    """sum_i coeffs[i] * vectors[i] over ctx, entrywise, for equally long
    nonempty vectors.  Zero coefficients (a certificate's padding) are
    skipped; the products of each entry are summed over one common
    denominator and normalized once."""
    terms = [(c, v) for c, v in zip(coeffs, vectors) if any(c.nums)]
    for c, v in terms:
        if c.context is not ctx or any(x.context is not ctx for x in v):
            raise ContextMismatchError("elements belong to different field contexts")
    out = []
    for r in range(len(vectors[0])):
        prods = [ctx._mul_nums(c.nums, v[r].nums) for c, v in terms]
        dens = [c.den * v[r].den * s for (c, v), (_, s) in zip(terms, prods)]
        den = lcm(*dens)
        acc = [0] * ctx.degree
        for (p, _), d in zip(prods, dens):
            k = den // d
            acc = [x + k * y for x, y in zip(acc, p)]
        out.append(ctx._lowest(acc, den))
    return out


def faddeev_leverrier(M: Sequence[Sequence[int]]
                      ) -> tuple[list[int], list[list[int]]]:
    """det(xI - M) of an integer matrix, lowest degree first, and the
    adjugate adj(M), by Faddeev-LeVerrier in integers.

    With N_0 = I, each step takes c_(d-k) = -tr(M N_(k-1)) / k, which
    divides exactly, and N_k = M N_(k-1) + c_(d-k) I.  Cayley-Hamilton
    gives N_d = 0, so M N_(d-1) = -c_0 I = (-1)^(d+1) det(M) I and
    adj(M) = (-1)^(d+1) N_(d-1), for a singular M too; det(M) is
    (-1)^d times the constant coefficient.
    """
    d = len(M)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    Nk = [[int(i == j) for j in range(d)] for i in range(d)]
    adj = Nk
    for k in range(1, d + 1):
        adj = Nk
        cols = list(zip(*Nk))
        Nk = [[sum(map(mul, row, col)) for col in cols] for row in M]
        c = -sum(Nk[i][i] for i in range(d)) // k
        coeffs[d - k] = c
        for i in range(d):
            Nk[i][i] += c
    if d % 2 == 0:
        adj = [[-v for v in row] for row in adj]
    return coeffs, adj
