"""Exact real algebraic arithmetic.

Rationals, integer polynomials, real root isolation, real algebraic
numbers, and arithmetic in a fixed real number field Q(alpha).

Every number here is exact.  A real algebraic number is represented by
its (irreducible, primitive) integer minimal polynomial together with a
rational interval isolating exactly one real root.  Comparisons are
decided by interval refinement plus minimal-polynomial identity, never
by a floating tolerance.  Number field elements are coordinate vectors
over a shared immutable context; mixing contexts is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .linalg import matmul

Rational = Fraction
RationalLike = Union[int, Fraction]

# maximum interval-halving rounds before a sign query is declared a bug
_MAX_REFINE = 256
# interval halvings compare_powers tries before building exact powers
_POWER_REFINE_ROUNDS = 3


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


def _parse_rational(text: str) -> Fraction:
    return Fraction(text)


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

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
        from math import gcd

        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPolynomial":
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    def squarefree_part(self) -> "IntPolynomial":
        g = gcd_int_poly(self, self.derivative())
        if g.degree <= 0:
            return self.primitive()
        q, _ = divmod_fraction(self.to_fractions(), g.to_fractions())
        return from_fractions(q).primitive()

    def to_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c) for c in self.coeffs)

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


# -- polynomial arithmetic over Q (as coefficient tuples, low degree first) --


def _ftrim(cs: list[Fraction]) -> tuple[Fraction, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def from_fractions(cs: Sequence[Fraction]) -> IntPolynomial:
    """Clear denominators, returning the primitive integer polynomial."""
    from math import lcm

    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return IntPolynomial(())
    m = 1
    for c in cs:
        m = lcm(m, c.denominator)
    return IntPolynomial.make(int(c * m) for c in cs).primitive()


def divmod_fraction(
    num: Sequence[Fraction], den: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    r = list(num)
    while len(r) >= len(den) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(den):
            break
        f = r[-1] / den[-1]
        k = len(r) - len(den)
        q[k] = f
        for i, d in enumerate(den):
            r[i + k] -= f * d
        r.pop()
    return _ftrim(q), _ftrim(r)


def gcd_int_poly(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Q, normalized to an integer polynomial."""
    fa, fb = a.to_fractions(), b.to_fractions()
    while fb:
        _, fr = divmod_fraction(fa, fb)
        fa, fb = fb, fr
    return from_fractions(fa)


def factor_int_poly(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Irreducible factorization over Q (primitive integer factors).

    The constant content is dropped; only non-constant factors with
    their multiplicities are returned.
    """
    import sympy

    if p.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
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
    return out


# -- Sturm sequences ---------------------------------------------------------


def _clear_denominators_keep_sign(cs: Sequence[Fraction]) -> IntPolynomial:
    """Integer polynomial equal to a positive multiple of cs."""
    from math import lcm, gcd

    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return IntPolynomial(())
    m = 1
    for c in cs:
        m = lcm(m, c.denominator)
    ints = [int(c * m) for c in cs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return IntPolynomial(tuple(c // g for c in ints))


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree >= 1:
        _, r = divmod_fraction(chain[-2].to_fractions(), chain[-1].to_fractions())
        if not r:
            break
        # only positive scaling preserves Sturm sign sequences
        chain.append(_clear_denominators_keep_sign([-c for c in r]))
    return [q for q in chain if not q.is_zero]


def _sign_changes(chain: list[IntPolynomial], x: Fraction) -> int:
    signs = [s for s in (_sgn(q(x)) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(p: IntPolynomial, lo: Fraction, hi: Fraction,
                   chain: list[IntPolynomial] | None = None) -> int:
    """Number of distinct real roots of squarefree p in (lo, hi]."""
    if chain is None:
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
    """An exact real number: irreducible minimal polynomial + isolating interval.

    Instances are immutable; refinement returns nothing but tightens the
    cached interval in place (the represented value never changes, so
    this is safe to share between threads holding the GIL).

    `irreducible` is True for canonically constructed values.  Fast-path
    constructors may set it False with a merely squarefree polynomial;
    comparisons then fall back to a gcd-based exact equality test.
    """

    __slots__ = ("minpoly", "_lo", "_hi", "_chain", "irreducible")

    def __init__(self, minpoly: IntPolynomial, lo: Fraction, hi: Fraction,
                 irreducible: bool = True):
        self.minpoly = minpoly
        self._lo = lo
        self._hi = hi
        self._chain = None
        self.irreducible = irreducible

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
        """Halve the isolating interval."""
        if self._lo == self._hi:
            return
        mid = (self._lo + self._hi) / 2
        s = _sgn(self.minpoly(mid))
        if s == 0:
            # rational root hit exactly; can only happen for degree-1 minpoly
            self._lo = self._hi = mid
            return
        if s == _sgn(self.minpoly(self._hi)):
            self._hi = mid
        else:
            self._lo = mid

    def refine_below(self, width: Fraction) -> None:
        guard = 0
        while self._hi - self._lo > width:
            self.refine()
            guard += 1
            if guard > _MAX_REFINE:
                raise AlgebraicError("interval refinement did not converge")

    def sign(self) -> int:
        if self.is_rational:
            return _sgn(self.as_rational())
        self.exclude_zero()
        return 1 if self._lo > 0 else -1

    def exclude_zero(self) -> None:
        """Refine until the interval is sign-definite (value must be != 0)."""
        if self.is_rational:
            return
        guard = 0
        while self._lo <= 0 <= self._hi:
            self.refine()
            guard += 1
            if guard > _MAX_REFINE:
                raise AlgebraicError("sign determination did not converge")

    def __neg__(self) -> "RealAlgebraic":
        poly = IntPolynomial.make(
            (-c if i % 2 else c) for i, c in enumerate(self.minpoly.coeffs)
        ).primitive()
        return RealAlgebraic(poly, -self._hi, -self._lo, self.irreducible)

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
        return RealAlgebraic(poly, lo, hi, self.irreducible)

    def canonical(self) -> "RealAlgebraic":
        """The same value with a verified-irreducible minimal polynomial."""
        if self.irreducible:
            return self
        return real_algebraic_root(self.minpoly, self._lo, self._hi)

    def pow(self, k: int) -> "RealAlgebraic":
        if k == 0:
            return RealAlgebraic.from_rational(1)
        if k < 0:
            raise ValueError("negative powers not supported")
        if self.is_rational:
            return RealAlgebraic.from_rational(self.as_rational() ** k)
        if not self.irreducible:
            return self.canonical().pow(k)
        ctx = NumberFieldContext(self.minpoly, self._lo, self._hi)
        return (ctx.generator() ** k).to_real_algebraic()

    def __float__(self) -> float:
        self.refine_below(Fraction(1, 10**17))
        return float((self._lo + self._hi) / 2)

    def __repr__(self) -> str:
        return f"RealAlgebraic({self.minpoly}, ~{float(self):.6g})"

    # -- serialization (certificate text form) --------------------------------

    def serialize(self) -> str:
        """Text that depends on the number alone, not on refinement history.

        The polynomial is the irreducible minimal polynomial and the
        interval is the widest dyadic cell [k/2^j, (k+1)/2^j], j >= 0,
        that isolates the root; a rational q is written [q,q].
        """
        x = self.canonical()
        cs = ",".join(str(c) for c in x.minpoly.coeffs)
        lo, hi = (x._lo, x._hi) if x.is_rational else x._dyadic_cell()
        return f"minpoly=[{cs}];interval=[{_format_rational(lo)},{_format_rational(hi)}]"

    def _dyadic_cell(self) -> tuple[Fraction, Fraction]:
        """The widest dyadic cell of width <= 1 isolating this irrational root.

        The cell is found by bisection from the unit cell that contains
        the root, so only the number decides it.  No rational point is a
        root of an irreducible polynomial of degree >= 2, so every cell
        endpoint is a non-root.
        """
        p, chain = self.minpoly, self._sturm()
        lo, hi = self._lo, self._hi
        s_lo = _sgn(p(lo))

        def left_of(c: Fraction) -> bool:
            # (lo, hi) isolates the root, so inside it the sign of p
            # tells the side
            if c <= lo:
                return False
            if c >= hi:
                return True
            return _sgn(p(c)) != s_lo

        k = lo.numerator // lo.denominator
        while not left_of(Fraction(k + 1)):
            k += 1
        a, b = Fraction(k), Fraction(k + 1)
        guard = 0
        while count_roots_in(p, a, b, chain) != 1:
            mid = (a + b) / 2
            if left_of(mid):
                b = mid
            else:
                a = mid
            guard += 1
            if guard > _MAX_REFINE:
                raise AlgebraicError("dyadic isolation did not converge")
        return a, b

    @staticmethod
    def deserialize(text: str) -> "RealAlgebraic":
        try:
            mp_part, iv_part = text.split(";")
            cs = mp_part.removeprefix("minpoly=[").removesuffix("]")
            lo_hi = iv_part.removeprefix("interval=[").removesuffix("]")
            coeffs = [int(c) for c in cs.split(",")]
            lo_s, hi_s = lo_hi.split(",")
        except ValueError as exc:
            raise AlgebraicError(f"malformed real-algebraic text: {text!r}") from exc
        poly = IntPolynomial.make(coeffs)
        lo, hi = _parse_rational(lo_s), _parse_rational(hi_s)
        # deserialized data is untrusted: force squarefree, check isolation,
        # and route equality through the gcd fallback
        if lo == hi:
            if poly(lo) != 0:
                raise AlgebraicError("interval point is not a root")
            return RealAlgebraic.from_rational(lo)
        sf = poly.squarefree_part()
        if sf(lo) == 0 or sf(hi) == 0 or count_roots_in(sf, lo, hi) != 1:
            raise AlgebraicError("interval does not isolate one root")
        return RealAlgebraic(sf, lo, hi, irreducible=False)

    def _sturm(self) -> list[IntPolynomial]:
        if self._chain is None:
            self._chain = sturm_chain(self.minpoly)
        return self._chain


def _canonical_root(factors: list[tuple[IntPolynomial, int]],
                    lo: Fraction, hi: Fraction) -> RealAlgebraic:
    """Pick the unique irreducible factor with a root in [lo, hi]."""
    hits = []
    for fac, _ in factors:
        if fac.degree == 1:
            r = Fraction(-fac.coeffs[0], fac.coeffs[1])
            if lo <= r <= hi:
                hits.append((fac, r, r))
        else:
            # widen the closed interval infinitesimally via endpoint checks
            n = count_roots_in(fac, lo, hi)
            if fac(lo) == 0 or fac(hi) == 0:
                raise AlgebraicError("isolating interval endpoint is a root")
            if n == 1:
                hits.append((fac, lo, hi))
            elif n > 1:
                raise AlgebraicError("interval does not isolate a single root")
    if len(hits) != 1:
        raise AlgebraicError("interval does not isolate a single root of one factor")
    fac, rlo, rhi = hits[0]
    return RealAlgebraic(fac, rlo, rhi)


def real_algebraic_root(p: IntPolynomial, lo: Fraction, hi: Fraction) -> RealAlgebraic:
    """The unique real root of p in [lo, hi] as a canonical RealAlgebraic.

    The polynomial need not be irreducible or squarefree; the interval
    must contain exactly one distinct real root.
    """
    if p.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if lo == hi:
        if p(lo) != 0:
            raise AlgebraicError("claimed rational root does not vanish")
        return RealAlgebraic.from_rational(lo)
    sf = p.squarefree_part()
    if sf(lo) == 0:
        if count_roots_in(sf, lo, hi) == 0:
            return RealAlgebraic.from_rational(lo)
        raise AlgebraicError("interval does not isolate a single root")
    n = count_roots_in(sf, lo, hi)
    if n != 1:
        raise AlgebraicError("interval does not isolate a single root")
    if sf(hi) == 0:
        # the isolated root is the rational endpoint hi itself
        return RealAlgebraic.from_rational(hi)
    return _canonical_root(factor_int_poly(sf), lo, hi)


def isolate_real_roots(p: IntPolynomial) -> list[RealAlgebraic]:
    """All distinct real roots of p, ascending, with disjoint intervals."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    factors = factor_int_poly(p.squarefree_part())
    out: list[RealAlgebraic] = []
    irrational = [f for f, _ in factors if f.degree >= 2]
    for f, _ in factors:
        if f.degree == 1:
            out.append(RealAlgebraic.from_rational(Fraction(-f.coeffs[0], f.coeffs[1])))
    if irrational:
        g = irrational[0]
        for f in irrational[1:]:
            g = g * f
        # g has no rational roots, so rational bisection points are safe
        chain = sturm_chain(g)
        bound = root_bound(g)
        stack = [(-bound, bound, count_roots_in(g, -bound, bound, chain))]
        intervals = []
        while stack:
            lo, hi, n = stack.pop()
            if n == 0:
                continue
            if n == 1:
                intervals.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            nl = count_roots_in(g, lo, mid, chain)
            stack.append((lo, mid, nl))
            stack.append((mid, hi, n - nl))
        # shrink intervals until disjoint from the rational roots
        rationals = [r.as_rational() for r in out]
        irr_factors = [(f, 1) for f in irrational]
        for lo, hi in intervals:
            r = _canonical_root(irr_factors, lo, hi)
            r.exclude_zero()
            guard = 0
            while any(ilo <= q <= ihi for q in rationals
                      for ilo, ihi in (r.interval(),)):
                r.refine()
                guard += 1
                if guard > _MAX_REFINE:
                    raise AlgebraicError("separating intervals did not converge")
            out.append(r)
    out.sort(key=_interval_key)
    for a, b in zip(out, out[1:]):
        _separate(a, b)
    return out


def _interval_key(r: RealAlgebraic):
    lo, hi = r.interval()
    return (lo + hi) / 2


def _separate(a: RealAlgebraic, b: RealAlgebraic) -> None:
    """Refine two distinct values (a < b) until their intervals are disjoint."""
    guard = 0
    while a.interval()[1] >= b.interval()[0]:
        a.refine()
        b.refine()
        guard += 1
        if guard > _MAX_REFINE:
            raise AlgebraicError("interval separation did not converge")


def compare(a, b) -> Ordering:
    """Exact total order on real algebraic numbers and rationals.

    FieldElements are compared through their shared context; a
    RealAlgebraic and a rational may be mixed freely.
    """
    if isinstance(a, FieldElement) or isinstance(b, FieldElement):
        if isinstance(a, FieldElement) and isinstance(b, FieldElement):
            if a.context is not b.context:
                raise ContextMismatchError("cannot compare elements of different fields")
            return (a - b).sign_ordering()
        fe = a if isinstance(a, FieldElement) else b
        other = b if isinstance(a, FieldElement) else a
        if isinstance(other, (int, Fraction)):
            diff = fe - fe.context.from_rational(Fraction(other))
            s = diff.sign_ordering()
            return s if fe is a else Ordering(-s)
        raise ContextMismatchError("cannot compare a FieldElement with a RealAlgebraic")
    if isinstance(a, (int, Fraction)):
        a = RealAlgebraic.from_rational(a)
    if isinstance(b, (int, Fraction)):
        b = RealAlgebraic.from_rational(b)
    if a.is_rational and b.is_rational:
        return Ordering(_sgn(a.as_rational() - b.as_rational()))
    if a.minpoly == b.minpoly:
        lo = max(a.interval()[0], b.interval()[0])
        hi = min(a.interval()[1], b.interval()[1])
        if lo <= hi and count_roots_in(a.minpoly, lo, hi, a._sturm()) >= 1:
            return Ordering.EQUAL
    # distinct representations: refine until the intervals separate, with
    # an exact gcd-based equality test once overlap persists
    guard = 0
    gcd_done = a.irreducible and b.irreducible
    while True:
        alo, ahi = a.interval()
        blo, bhi = b.interval()
        if ahi < blo:
            return Ordering.LESS
        if bhi < alo:
            return Ordering.GREATER
        if a.minpoly == b.minpoly:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo <= hi and count_roots_in(a.minpoly, lo, hi, a._sturm()) >= 1:
                return Ordering.EQUAL
        elif not gcd_done and guard >= 8:
            # both polynomials are squarefree and each interval isolates one
            # root, so a common root in the overlap means exact equality
            g = gcd_int_poly(a.minpoly, b.minpoly)
            if g.degree >= 1:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo <= hi and (g(lo) == 0 or g(hi) == 0 or
                                 count_roots_in(g, lo, hi) >= 1):
                    return Ordering.EQUAL
            gcd_done = True
        a.refine()
        b.refine()
        guard += 1
        if guard > _MAX_REFINE:
            raise AlgebraicError("comparison did not converge")


def compare_powers(a: Union[Fraction, RealAlgebraic], m: int,
                   b: RealAlgebraic, n: int,
                   b_powers: dict[int, RealAlgebraic] | None = None) -> Ordering:
    """Exact order of a^m against b^n for nonnegative a and b.

    The powered isolating intervals decide on strict separation, after
    at most `_POWER_REFINE_ROUNDS` halvings of each interval; only on
    overlap are the powers built exactly, through `RealAlgebraic.pow`.
    `b_powers`, when given, memoizes the exact powers of b by exponent
    and is filled in place.
    """
    if isinstance(a, RealAlgebraic) and a.is_rational:
        a = a.as_rational()
    exact = not isinstance(a, RealAlgebraic)
    if exact and b.is_rational:
        return Ordering(_sgn(a**m - b.as_rational()**n))
    zero = Fraction(0)
    for rounds in range(_POWER_REFINE_ROUNDS + 1):
        alo, ahi = (a, a) if exact else a.interval()
        blo, bhi = b.interval()
        # both values are nonnegative: clip the intervals at 0 to power them
        if max(ahi, zero)**m < max(blo, zero)**n:
            return Ordering.LESS
        if max(alo, zero)**m > max(bhi, zero)**n:
            return Ordering.GREATER
        if rounds < _POWER_REFINE_ROUNDS:
            if not exact:
                a.refine()
            b.refine()
    bn = None if b_powers is None else b_powers.get(n)
    if bn is None:
        bn = b if n == 1 else b.pow(n)
        if b_powers is not None:
            b_powers[n] = bn
    return compare(a**m if exact else a if m == 1 else a.pow(m), bn)


def largest_real_root_fast(p: IntPolynomial) -> RealAlgebraic:
    """Largest real root, without factoring the polynomial.

    The result carries the squarefree part of p as its polynomial and is
    flagged non-canonical (irreducible=False); compare() handles such
    values through its gcd fallback.  Intended for hot paths like norm
    pruning where canonical minimal polynomials are not needed.
    """
    if p.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    sf = p.squarefree_part()
    if sf.degree == 1:
        return RealAlgebraic.from_rational(Fraction(-sf.coeffs[0], sf.coeffs[1]))
    chain = sturm_chain(sf)
    bound = root_bound(sf)
    lo, hi = -bound, bound
    total = count_roots_in(sf, lo, hi, chain)
    if total == 0:
        raise AlgebraicError("polynomial has no real roots")
    guard = 0
    while count_roots_in(sf, lo, hi, chain) != 1:
        mid = (lo + hi) / 2
        if sf(mid) == 0:
            if count_roots_in(sf, mid, hi, chain) == 0:
                return RealAlgebraic.from_rational(mid)
            lo = mid
        elif count_roots_in(sf, mid, hi, chain) >= 1:
            lo = mid
        else:
            hi = mid
        guard += 1
        if guard > _MAX_REFINE:
            raise AlgebraicError("largest-root isolation did not converge")
    if sf(hi) == 0:
        return RealAlgebraic.from_rational(hi)
    if lo < 0 <= hi and sf(0) == 0:
        return RealAlgebraic.from_rational(0)
    guard = 0
    while sf(lo) == 0:
        # endpoints must not be roots: move lo toward the isolated root
        mid = (lo + hi) / 2
        if count_roots_in(sf, mid, hi, chain) == 1:
            lo = mid
        else:
            hi = mid
        guard += 1
        if guard > _MAX_REFINE:
            raise AlgebraicError("endpoint separation did not converge")
    return RealAlgebraic(sf, lo, hi, irreducible=False)


def nth_root(a: RealAlgebraic, n: int) -> RealAlgebraic:
    """The positive real n-th root of a > 0."""
    if n < 1:
        raise ValueError("root order must be >= 1")
    if a.sign() <= 0:
        raise AlgebraicError("nth_root requires a positive argument")
    if n == 1:
        return a
    if a.is_rational:
        q = a.as_rational()
        # exact rational root if one exists
        num = _int_nth_root(q.numerator, n)
        den = _int_nth_root(q.denominator, n)
        if num is not None and den is not None:
            return RealAlgebraic.from_rational(Fraction(num, den))
    comp = a.minpoly.compose_power(n)
    candidates = [r for r in isolate_real_roots(comp) if r.sign() > 0]
    # the root r with r**n == a; isolate by interval power comparison
    guard = 0
    while True:
        alive = []
        alo, ahi = a.interval()
        for r in candidates:
            rlo, rhi = r.interval()
            plo, phi = min(rlo**n, rhi**n), max(rlo**n, rhi**n)
            if not (phi < alo or plo > ahi):
                alive.append(r)
        if len(alive) == 1:
            return alive[0]
        if not alive:
            raise AlgebraicError("no compatible n-th root found")
        a.refine()
        for r in alive:
            r.refine()
        candidates = alive
        guard += 1
        if guard > _MAX_REFINE:
            raise AlgebraicError("n-th root isolation did not converge")


def _int_nth_root(m: int, n: int) -> int | None:
    if m < 0:
        return None
    r = round(m ** (1.0 / n))
    for c in (r - 1, r, r + 1):
        if c >= 0 and c**n == m:
            return c
    return None


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------


class NumberFieldContext:
    """The field Q(alpha) for a fixed real root alpha of an irreducible poly.

    Contexts are immutable and shared by handle: elements of different
    context objects must never be mixed, even if mathematically equal.
    """

    __slots__ = ("minpoly", "_root", "_monic", "degree")

    def __init__(self, minpoly: IntPolynomial, lo: Fraction, hi: Fraction):
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self._root = RealAlgebraic(minpoly, lo, hi)
        lead = Fraction(minpoly.coeffs[-1])
        self._monic = tuple(Fraction(c) / lead for c in minpoly.coeffs)

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

    # -- element constructors -------------------------------------------------

    def element(self, coords: Sequence[RationalLike]) -> "FieldElement":
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            cs = self._reduce(cs)
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def from_rational(self, q: RationalLike) -> "FieldElement":
        return self.element([Fraction(q)])

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return self.element([1])

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            # alpha is the rational root itself
            r = Fraction(-self.minpoly.coeffs[0], self.minpoly.coeffs[1])
            return self.from_rational(r)
        return self.element([0, 1])

    def _reduce(self, cs: list[Fraction]) -> list[Fraction]:
        d = self.degree
        cs = list(cs)
        for i in range(len(cs) - 1, d - 1, -1):
            f = cs[i]
            if f:
                for j in range(d):
                    cs[i - d + j] -= f * self._monic[j]
            cs.pop()
        return cs

    def __repr__(self) -> str:
        lo, hi = self.root_interval()
        return f"NumberFieldContext({self.minpoly}, root~[{lo},{hi}])"


class FieldElement:
    """Element of a NumberFieldContext: sum coords[i] * alpha**i."""

    __slots__ = ("context", "coords")

    def __init__(self, context: NumberFieldContext, coords: tuple[Fraction, ...]):
        self.context = context
        self.coords = coords

    def _check(self, other: "FieldElement") -> None:
        if self.context is not other.context:
            raise ContextMismatchError("elements belong to different field contexts")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.context,
                            tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.context,
                            tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return FieldElement(self.context, tuple(-a for a in self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_rational():
            q = self.coords[0]
            return FieldElement(self.context, tuple(q * b for b in o.coords))
        if o.is_rational():
            q = o.coords[0]
            return FieldElement(self.context, tuple(q * a for a in self.coords))
        d = self.context.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        prod[i + j] += a * b
        red = self.context._reduce(prod)
        red += [Fraction(0)] * (d - len(red))
        return FieldElement(self.context, tuple(red))

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

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        if self.is_rational():
            return self.context.from_rational(1 / self.coords[0])
        # extended Euclid against the (irreducible) context minimal polynomial
        a = _ftrim(list(self.coords))
        m = self.context.minpoly.to_fractions()
        r0, r1 = m, a
        s0, s1 = (), (Fraction(1),)
        while True:
            q, r = divmod_fraction(r0, r1)
            if not r:
                break
            s = _fsub(s0, _fmul(q, s1))
            r0, r1, s0, s1 = r1, r, s1, s
        # r1 is a nonzero constant (minpoly irreducible)
        c = r1[0]
        inv = [x / c for x in s1]
        red = self.context._reduce(inv)
        red += [Fraction(0)] * (self.context.degree - len(red))
        return FieldElement(self.context, tuple(red))

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise AlgebraicError("element is not rational")
        return self.coords[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return self.coords == other.coords

    def __hash__(self):
        return hash((id(self.context), self.coords))

    def interval(self) -> tuple[Fraction, Fraction]:
        lo, hi = self.context.root_interval()
        alo, ahi = Fraction(0), Fraction(0)
        for c in reversed(self.coords):
            cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
            alo, ahi = min(cands) + c, max(cands) + c
        return alo, ahi

    def sign(self) -> int:
        if self.is_zero():
            return 0
        if self.is_rational():
            return _sgn(self.coords[0])
        guard = 0
        while True:
            lo, hi = self.interval()
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.context.refine_root()
            guard += 1
            if guard > _MAX_REFINE:
                raise AlgebraicError("field element sign did not converge")

    def sign_ordering(self) -> Ordering:
        return Ordering(self.sign())

    def __float__(self) -> float:
        guard = 0
        while True:
            lo, hi = self.interval()
            if hi - lo < Fraction(1, 10**17) or guard > 80:
                return float((lo + hi) / 2)
            self.context.refine_root()
            guard += 1

    def minimal_polynomial(self) -> IntPolynomial:
        """Minimal polynomial over Q via the multiplication matrix."""
        if self.is_rational():
            q = self.coords[0]
            return IntPolynomial.make([-q.numerator, q.denominator]).primitive()
        d = self.context.degree
        cols = []
        for i in range(d):
            col = (self * self.context.element([0] * i + [1])).coords
            cols.append(col)
        # characteristic polynomial of the multiplication matrix; its
        # squarefree part is the minimal polynomial since the context
        # minpoly is irreducible
        M = [[cols[j][i] for j in range(d)] for i in range(d)]
        cp = _char_poly_fraction(M)
        poly = from_fractions(cp)
        sf = poly.squarefree_part()
        # minimal polynomial = squarefree part (power of one irreducible)
        return sf

    def to_real_algebraic(self) -> RealAlgebraic:
        mp = self.minimal_polynomial()
        if mp.degree == 1:
            return RealAlgebraic.from_rational(Fraction(-mp.coeffs[0], mp.coeffs[1]))
        chain = sturm_chain(mp)
        guard = 0
        while True:
            lo, hi = self.interval()
            if mp(lo) != 0 and mp(hi) != 0 and count_roots_in(mp, lo, hi, chain) == 1:
                return RealAlgebraic(mp, lo, hi)
            self.context.refine_root()
            guard += 1
            if guard > _MAX_REFINE:
                raise AlgebraicError("root isolation for field element did not converge")

    def serialize(self) -> list[str]:
        return [_format_rational(c) for c in self.coords]

    def __repr__(self) -> str:
        return f"FieldElement({self.serialize()})"


def _fsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    aa = list(a) + [Fraction(0)] * (n - len(a))
    bb = list(b) + [Fraction(0)] * (n - len(b))
    return _ftrim([x - y for x, y in zip(aa, bb)])


def _fmul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ftrim(out)


def _char_poly_fraction(M: list[list[Fraction]]) -> list[Fraction]:
    """det(xI - M) by Faddeev-LeVerrier, lowest degree first."""
    d = len(M)
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = Fraction(1)
    A = [[Fraction(0)] * d for _ in range(d)]
    I = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    Mk = [row[:] for row in I]
    for k in range(1, d + 1):
        # Mk = M @ (previous Mk adjusted)
        Mk = matmul(M, Mk)
        tr = sum(Mk[i][i] for i in range(d))
        c = -tr / k
        coeffs[d - k] = c
        for i in range(d):
            Mk[i][i] += c
    return coeffs
