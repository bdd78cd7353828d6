import itertools
import random
from fractions import Fraction

import pytest

from jsrcert.algebraic import (
    AlgebraicError,
    IntPolynomial,
    NumberFieldContext,
    Ordering,
    RealAlgebraic,
    compare,
    count_roots_in,
    factor_int_poly,
    isolate_real_roots,
    nth_root,
)
from jsrcert import matcore
from jsrcert.matcore import (
    IntMatrix,
    MatrixFamily,
    char_poly,
    evaluate,
    frobenius_norm_sq,
    leading_eigenvector,
    spectral_radius,
    two_norm_sq,
)
from jsrcert.reduce import PairCode, decode

from oracles import char_poly_cofactor

P = IntPolynomial.make
M = IntMatrix.make

# the two 3x3 integer matrices of the sqrt2-scaled showcase pair
B1 = M([[0, 0, -1], [0, 0, 0], [0, 1, 0]])
B2 = M([[1, 0, -1], [0, 0, -1], [-1, 0, -1]])


class TestCharPoly:
    def test_identity(self):
        assert char_poly(IntMatrix.identity(2)) == P([1, -2, 1])

    def test_cofactor_oracle_2x2(self):
        A = M([[1, 0], [1, -1]])
        want = [int(c) for c in char_poly_cofactor([[1, 0], [1, -1]])]
        assert list(char_poly(A).coeffs) == want == [-1, 0, 1]

    def test_fibonacci(self):
        want = [int(c) for c in char_poly_cofactor([[1, 1], [1, 0]])]
        assert list(char_poly(M([[1, 1], [1, 0]])).coeffs) == want == [-1, -1, 1]

    def test_cofactor_oracle_random_3x3(self):
        rng = random.Random(2)
        for _ in range(30):
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            got = list(char_poly(M(rows)).coeffs)
            want = [int(c) for c in char_poly_cofactor(rows)]
            assert got == want


class TestSpectralRadius:
    def test_showcase_matrix_sqrt2(self):
        sr = spectral_radius(B2)
        assert sr.value.minpoly == P([-2, 0, 1])
        assert sr.value.sign() > 0
        # leading eigenvalues are +-sqrt2: not simple, not complex
        assert not sr.leading_simple
        assert not sr.leading_complex

    def test_identity_multiplicity(self):
        sr = spectral_radius(IntMatrix.identity(3))
        assert sr.value.as_rational() == 1
        assert not sr.leading_simple
        assert not sr.leading_complex

    def test_fibonacci_golden_ratio(self):
        sr = spectral_radius(M([[1, 1], [1, 0]]))
        assert sr.value.minpoly == P([-1, -1, 1])
        assert sr.leading_simple and not sr.leading_complex

    def test_zero_matrix_convention(self):
        sr = spectral_radius(IntMatrix.zero(2))
        assert sr.value.as_rational() == 0
        assert sr.leading_simple and not sr.leading_complex

    def test_rotation_is_complex(self):
        sr = spectral_radius(M([[0, -1], [1, 0]]))
        assert sr.value.as_rational() == 1
        assert sr.leading_simple
        assert sr.leading_complex

    def test_complex_pair_3x3(self):
        # companion of (x-2)(x^2+x+1): real leading 2, pair modulus 1
        A = M([[0, 0, 2], [1, 0, 1], [0, 1, 1]])
        cp = char_poly(A)
        sr = spectral_radius(A)
        assert sr.value.as_rational() == 2
        assert sr.leading_simple and not sr.leading_complex

    def test_power_identity(self):
        rng = random.Random(4)
        for _ in range(10):
            A = M([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            if A.is_zero():
                continue
            r = spectral_radius(A).value
            for k in (2, 3, 4):
                Ak = evaluate([1] * k, MatrixFamily.make([A])).value
                rk = spectral_radius(Ak).value
                assert compare(rk, r.pow(k)) == Ordering.EQUAL

    def test_invariance_transforms(self):
        rng = random.Random(9)
        perms3 = [p for p in itertools.permutations(range(3))]
        for _ in range(6):
            A = M([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
            r = spectral_radius(A).value
            assert compare(spectral_radius(A.transpose()).value, r) == Ordering.EQUAL
            assert compare(spectral_radius(-A).value, r) == Ordering.EQUAL
            for p in perms3:
                Pm = IntMatrix.make([[int(p[i] == j) for j in range(3)]
                                     for i in range(3)])
                conj = Pm.transpose() @ A @ Pm
                assert compare(spectral_radius(conj).value, r) == Ordering.EQUAL


class TestSpectralRadiusCache:
    # a primitive 0/1 matrix whose radius is the plastic number (x^3 - x - 1)
    A = M([[0, 1, 0], [0, 0, 1], [1, 1, 0]])

    def test_repeat_call_is_fresh_and_unrefined(self):
        first = spectral_radius(self.A)
        interval = first.value.interval()
        first.value.refine_below(Fraction(1, 10**20))
        second = spectral_radius(self.A)
        assert second.value is not first.value
        assert second.value.interval() == interval
        assert (second.leading_simple, second.leading_complex) == \
            (first.leading_simple, first.leading_complex)
        second.value.refine_below(Fraction(1, 10**30))
        assert spectral_radius(self.A).value.interval() == interval
        assert compare(first.value, second.value) == Ordering.EQUAL

    def test_similar_matrices_share_one_entry(self):
        Pm = M([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        # a fresh object: self.A keeps the radius it read in another test
        A = M(self.A.rows)
        matcore._spectral_radius_of.cache_clear()
        values = [spectral_radius(X).value
                  for X in (A, A.transpose(), Pm.transpose() @ A @ Pm)]
        info = matcore._spectral_radius_of.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert len({v.interval() for v in values}) == 1

    def test_zero_matrix_convention_stays_ahead_of_the_cache(self):
        nilpotent = M([[0, 1, 0], [0, 0, 1], [0, 0, 0]])  # same char poly as 0
        assert not spectral_radius(nilpotent).leading_simple
        zero = spectral_radius(IntMatrix.zero(3))
        assert zero.value.as_rational() == 0 and zero.leading_simple
        assert not spectral_radius(nilpotent).leading_simple


class TestOneByOneClosedForm:
    def test_equals_the_factoring_path(self, monkeypatch):
        # [a] has the one simple real eigenvalue a, so its radius is |a|
        expected = {a: matcore._radius_by_factoring(char_poly(M([[a]])))
                    for a in range(-5, 6) if a}

        def refuse(*args):
            raise AssertionError("a 1x1 radius factored its polynomial")

        monkeypatch.setattr(matcore, "factor_int_poly", refuse)
        for a, (minpoly, lo, hi, simple, cplx) in expected.items():
            sr = spectral_radius(M([[a]]))
            assert sr.value.minpoly == minpoly == P([-abs(a), 1])
            assert sr.value.interval() == (lo, hi) == (abs(a), abs(a))
            assert (sr.leading_simple, sr.leading_complex) == (simple, cplx) \
                == (True, False)


class TestTwoByTwoClosedForm:
    """A 2x2 radius comes from the trace and determinant alone; it equals
    the factoring path (`_spectral_radius_of` of the characteristic
    polynomial) on every nonzero matrix with entries in [-4, 4]."""

    def test_equals_the_factoring_path_on_every_small_matrix(self, monkeypatch):
        expected = {}
        for entries in itertools.product(range(-4, 5), repeat=4):
            if any(entries):
                A = M([entries[:2], entries[2:]])
                expected[A] = matcore._spectral_radius_of(char_poly(A))

        def refuse(*args):
            raise AssertionError("a 2x2 radius factored or isolated roots")

        monkeypatch.setattr(matcore, "factor_int_poly", refuse)
        monkeypatch.setattr(matcore, "isolate_real_roots", refuse)
        kinds = set()
        for A, (minpoly, lo, hi, simple, cplx) in expected.items():
            sr = spectral_radius(A)
            assert sr.value.minpoly == minpoly, A
            assert compare(sr.value, RealAlgebraic(minpoly, lo, hi)) == \
                Ordering.EQUAL, A
            assert (sr.leading_simple, sr.leading_complex) == (simple, cplx), A
            glo, ghi = sr.value.interval()
            if sr.value.is_rational:
                assert glo == ghi == sr.value.as_rational()
            else:
                assert count_roots_in(minpoly, glo, ghi) == 1, A
            kinds.add((sr.value.degree, simple, cplx))
        assert len(expected) == 6560
        # rational and quadratic radii; real simple, real double or +-,
        # and complex pairs
        assert kinds == {(1, True, False), (1, False, False), (1, True, True),
                         (2, True, False), (2, False, False), (2, True, True)}


class TestThreeByThreeClosedForm:
    """A 3x3 radius comes from the roots of the characteristic cubic
    (`_cubic_radius`); it equals the factoring path
    (`_radius_by_factoring`) on every characteristic polynomial of a 3x3
    matrix with entries in {-1, 0, 1}, and of a seeded sample of binary
    member products up to length 4 and their Gram matrices A^T A."""

    # x^3 - 2^25 x -+ 1: the middle root, about -+1/2^25, has a cell that
    # ends at -a = 0, on the side that makes r3, or -r1, the radius
    NEAR_TIES = [P([-1, -2**25, 0, 1]), P([1, -2**25, 0, 1])]

    @staticmethod
    def _sign_polys():
        polys = set()
        for e in itertools.product((-1, 0, 1), repeat=9):
            A = M([e[:3], e[3:6], e[6:]])
            if not A.is_zero():
                polys.add(char_poly(A))
        return polys

    @staticmethod
    def _product_polys():
        rng = random.Random(31)
        polys = set()
        for _ in range(20):
            pair = decode(PairCode(rng.randrange(512), rng.randrange(512), 3,
                                   "binary"))
            fam = MatrixFamily.make(list(pair))
            for n in (1, 2, 3, 4):
                for w in itertools.product((1, 2), repeat=n):
                    P_ = evaluate(w, fam).value
                    polys.update(char_poly(X) for X in (P_, P_.transpose() @ P_)
                                 if not X.is_zero())
        return polys

    def _polys(self):
        return sorted(self._sign_polys() | self._product_polys()
                      | set(self.NEAR_TIES), key=lambda p: p.coeffs)

    def test_equals_the_factoring_path(self, monkeypatch):
        assert len(self._sign_polys()) == 209
        polys = self._polys()
        expected = [matcore._radius_by_factoring(cp) for cp in polys]

        def refuse(*args):
            raise AssertionError("a 3x3 radius factored or isolated roots")

        monkeypatch.setattr(matcore, "factor_int_poly", refuse)
        monkeypatch.setattr(matcore, "isolate_real_roots", refuse)
        kinds = set()
        for cp, (minpoly, lo, hi, simple, cplx) in zip(polys, expected):
            got_poly, glo, ghi, got_simple, got_cplx = matcore._cubic_radius(cp)
            assert got_poly == minpoly, cp.coeffs
            assert compare(RealAlgebraic(got_poly, glo, ghi),
                           RealAlgebraic(minpoly, lo, hi)) == Ordering.EQUAL, cp.coeffs
            assert (got_simple, got_cplx) == (simple, cplx), cp.coeffs
            if minpoly.degree == 1:
                assert glo == ghi == Fraction(-minpoly.coeffs[0])
            else:
                assert minpoly.sign_at(glo) != 0 and minpoly.sign_at(ghi) != 0
                assert count_roots_in(minpoly, glo, ghi) == 1, cp.coeffs
            kinds.add((minpoly.degree, simple, cplx))
        # rational radii, simple or not, real or a pair; quadratic radii
        # (+-sqrt, sqrt det of a pair); cubic radii, real or the x^3 + c
        # tie; and degree-6 moduli of a cubic's winning pair
        assert kinds >= {(1, True, False), (1, False, False), (1, True, True),
                         (1, False, True), (2, True, False), (2, False, False),
                         (2, True, True), (3, True, False), (3, False, True),
                         (6, True, True)}

    def test_failing_seeds_fall_back_to_factoring(self, monkeypatch):
        # the seeded cells are taken on every polynomial here; seeds that
        # fail, by raising or by missing the roots, give the same radius
        # and flags through the factoring path
        polys = self._polys()
        fallbacks = []
        factoring = matcore._radius_by_factoring
        monkeypatch.setattr(matcore, "_radius_by_factoring",
                            lambda cp: fallbacks.append(cp) or factoring(cp))
        seeded = [matcore._cubic_radius(cp) for cp in polys]
        assert fallbacks == []
        seeds = matcore._float_roots
        for wrong in (lambda cp, disc: [float("nan")],
                      lambda cp, disc: [x + 0.5 for x in seeds(cp, disc)]):
            monkeypatch.setattr(matcore, "_float_roots", wrong)
            for cp, (minpoly, lo, hi, simple, cplx) in zip(polys, seeded):
                got_poly, glo, ghi, got_simple, got_cplx = matcore._cubic_radius(cp)
                assert got_poly == minpoly, cp.coeffs
                assert compare(RealAlgebraic(got_poly, glo, ghi),
                               RealAlgebraic(minpoly, lo, hi)) == Ordering.EQUAL
                assert (got_simple, got_cplx) == (simple, cplx), cp.coeffs
        assert fallbacks

    def test_a_root_too_large_for_a_float_cell(self, monkeypatch):
        # x^3 - N x^2 - 1 has a root just above N: beyond 2^53 no float
        # seed places it within 1, beyond 2^1024 none exists, and the
        # radius comes from the factoring path
        fallbacks = []
        factoring = matcore._radius_by_factoring
        monkeypatch.setattr(matcore, "_radius_by_factoring",
                            lambda cp: fallbacks.append(cp) or factoring(cp))
        matcore._spectral_radius_of.cache_clear()
        for N in (2**60 + 7, 2**233 + 12345, 2**1100 + 1):
            A = M([[N, 0, 1], [1, 0, 0], [0, 1, 0]])
            cp = char_poly(A)
            rho = spectral_radius(A)
            assert fallbacks[-1] == cp
            assert (rho.leading_simple, rho.leading_complex) == (True, False)
            assert rho.value.minpoly == cp
            # the one root in the value's interval lies in (N, N + 1]
            lo, hi = rho.value.interval()
            assert count_roots_in(cp, max(lo, N), min(hi, N + 1)) == 1
        assert len(fallbacks) == 3


def _radius_taking_every_root(A):
    """(rho, simple, complex) with the square root of every complex
    pair's squared modulus taken, then all moduli compared directly."""
    mods = []  # (modulus, multiplicity, from a complex pair)
    for fac, mult in factor_int_poly(char_poly(A)):
        roots = isolate_real_roots(fac)
        mods += [(r if r.sign() >= 0 else -r, mult, False) for r in roots]
        mods += [(nth_root(m2, 2), mult, True)
                 for m2 in matcore._complex_pair_modulus_squares(fac, roots)]
    rho = mods[0][0]
    for m, _, _ in mods[1:]:
        if compare(m, rho) == Ordering.GREATER:
            rho = m
    top = [(mult, cplx) for m, mult, cplx in mods
           if compare(m, rho) == Ordering.EQUAL]
    return rho, sum(mult for mult, _ in top) == 1, any(c for _, c in top)


class TestSquareRootOnlyForAWinningPair:
    def _matrices(self):
        rng = random.Random(12)
        mats = [M([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
                for d in (2, 3) for _ in range(60)]
        mats += [M([[0, -1], [1, 0]]), M([[1, -1], [1, 1]]),
                 M([[1, -1, 0], [1, 1, 0], [0, 0, 1]]),
                 M([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                 M([[0, 0, 2], [1, 0, 1], [0, 1, 1]])]
        # the F2s pairs whose s.m.p. has a complex leading eigenvalue, and
        # their products up to length 3
        for text in ("3/16", "3/17", "4/43", "5/49"):
            fam = MatrixFamily.make(list(decode(PairCode.parse(text, 2, "sign"))))
            mats += [evaluate(w, fam).value for n in (1, 2, 3)
                     for w in itertools.product((1, 2), repeat=n)]
        return [A for A in mats if not A.is_zero()]

    def test_agrees_with_taking_every_root(self):
        matcore._spectral_radius_of.cache_clear()
        complex_leading = 0
        for A in self._matrices():
            sr = spectral_radius(A)
            rho, simple, cplx = _radius_taking_every_root(A)
            assert compare(sr.value, rho) == Ordering.EQUAL, A
            assert (sr.leading_simple, sr.leading_complex) == (simple, cplx), A
            complex_leading += cplx
        assert complex_leading >= 10

    def test_no_root_when_a_real_eigenvalue_wins(self, monkeypatch):
        # nonnegative matrices with complex pairs: Perron's root wins, or
        # ties as for the 3-cycle, whose pair of cube roots of unity has
        # modulus 1 too
        def refuse(*args):
            raise AssertionError("square root taken")

        monkeypatch.setattr(matcore, "nth_root", refuse)
        matcore._spectral_radius_of.cache_clear()
        for A in (M([[0, 0, 2], [1, 0, 1], [0, 1, 1]]),
                  M([[0, 1, 0], [0, 0, 1], [1, 1, 0]])):
            sr = spectral_radius(A)
            assert sr.leading_simple and not sr.leading_complex
        cycle = spectral_radius(M([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
        assert cycle.value.as_rational() == 1
        assert not cycle.leading_simple and cycle.leading_complex


class TestComplexPairModulus:
    """|z|^2 of a cubic's complex pair from the reversed cubic equals the
    value built inside Q(r) through an inverse and a minimal polynomial."""

    # every cubic factor with one irrational real root that the F3 A1=3
    # slice meets, lowest degree first
    F3_CUBICS = [(-1, -2, -1, 1), (-1, -1, -1, 1), (-1, -1, 0, 1),
                 (-1, 0, -2, 1), (-1, 0, -1, 1), (-1, 1, -2, 1),
                 (-1, 2, -3, 1)]

    def _cubics(self):
        rng = random.Random(83)
        out = [P(c) for c in self.F3_CUBICS]
        while len(out) < 80:
            lead = rng.choice([1, 1, 2, 3, 5])
            p = P([rng.randint(-20, 20) for _ in range(3)] + [lead]).primitive()
            if p.degree == 3 and factor_int_poly(p) == ((p, 1),):
                out.append(p)
        return out

    def test_reversed_cubic_matches_the_field_path(self):
        checked = 0
        for fac in self._cubics():
            roots = isolate_real_roots(fac)
            if len(roots) != 1:
                continue
            r = roots[0]
            k = Fraction(-fac.coeffs[0], fac.coeffs[3])
            ctx = NumberFieldContext.from_real_algebraic(r)
            want = (ctx.from_rational(k) / ctx.generator()).to_real_algebraic()
            (got,) = matcore._complex_pair_modulus_squares(fac, roots)
            assert got.minpoly == want.minpoly, fac.coeffs
            assert got.minpoly.leading > 0 and got.minpoly.content() == 1
            assert compare(got, want) == Ordering.EQUAL, fac.coeffs
            assert got.sign() > 0
            checked += 1
        assert checked >= 40


def _generator(x):
    """x as the generator of its own field Q(x)."""
    return NumberFieldContext.from_real_algebraic(x).generator()


class TestLeadingEigenvector:
    def test_direct_solve(self):
        two = _generator(RealAlgebraic.from_rational(2))
        v = leading_eigenvector(M([[1, 1], [0, 2]]), two)
        assert [e.as_rational() for e in v] == [1, 1]

    def test_a_value_that_is_no_eigenvalue_raises(self):
        # A - 3I is invertible: its kernel has dimension 0
        with pytest.raises(AlgebraicError, match="kernel dimension 0"):
            leading_eigenvector(M([[1, 1], [0, 2]]),
                                _generator(RealAlgebraic.from_rational(3)))

    def test_showcase_eigenvector(self):
        lam = _generator(isolate_real_roots(P([-2, 0, 1]))[1])
        v = leading_eigenvector(B2, lam)
        assert v[0].context is lam.context
        # verify B2 v = sqrt2 v exactly in the field
        img = B2.apply(v)
        for a, b in zip(img, v):
            assert a == b * lam

    def test_fibonacci_eigenvector(self):
        phi = _generator(isolate_real_roots(P([-1, -1, 1]))[1])
        v = leading_eigenvector(M([[1, 1], [1, 0]]), phi)
        assert v[0].as_rational() == 1
        # second coordinate is (sqrt5-1)/2 = phi - 1
        assert v[1] == phi - 1
        img = M([[1, 1], [1, 0]]).apply(v)
        for a, b in zip(img, v):
            assert a == b * phi

    def test_eigen_residual_random(self):
        rng = random.Random(12)
        done = 0
        while done < 8:
            A = M([[rng.randint(0, 2) for _ in range(2)] for _ in range(2)])
            sr = spectral_radius(A)
            if not sr.leading_simple or sr.leading_complex or sr.value.sign() == 0:
                continue
            lam = _generator(sr.value)
            v = leading_eigenvector(A, lam)
            for a, b in zip(A.apply(v), v):
                assert a == b * lam
            done += 1

    def test_the_kernel_line_is_the_gauss_jordan_kernel(self):
        # every eigenvalue of small 2x2 and 3x3 integer matrices, simple or
        # not: the row-based line, normalized, is the normalized kernel
        # vector, and a kernel that is not a line raises as before
        from jsrcert.linalg import kernel

        rng = random.Random(13)
        lines = planes = 0
        for _ in range(150):
            n = rng.choice((2, 3))
            A = M([[rng.choice((0, 0, 1, 1, 2, -1)) for _ in range(n)]
                   for _ in range(n)])
            for f, _ in factor_int_poly(char_poly(A)):
                for r in isolate_real_roots(f):
                    lam = _generator(r)
                    ctx = lam.context
                    B = [[ctx.from_rational(A.rows[i][j]) - (lam if i == j else 0)
                          for j in range(n)] for i in range(n)]
                    kern = kernel(B)
                    if len(kern) != 1:
                        assert matcore._kernel_line(B) is None
                        with pytest.raises(AlgebraicError, match="kernel dimension"):
                            leading_eigenvector(A, lam)
                        planes += 1
                        continue
                    inv = next(e for e in kern[0] if not e.is_zero()).inverse()
                    assert matcore._kernel_line(B) is not None
                    assert leading_eigenvector(A, lam) == [e * inv for e in kern[0]]
                    lines += 1
        assert lines >= 150 and planes >= 3


class TestNorms:
    def test_showcase_two_norms(self):
        # ||B1||_2 = 1, so the 1/sqrt2-scaled matrix has norm sqrt2/2
        assert two_norm_sq(B1).as_rational() == 1
        # ||B1 B2||_2^2 = (3+sqrt5)/2; scaled by 1/2 gives (sqrt5+3)/8
        v = two_norm_sq(B1 @ B2)
        sqrt5 = isolate_real_roots(P([-5, 0, 1]))[1]
        ctx = NumberFieldContext.from_real_algebraic(sqrt5)
        want = (ctx.generator() + 3) * Fraction(1, 2)
        assert compare(v, want.to_real_algebraic()) == Ordering.EQUAL

    def test_identity(self):
        assert two_norm_sq(IntMatrix.identity(3)).as_rational() == 1

    def test_value_carries_the_minimal_polynomial(self):
        # det(xI - A^T A) = x (x^2 - 3x + 1); the norm is the larger root
        # of the irreducible factor, not of the whole polynomial
        v = two_norm_sq(M([[1, 1, 0], [0, 1, 0], [0, 0, 0]]))
        assert v.minpoly == P([1, -3, 1])
        assert compare(v, isolate_real_roots(P([1, -3, 1]))[1]) == Ordering.EQUAL

    def test_frobenius(self):
        f = frobenius_norm_sq(M([[1, 0], [1, -1]]))
        assert f == 3 and type(f) is int

    def test_norm_dominates_radius(self):
        rng = random.Random(17)
        for _ in range(12):
            A = M([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            lhs = spectral_radius(A).value.pow(2)
            assert compare(two_norm_sq(A), lhs) != Ordering.LESS


class TestProducts:
    def test_product_agrees_with_a_triple_loop(self):
        def oracle(A, B):
            n = A.dim
            return [[sum(A.rows[i][k] * B.rows[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]

        rng = random.Random(11)
        for dim in range(1, 5):
            ident, zero = IntMatrix.identity(dim), IntMatrix.zero(dim)
            for _ in range(40):
                A, B = (M([[rng.randint(-3, 3) for _ in range(dim)]
                           for _ in range(dim)]) for _ in range(2))
                for X, Y in ((A, B), (B, A), (A, ident), (ident, A),
                             (A, zero), (zero, B)):
                    assert (X @ Y).rows == tuple(map(tuple, oracle(X, Y)))
                assert A @ ident == ident @ A == A
                assert (A @ zero).is_zero() and (zero @ A).is_zero()

    def test_word_order_right_to_left(self):
        fam = MatrixFamily.make([[[0, 1], [0, 0]], [[1, 0], [1, 1]]])
        p = evaluate([1, 2], fam)  # A2 A1
        assert p.value == fam[1] @ fam[0]

    def test_showcase_identities(self):
        fam = MatrixFamily.make([B1, B2])
        # B2^3 = 2 B2 and B1 B2^3 = 2 B1 B2 exactly
        assert B2 @ B2 @ B2 == M([[2 * v for v in r] for r in B2.rows])
        assert B1 @ B2 @ B2 @ B2 == M([[2 * v for v in r]
                                       for r in (B1 @ B2).rows])

    def test_smp_value_for_f2_pair(self):
        # pair {[0 1;0 0],[1 0;1 1]}: product A1 A2^4 has radius 4
        fam = MatrixFamily.make([[[0, 1], [0, 0]], [[1, 0], [1, 1]]])
        p = evaluate([2, 2, 2, 2, 1], fam)  # A1 applied last
        assert p.value == fam[0] @ fam[1] @ fam[1] @ fam[1] @ fam[1]
        sr = spectral_radius(p.value)
        assert sr.value.as_rational() == 4
