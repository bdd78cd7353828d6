import dataclasses
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest

from jsrcert import algebraic
from jsrcert.algebraic import (
    AlgebraicError,
    ContextMismatchError,
    IntPolynomial,
    NumberFieldContext,
    Ordering,
    PowerMemo,
    RealAlgebraic,
    compare,
    compare_powers,
    count_roots_in,
    faddeev_leverrier,
    factor_int_poly,
    gcd_int_poly,
    integer_combinations,
    integer_roots,
    is_power,
    isolate_real_roots,
    linear_combination,
    nth_root,
    real_algebraic_root,
    sturm_chain,
    sub_scaled,
)
from jsrcert.ipa import SCHEMA
from jsrcert.matcore import IntMatrix, MatrixFamily, evaluate, spectral_radius

from oracles import (bisect_roots, char_poly_cofactor, eval_poly, inverse,
                     mp_poly_roots, mp_real_root_count, mp_value,
                     two_sign_halvings)


P = IntPolynomial.make


class TestIsolateRealRoots:
    def test_x2_minus_1(self):
        roots = isolate_real_roots(P([-1, 0, 1]))
        assert [r.as_rational() for r in roots] == [-1, 1]

    def test_x2_minus_2_matches_bisection_oracle(self):
        # oracle: plain sign-change bisection, independent of Sturm
        oracle = bisect_roots([-2, 0, 1])
        roots = isolate_real_roots(P([-2, 0, 1]))
        assert len(roots) == len(oracle) == 2
        for r, (olo, ohi) in zip(roots, oracle):
            lo, hi = r.interval()
            assert lo <= ohi and olo <= hi  # intervals overlap
            assert not (lo <= 0 <= hi)  # spec: intervals exclude 0
        assert roots[0].sign() < 0 < roots[1].sign()
        assert roots[0].minpoly == roots[1].minpoly == P([-2, 0, 1])

    def test_x3_minus_x(self):
        roots = isolate_real_roots(P([0, -1, 0, 1]))
        assert [r.as_rational() for r in roots] == [-1, 0, 1]

    def test_disjoint_sorted_intervals(self):
        # (x^2-2)(x^2-3)(x-1) has five distinct real roots
        p = P([-2, 0, 1]) * P([-3, 0, 1]) * P([-1, 1])
        roots = isolate_real_roots(p)
        assert len(roots) == 5
        for a, b in zip(roots, roots[1:]):
            assert compare(a, b) == Ordering.LESS
            assert a.interval()[1] < b.interval()[0] or a.interval()[1] <= b.interval()[0]

    def test_count_matches_oracle_on_random_products(self):
        rng = random.Random(7)
        for _ in range(25):
            # random product of distinct linear and quadratic factors
            p = P([1])
            used = set()
            for _ in range(rng.randint(1, 4)):
                r = rng.randint(-6, 6)
                if r not in used:
                    used.add(r)
                    p = p * P([-r, 1])
            roots = isolate_real_roots(p)
            assert sorted(float(r) for r in roots) == sorted(float(u) for u in used)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(AlgebraicError):
            isolate_real_roots(P([]))

    def test_multiple_roots_collapse(self):
        # (x-1)^3 -> single root 1
        p = P([-1, 1]) * P([-1, 1]) * P([-1, 1])
        roots = isolate_real_roots(p)
        assert len(roots) == 1 and roots[0].as_rational() == 1

    def test_matches_mpmath_roots_on_random_polynomials(self):
        # products of linear factors, rational roots on bisection points
        # (integers and halves) and off them (thirds), with random
        # quadratics and cubics
        rng = random.Random(24)
        for _ in range(60):
            p = P([1])
            for _ in range(rng.randint(1, 3)):
                s, t = rng.randint(-12, 12), rng.choice([1, 1, 2, 3])
                p = p * P([-s, t])
            for _ in range(rng.randint(0, 2)):
                p = p * P([rng.randint(-9, 9) for _ in range(rng.choice([3, 4]))] + [1])
            roots = isolate_real_roots(p)
            # the oracle's roots of the squarefree part, which are simple
            want = sorted(z.real for z in
                          mp_poly_roots(list(p.squarefree_part().coeffs))
                          if abs(z.imag) < mpmath.mpf(10) ** -20)
            assert len(roots) == len(want)
            for r, x in zip(roots, want):
                lo, hi = r.interval()
                with mpmath.workdps(60):
                    mlo, mhi = (mpmath.mpf(q.numerator) / q.denominator
                                for q in (lo, hi))
                    if r.is_rational:
                        assert abs(mlo - x) < mpmath.mpf(10) ** -40
                    else:
                        assert mlo < x < mhi and not lo <= 0 <= hi
                        assert p.sign_at(lo) * p.sign_at(hi) != 0
                assert factor_int_poly(r.minpoly) == ((r.minpoly, 1),)
            for a, b in zip(roots, roots[1:]):
                assert a.interval()[1] < b.interval()[0]

    def test_rational_root_at_the_end_of_its_neighbours_interval(
            self, monkeypatch):
        # x (x^3 + 11x^2 + 31x + 6) = x (x + 6) (x^2 + 5x + 1): bisection
        # from the Cauchy bound 32 ends an interval at the root -6, and -6
        # starts the interval of the next root, -4.79...
        pinned = []
        root_in = algebraic._root_in
        monkeypatch.setattr(algebraic, "_root_in", lambda p, lo, hi:
                            pinned.append((lo, hi)) or root_in(p, lo, hi))
        p = P([0, 6, 31, 11, 1])
        roots = isolate_real_roots(p)
        assert (-6, -4) in pinned
        assert [r.as_rational() for r in roots if r.is_rational] == [-6, 0]
        assert [r.minpoly for r in roots] == [P([6, 1]), P([1, 5, 1]),
                                              P([1, 5, 1]), P([0, 1])]
        assert compare(roots[1], Fraction(-6)) == Ordering.GREATER

    def test_wrong_root_count_raises_instead_of_bisecting_forever(
            self, monkeypatch):
        # a Sturm count that always claims two roots can never split them
        monkeypatch.setattr(algebraic, "count_roots_in", lambda *args: 2)
        with pytest.raises(AlgebraicError, match="did not converge"):
            isolate_real_roots(P([-2, 0, 1]))


class TestIntegerRoots:
    def test_matches_rational_roots_of_isolation(self):
        # monic products of linear factors (repeats and 0 among them) and
        # random monic factors, degree <= 4
        rng = random.Random(1984)
        seen_zero = seen_repeat = 0
        for _ in range(400):
            p = P([1])
            for _ in range(rng.randint(0, 4)):
                p = p * P([-rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)), 1])
            while p.degree < 4 and rng.random() < 0.6:
                q = P([rng.randint(-6, 6) for _ in range(rng.randint(1, 2))]
                      + [1])
                if p.degree + q.degree <= 4:
                    p = p * q
            want = [r.as_rational() for r in isolate_real_roots(p)
                    if r.is_rational]
            assert integer_roots(p) == want, p
            seen_zero += 0 in want
            seen_repeat += p.squarefree_part().degree < p.degree
        assert seen_zero > 50 and seen_repeat > 50

    def test_constant_has_no_roots(self):
        assert integer_roots(P([5])) == []
        assert integer_roots(P([0, 0, 1])) == [0]

    def test_large_coefficients(self):
        big = 10**12 + 39  # prime
        cases = [P([-big, 1]) * P([3, 1]) * P([7, 0, 1]),
                 P([0, 1]) * P([-(2**20), 1]) * P([-(2**20), 1]),
                 P([-big, 2]) * P([-5, 1]),
                 P([big, 0, 1]) * P([0, 0, 1])]
        want = [[-3, big], [0, 2**20], [5], [0]]
        for p, roots in zip(cases, want):
            assert integer_roots(p) == roots
            assert roots == [r.as_rational() for r in isolate_real_roots(p)
                             if r.is_rational and r.as_rational().denominator == 1]


class TestFaddeevLeverrier:
    def test_char_poly_and_adjugate(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            for _ in range(30):
                A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                if rng.random() < 0.3 and n > 1:
                    A[-1] = [2 * x for x in A[0]]  # singular
                coeffs, adj = faddeev_leverrier(A)
                assert coeffs == [int(c) for c in char_poly_cofactor(A)]
                det = (-1) ** n * coeffs[0]
                # A adj(A) = adj(A) A = det(A) I
                for X, Y in ((A, adj), (adj, A)):
                    assert all(sum(X[i][t] * Y[t][j] for t in range(n))
                               == det * (i == j)
                               for i in range(n) for j in range(n))
                inv = inverse([[Fraction(x) for x in row] for row in A])
                assert (inv is None) == (det == 0)
                if inv is not None:
                    assert adj == [[det * x for x in row] for row in inv]


class TestCompare:
    def test_sqrt2_vs_seven_fifths(self):
        sqrt2 = isolate_real_roots(P([-2, 0, 1]))[1]
        assert compare(sqrt2, Fraction(7, 5)) == Ordering.GREATER

    def test_sqrt2_equals_sqrt2(self):
        a = isolate_real_roots(P([-2, 0, 1]))[1]
        b = nth_root(RealAlgebraic.from_rational(2), 2)
        assert compare(a, b) == Ordering.EQUAL

    def test_values_closer_than_a_fixed_guard_are_ordered(self):
        # the real roots of x^3 - N x^2 - 1 and x^3 - N x^2 - 2, N = 2^100 + 1,
        # lie about 1/N^2 apart, each the one real root in (0, 2N): about
        # 300 halvings of both, within the root-separation bound of the
        # cubics' product
        N = 2**100 + 1
        lo, hi = Fraction(0), Fraction(2 * N)

        def roots():
            return (RealAlgebraic(P([-1, 0, -N, 1]), lo, hi),
                    RealAlgebraic(P([-2, 0, -N, 1]), lo, hi))

        a, b = roots()
        assert compare(a, b) == Ordering.LESS
        assert a.interval()[1] - a.interval()[0] < Fraction(1, 2**199)
        a, b = roots()
        assert compare(b, a) == Ordering.GREATER
        bits = algebraic._separation_bits(a.minpoly * b.minpoly)
        assert 256 < bits < 1024

    def test_a_bug_still_ends_the_refinement(self):
        # two intervals that claim one root each of x^2 - 2 but hold the
        # same one: the separation bound ends the halvings
        p = P([-2, 0, 1])
        a = RealAlgebraic(p, Fraction(1), Fraction(2))
        b = RealAlgebraic(P([-4, 0, 2]), Fraction(1), Fraction(2))
        with pytest.raises(AlgebraicError, match="did not converge"):
            compare(a, b)

    def test_roots_near_zero_are_isolated_and_signed(self):
        # x^2 = 1 / 2^601: roots 2^-300.5 apart from 0, past 256 halvings
        roots = isolate_real_roots(P([-1, 0, 2**601]))
        assert [r.sign() for r in roots] == [-1, 1]
        r = RealAlgebraic(P([-1, 0, 2**601]), Fraction(0), Fraction(1))
        r.exclude_zero()
        assert r.interval()[0] > 0

    def test_field_elements_past_a_fixed_guard(self):
        # alpha, the root of M x^3 - 2M x + 1 in [1, 2] with M = 2^300, is
        # sqrt2 - 1/(4M) + ..., and a conjugate is -sqrt2 - 1/(4M) + ...:
        # alpha^2 - 2 is about -2^-300.5, and alpha^2 lies about 2^-300
        # from a conjugate, so each takes over 256 halvings of the root
        M = 2**300
        p = P([1, -2 * M, 0, M])
        assert factor_int_poly(p) == ((p, 1),)
        ctx = NumberFieldContext(p, Fraction(1), Fraction(2))
        assert (ctx.generator() ** 2 - 2).sign() == -1
        ctx = NumberFieldContext(p, Fraction(1), Fraction(2))
        sq = (ctx.generator() ** 2).to_real_algebraic()
        assert sq.minpoly == P([-1, 4 * M * M, -4 * M * M, M * M])
        assert compare(sq, 2) == Ordering.LESS

    def test_a_dyadic_cell_past_a_fixed_guard(self):
        # (N x - 2)^2 - 2 has the roots (2 +- sqrt2) / N in the unit cell
        # [0, 1], about 2^-298.5 apart for N = 2^300 + 1
        N = 2**300 + 1
        r = RealAlgebraic(P([2, -4 * N, N * N]), Fraction(2, N), Fraction(1))
        text = r.serialize()
        lo, hi = r.isolating_cell()
        assert (lo, hi) == (Fraction(1, 2**299), Fraction(1, 2**298))
        assert compare(RealAlgebraic.deserialize(text), r) == Ordering.EQUAL

    def test_example_norm_value_bracketing(self):
        # sqrt((sqrt5+3)/8) lies strictly between 4/5 and 81/100
        sqrt5 = isolate_real_roots(P([-5, 0, 1]))[1]
        ctx = NumberFieldContext.from_real_algebraic(sqrt5)
        inner = (ctx.generator() + 3) * Fraction(1, 8)
        val = nth_root(inner.to_real_algebraic(), 2)
        assert compare(val, Fraction(4, 5)) == Ordering.GREATER
        assert compare(val, Fraction(81, 100)) == Ordering.LESS

    def test_a_rational_is_ordered_against_an_irrational_by_one_sign(self):
        # the root of x^3 - N x^2 - 1 exceeds N by about 1/N^2, so no
        # number of halvings of an interval 2N wide within the refinement
        # limit separates it from N; the sign of the polynomial at N does
        N = 2**1100 + 1
        r = RealAlgebraic(P([-1, 0, -N, 1]), Fraction(0), Fraction(2 * N))
        assert compare(r, N) == Ordering.GREATER
        assert compare(Fraction(N), r) == Ordering.LESS
        assert compare(r, N + 1) == Ordering.LESS
        assert compare(r, 2 * N) == Ordering.LESS
        assert compare(r, -1) == Ordering.GREATER
        assert r.interval() == (0, 2 * N)  # decided without refinement

    def test_one_sign_agrees_with_refinement(self):
        polys = [P([-2, 0, 1]), P([-1, -1, 0, 1]), P([1, -3, 0, 1]), P([-5, 4, -5, 1])]
        for poly in polys:
            for r in isolate_real_roots(poly):
                lo, hi = r.interval()
                for k in range(-1, 18):
                    q = lo + (hi - lo) * Fraction(k, 16)
                    # the order the refinement of a copy reads off
                    s = RealAlgebraic(poly, lo, hi)
                    while s.interval()[0] <= q <= s.interval()[1]:
                        s.refine()
                    want = Ordering.LESS if s.interval()[1] < q else Ordering.GREATER
                    assert compare(r, q) == want == -compare(q, r)
                assert r.interval() == (lo, hi)

    def test_total_order_on_random_triples(self):
        rng = random.Random(3)
        pool = []
        for n in (2, 3, 5, 7, 8, 12):
            pool.extend(isolate_real_roots(P([-n, 0, 1])))
        pool.extend(RealAlgebraic.from_rational(Fraction(rng.randint(-20, 20), 7))
                    for _ in range(6))
        for _ in range(60):
            a, b, c = rng.sample(pool, 3)
            cab, cbc, cac = compare(a, b), compare(b, c), compare(a, c)
            assert compare(b, a) == -cab  # antisymmetry
            if cab != Ordering.GREATER and cbc != Ordering.GREATER:
                assert cac != Ordering.GREATER  # transitivity


def _radius_and_oracle(rows):
    """rho(A) exactly, and at 60 digits from mpmath roots of the
    cofactor characteristic polynomial."""
    A = IntMatrix.make(rows)
    coeffs = [int(c) for c in char_poly_cofactor(rows)]
    with mpmath.workdps(60):
        mp = max(abs(z) for z in mp_poly_roots(coeffs))
    return spectral_radius(A).value, mp


def _random_radii(rng, count):
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        rows = [[rng.randint(-1, 2) for _ in range(n)] for _ in range(n)]
        if any(any(r) for r in rows):
            out.append(_radius_and_oracle(rows))
    return out


class TestComparePowers:
    def test_agrees_with_exact_compare_and_mpmath_oracle(self):
        rng = random.Random(21)
        radii = _random_radii(rng, 24)
        decided = 0
        for _ in range(40):
            (a, a_mp), (b, b_mp) = rng.sample(radii, 2)
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            got = compare_powers(a, m, b, n)
            assert got == compare(a.pow(m), b.pow(n))
            with mpmath.workdps(60):
                diff = a_mp**m - b_mp**n
                if abs(diff) > mpmath.mpf(10) ** -30:
                    assert got == (Ordering.GREATER if diff > 0 else Ordering.LESS)
                    decided += 1
        assert decided >= 30

    def test_fraction_left_hand_sides(self):
        rng = random.Random(22)
        radii = _random_radii(rng, 12)
        for _ in range(30):
            b, b_mp = rng.choice(radii)
            q = Fraction(rng.randint(0, 40), rng.randint(1, 12))
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            got = compare_powers(q, m, b, n)
            assert got == compare(q**m, b.pow(n))
            with mpmath.workdps(60):
                diff = (mpmath.mpf(q.numerator) / q.denominator)**m - b_mp**n
                if abs(diff) > mpmath.mpf(10) ** -30:
                    assert got == (Ordering.GREATER if diff > 0 else Ordering.LESS)

    def test_squarefree_left_hand_side(self):
        # the largest root of a squarefree product carries the minimal
        # polynomial of its own factor
        a = isolate_real_roots(P([-2, 0, 1]) * P([-1, 1]))[-1]
        assert a.minpoly == P([-2, 0, 1])
        sqrt2 = isolate_real_roots(P([-2, 0, 1]))[1]
        assert compare_powers(a, 4, sqrt2, 4) == Ordering.EQUAL
        assert compare_powers(a, 3, sqrt2, 4) == Ordering.LESS

    def test_power_of_a_matrix_ties_with_its_radius_power(self):
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, 0]]
        A = IntMatrix.make(rows)
        for k in (2, 3, 5, 7):
            Ak = evaluate([1] * k, MatrixFamily.make([A])).value
            rk = spectral_radius(Ak).value
            r = spectral_radius(A).value
            assert compare_powers(r, k, rk, 1) == Ordering.EQUAL
            assert compare_powers(rk, 1, r, k) == Ordering.EQUAL
            assert compare_powers(rk, 2, r, 2 * k) == Ordering.EQUAL

    def test_known_ties(self):
        sqrt2 = isolate_real_roots(P([-2, 0, 1]))[1]
        two = RealAlgebraic.from_rational(2)
        assert compare_powers(sqrt2, 2, two, 1) == Ordering.EQUAL
        assert compare_powers(Fraction(2), 1, sqrt2, 2) == Ordering.EQUAL
        assert compare_powers(Fraction(4), 1, sqrt2, 4) == Ordering.EQUAL
        phi = isolate_real_roots(P([-1, -1, 1]))[1]
        phi_plus_one = isolate_real_roots(P([1, -3, 1]))[1]  # (3 + sqrt5)/2
        assert compare_powers(phi, 2, phi_plus_one, 1) == Ordering.EQUAL
        assert compare_powers(phi, 4, phi_plus_one, 2) == Ordering.EQUAL
        assert compare_powers(phi, 3, phi_plus_one, 1) == Ordering.GREATER

    def test_fraction_against_rational_and_zero(self):
        zero = RealAlgebraic.from_rational(0)
        assert compare_powers(Fraction(0), 3, zero, 2) == Ordering.EQUAL
        assert compare_powers(Fraction(1, 2), 3, zero, 2) == Ordering.GREATER
        assert compare_powers(Fraction(3, 2), 2, RealAlgebraic.from_rational(
            Fraction(9, 4)), 1) == Ordering.EQUAL

    def test_memo_is_filled_and_read(self):
        # the golden ratio phi, not a binomial root, takes the interval
        # path; phi^2 = phi + 1 = (3 + sqrt5) / 2 is only decided exactly
        phi = isolate_real_roots(P([-1, -1, 1]))[1]
        phi_plus_one = isolate_real_roots(P([1, -3, 1]))[1]
        memo = PowerMemo()
        assert compare_powers(phi_plus_one, 1, phi, 2, memo) == Ordering.EQUAL
        assert compare(memo.exact[2], phi_plus_one) == Ordering.EQUAL
        # a planted memo entry is what the exact fallback reads
        memo.exact[2] = RealAlgebraic.from_rational(3)
        assert compare_powers(phi_plus_one, 1, phi, 2, memo) == Ordering.LESS

    def test_powered_endpoints_are_read_for_the_interval_they_were_made_from(self):
        phi = isolate_real_roots(P([-1, -1, 1]))[1]
        memo = PowerMemo()
        assert compare_powers(Fraction(3, 2), 2, phi, 2, memo) == Ordering.LESS
        lo, hi = phi.interval()
        assert memo.ends[2] == (lo, hi, max(lo, 0)**2, max(hi, 0)**2)
        # a planted entry for the current interval decides at once
        memo.ends[2] = (lo, hi, Fraction(0), Fraction(1))
        assert compare_powers(Fraction(3, 2), 2, phi, 2, memo) == Ordering.GREATER
        # once the interval moves, the entry is made again from it
        phi.refine()
        assert compare_powers(Fraction(3, 2), 2, phi, 2, memo) == Ordering.LESS
        lo, hi = phi.interval()
        assert memo.ends[2] == (lo, hi, max(lo, 0)**2, max(hi, 0)**2)


    def test_integer_shortcut_agrees_with_the_interval_path(self, monkeypatch):
        # a an int, a Fraction, a rational, sqrt(q) or cbrt(q); b a
        # rational, sqrt(q) or cbrt(q).  Ties a^m = b^n: a = r^(1/ka) and
        # b = r^(1/kb) for one base r, with m = t ka and n = t kb.
        rng = random.Random(23)
        roots = {"int": 1, "fraction": 1, "rational": 1, "sqrt": 2, "cbrt": 3}

        def value(kind, q):
            if kind == "int":
                return int(q)
            if kind == "fraction":
                return q
            return nth_root(RealAlgebraic.from_rational(q), roots[kind])

        cases = []
        for i in range(160):
            ka = rng.choice(list(roots))
            kb = rng.choice(("rational", "sqrt", "cbrt"))
            r = Fraction(rng.randint(2, 12), 1 if ka == "int" else rng.randint(1, 5))
            if i % 2:
                t = rng.randint(1, 4)
                cases.append((value(ka, r), t * roots[ka], value(kb, r),
                               t * roots[kb], True))
            else:
                s = Fraction(rng.randint(1, 12), rng.randint(1, 5))
                cases.append((value(ka, r), rng.randint(1, 9), value(kb, s),
                              rng.randint(1, 9), False))
        for a, m, b, n, _ in cases:
            assert algebraic._radical_order(a, m, b, n) is not None
        shortcut = [compare_powers(a, m, b, n) for a, m, b, n, _ in cases]
        monkeypatch.setattr(algebraic, "_radical_order", lambda *args: None)
        for (a, m, b, n, tie), got in zip(cases, shortcut):
            assert got == compare_powers(a, m, b, n), (a, m, b, n)
            if tie:
                assert got == Ordering.EQUAL

    def test_complex_pair_radius_is_decided_by_integers(self):
        # rho([[1, -1], [1, 1]]) = sqrt(2), minimal polynomial x^2 - 2
        rho = spectral_radius(IntMatrix.make([[1, -1], [1, 1]])).value
        assert rho.minpoly == P([-2, 0, 1])
        interval = rho.interval()
        assert compare_powers(2, 1, rho, 2) == Ordering.EQUAL
        assert compare_powers(Fraction(7, 5), 2, rho, 2) == Ordering.LESS
        assert compare_powers(rho, 4, RealAlgebraic.from_rational(4), 1) \
            == Ordering.EQUAL
        assert rho.interval() == interval  # no halving was needed


def _certificates(path):
    """Every certificate in a store, those of block records included."""
    out = []

    def collect(d):
        if d.get("schema") == SCHEMA and "family" in d:  # not the toolchain
            out.append(d)
        return d

    for line in open(path):
        json.loads(line, object_hook=collect)
    return out


@pytest.fixture(scope="module")
def f3_search_certificates(f3_search_store):
    """The certificates of the f3-search sample (`TestGoldenRecords` pins
    its store)."""
    return _certificates(f3_search_store[0])


@pytest.fixture(scope="module")
def f2s_hulls_certificates(f2s_hulls_store):
    """The certificates of the F2s hull representatives, every kind-R and
    kind-C hull of F2s among them (`TestGoldenRecords` pins their store)."""
    return _certificates(f2s_hulls_store)


class TestIsPower:
    @pytest.mark.parametrize("store", ["f3_search_certificates",
                                       "f2s_hulls_certificates"])
    def test_agrees_with_compare_powers_on_proved_certificates(self, store,
                                                              request):
        certs = request.getfixturevalue(store)
        assert len(certs) >= 40
        equal = unequal = 0
        for cert in certs:
            family = MatrixFamily.make(
                [[row[i * cert["dim"]:(i + 1) * cert["dim"]]
                  for i in range(cert["dim"])] for row in cert["family"]])
            for word in map(tuple, cert["smp_words"]):
                # the word's length, and off by one for unequal cases; each
                # test gets fresh values, as both refine them in place
                for n in {len(word), len(word) + 1, max(len(word) - 1, 1)}:
                    def args():
                        rho = spectral_radius(evaluate(word, family).value).value
                        return rho, RealAlgebraic.deserialize(cert["lambda"])
                    want = compare_powers(args()[0], 1, args()[1], n) == Ordering.EQUAL
                    assert is_power(*args(), n) == want, (cert["family"], word, n)
                    equal += want
                    unequal += not want
        assert equal >= len(certs) and unequal >= len(certs)

    def test_a_conjugate_power_is_not_the_value(self):
        # b = (sqrt5 - 1)/2 has b^2 = (3 - sqrt5)/2, a root of
        # p_a = x^2 - 3x + 1 like a = (3 + sqrt5)/2: b's minimal polynomial
        # x^2 + x - 1 divides p_a(x^2) = (x^2 + x - 1)(x^2 - x - 1), but
        # b^2 lies outside a's isolating interval
        pa = P([1, -3, 1])
        b = RealAlgebraic(P([-1, 1, 1]), Fraction(0), Fraction(1))
        assert gcd_int_poly(pa.compose_power(2), b.minpoly) == b.minpoly
        assert not is_power(RealAlgebraic(pa, Fraction(2), Fraction(3)), b, 2)
        assert is_power(RealAlgebraic(pa, Fraction(0), Fraction(1)), b, 2)
        # the golden ratio squares to a
        phi = RealAlgebraic(P([-1, -1, 1]), Fraction(1), Fraction(2))
        assert is_power(RealAlgebraic(pa, Fraction(2), Fraction(3)), phi, 2)

    def test_conjugates_are_equal_only_at_the_same_root(self):
        p = P([-2, 0, 1])
        plus = RealAlgebraic(p, Fraction(1), Fraction(2))
        assert is_power(RealAlgebraic(p, Fraction(7, 5), Fraction(3, 2)), plus, 1)
        assert not is_power(RealAlgebraic(p, Fraction(-2), Fraction(-1)), plus, 1)
        # touching intervals share no root
        assert not is_power(RealAlgebraic(p, Fraction(1), Fraction(7, 5)),
                            RealAlgebraic(p, Fraction(7, 5), Fraction(2)), 1)
        assert not is_power(RealAlgebraic(P([-3, 0, 1]), Fraction(1), Fraction(2)),
                            plus, 1)

    def test_a_rational_value_is_decided_by_divisibility_alone(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a rational a needs no refinement")

        monkeypatch.setattr(RealAlgebraic, "refine", refuse)
        sqrt2 = RealAlgebraic(P([-2, 0, 1]), Fraction(1), Fraction(2))
        minus = RealAlgebraic(P([-2, 0, 1]), Fraction(-2), Fraction(-1))
        assert is_power(RealAlgebraic.from_rational(2), sqrt2, 2)
        assert is_power(Fraction(2), minus, 2)
        assert is_power(4, sqrt2, 4)
        assert not is_power(2, sqrt2, 4)
        assert not is_power(Fraction(-2), sqrt2, 2)
        assert not is_power(3, sqrt2, 2)
        assert not is_power(sqrt2, RealAlgebraic.from_rational(2), 1)
        assert is_power(Fraction(9, 4), Fraction(-3, 2), 2)

    def test_agrees_with_compare_powers_on_random_radii(self):
        rng = random.Random(23)
        radii = [r for r, _ in _random_radii(rng, 24)]
        for a, b in [(a, b) for a in radii for b in radii][::7]:
            for n in (1, 2, 3):
                want = compare_powers(a, 1, b, n) == Ordering.EQUAL
                assert is_power(a, b, n) == want
                assert is_power(b.pow(n), b, n)


class TestFloatConversion:
    def test_certificate_coordinates_convert_within_one_ulp(
            self, f3_search_certificates):
        checked = 0
        for cert in f3_search_certificates:
            ctx_text = cert["context"]
            coeffs = [int(c) for c in ctx_text["minpoly"]]
            lo, hi = Fraction(ctx_text["root_lo"]), Fraction(ctx_text["root_hi"])
            ctx = NumberFieldContext(P(coeffs), lo, hi)
            # the reference root: halved by two fresh signs each step,
            # without the package, below 2^-200
            if lo != hi:
                lo, hi = two_sign_halvings(coeffs, lo, hi, 240)[-1]
                assert hi - lo < Fraction(1, 2**200)
            root = (lo + hi) / 2
            for v in cert["vertices"]:
                for c in v["coords"]:
                    x = ctx.element(c) if isinstance(c, list) else \
                        ctx.from_rational(Fraction(c))
                    ref = sum(Fraction(q) * root**i for i, q in
                              enumerate(c if isinstance(c, list) else [c]))
                    f = float(x)
                    assert abs(Fraction(f) - ref) <= Fraction(math.ulp(f)), c
                    checked += 1
            lam = RealAlgebraic.deserialize(cert["lambda"])
            ref = root if lam.minpoly == ctx.minpoly else lam.as_rational()
            assert abs(Fraction(float(lam)) - ref) <= Fraction(math.ulp(float(lam)))
        assert checked >= 200

    def test_real_roots_of_random_polynomials_convert_within_one_ulp(self):
        rng = random.Random(71)
        checked = narrowed = 0
        while checked < 80:
            p = _random_poly(rng, rng.randint(2, 6), bound=rng.choice([3, 40, 10**6]))
            if len(factor_int_poly(p)) != 1 or factor_int_poly(p)[0][1] != 1:
                continue  # an irreducible p, up to its content
            exact = sorted(z.real for z in mp_poly_roots(list(p.coeffs), dps=80)
                           if abs(z.imag) < mpmath.mpf(10) ** -40)
            for r, z in zip(isolate_real_roots(p), exact):
                lo, hi = r.interval()
                cell = algebraic._newton_cell(r.minpoly, lo, hi)
                if cell is not None:
                    a, b, sb = cell
                    assert lo <= a < b <= hi
                    assert count_roots_in(r.minpoly, a, b) == 1
                    assert sb == r.minpoly.sign_at(b)
                    narrowed += 1
                f = float(r)
                assert abs(mpmath.mpf(f) - z) <= math.ulp(f), (p.coeffs, f)
                checked += 1
        assert narrowed >= 60

    def test_narrowing_replaces_the_halvings(self):
        # the root of x^3 - 3x - 1 in its 2^-24 cell, as a 3x3 radius has it
        p = P([-1, -3, 0, 1])
        r = isolate_real_roots(p)[-1]
        while r.interval()[1] - r.interval()[0] > Fraction(1, 2**24):
            r.refine()
        ctx = NumberFieldContext.from_real_algebraic(r)
        x = ctx.element([Fraction(1, 3), 2, -1])
        halvings = []
        original = NumberFieldContext.refine_root
        try:
            NumberFieldContext.refine_root = lambda self: halvings.append(1)
            f = float(x)
        finally:
            NumberFieldContext.refine_root = original
        lo, hi = ctx.root_interval()
        assert not halvings and hi - lo <= Fraction(2, 2**95)
        root = mpmath.findroot(lambda t: t**3 - 3 * t - 1, 1.879)
        assert f == pytest.approx(float(mpmath.mpf(1) / 3 + 2 * root - root**2),
                                  rel=1e-15)

    def test_a_context_beyond_the_float_range_falls_back_to_halving(self):
        # the companion cubic x^3 - N x^2 - 1 of N = 2^1100 + 1 has its real
        # root in (N, N + 1), past any float
        N = 2**1100 + 1
        p = P([-1, 0, -N, 1])
        assert algebraic._newton_cell(p, Fraction(N), Fraction(N + 1)) is None
        ctx = NumberFieldContext(p, Fraction(N), Fraction(N + 1))
        # alpha - N is about 1/N^2: halved from width 1 to the first
        # width below 1e-17
        assert 0.0 <= float(ctx.generator() - N) < 1e-17
        lo, hi = ctx.root_interval()
        assert hi - lo == Fraction(1, 2**57)
        # a value near 1 whose coefficients exceed the float range
        r = RealAlgebraic(P([-(N + 1), 0, N]), Fraction(1), Fraction(2))
        assert float(r) == 1.0

    def test_a_failed_certification_keeps_the_interval(self, monkeypatch):
        # no sign change across the Newton cell: the interval is kept and
        # halving takes over
        p = P([-2, 0, 1])
        r = RealAlgebraic(p, Fraction(1), Fraction(2))
        monkeypatch.setattr(algebraic, "_newton_cell", lambda *_: None)
        assert float(r) == 2**0.5
        lo, hi = r.interval()
        assert hi - lo < Fraction(1, 10**17) and lo.denominator & (lo.denominator - 1) == 0


class TestNthRoot:
    def test_square_root_of_four(self):
        assert nth_root(RealAlgebraic.from_rational(4), 2).as_rational() == 2

    def test_square_root_of_two(self):
        r = nth_root(RealAlgebraic.from_rational(2), 2)
        assert r.minpoly == P([-2, 0, 1])
        assert r.sign() > 0

    def test_round_trip_property(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(1, 5)
            base = Fraction(rng.randint(1, 30), rng.randint(1, 9))
            a = RealAlgebraic.from_rational(base**n)
            r = nth_root(a, n)
            assert compare(r, RealAlgebraic.from_rational(base)) == Ordering.EQUAL

    def test_irrational_base_round_trip(self):
        sqrt3 = isolate_real_roots(P([-3, 0, 1]))[1]
        for n in (2, 3):
            r = nth_root(sqrt3, n)
            assert compare(r.pow(n), sqrt3) == Ordering.EQUAL

    def test_exact_roots_beyond_float_range(self):
        big = RealAlgebraic.from_rational(10**400)
        assert nth_root(big, 2).as_rational() == 10**200
        assert nth_root(RealAlgebraic.from_rational(Fraction(10**600, 27)), 3) \
            .as_rational() == Fraction(10**200, 3)
        assert nth_root(RealAlgebraic.from_rational(7**5 * 10**350), 5) \
            .as_rational() == 7 * 10**70

    def test_large_rational_that_is_no_perfect_power(self):
        # 10^401 / 27 is no cube, and its Cauchy bound is about 1e400
        a = RealAlgebraic.from_rational(Fraction(10**401, 27))
        r = nth_root(a, 3)
        assert r.minpoly == P([-10**401, 0, 0, 27]) and r.sign() > 0
        assert compare(r.pow(3), a) == Ordering.EQUAL
        assert compare(nth_root(RealAlgebraic.from_rational(Fraction(2, 10**300)),
                               2).pow(2),
                       RealAlgebraic.from_rational(Fraction(1, 5 * 10**299))) \
            == Ordering.EQUAL

    def test_irrational_arguments_of_degree_2_and_3(self):
        # 3 + 2 sqrt2 = (1 + sqrt2)^2, so its p(x^2) splits into two
        # quadratics; 7 + 5 sqrt2 = (1 + sqrt2)^3 likewise for n = 3
        polys = [P([-2, 0, 1]), P([1, -6, 1]), P([-1, 14, 1]), P([-1, -1, 1]),
                 P([-1, -1, 0, 1]), P([1, -3, 0, 1]), P([-2, 0, 0, 1]),
                 P([-5, 4, -5, 1])]
        for poly in polys:
            for a in isolate_real_roots(poly):
                if a.sign() <= 0:
                    continue
                for n in range(2, 9):
                    r = nth_root(a, n)
                    assert r.sign() > 0
                    assert compare_powers(r, n, a, 1) == Ordering.EQUAL
                    assert factor_int_poly(r.minpoly) == ((r.minpoly, 1),)
        a = isolate_real_roots(P([1, -6, 1]))[1]  # 3 + 2 sqrt2
        assert nth_root(a, 2).minpoly == P([-1, -2, 1])  # 1 + sqrt2

    def test_a_wide_interval_is_refined_until_the_bracket_isolates(self):
        # [0, 10] holds both roots of x^2 - 6x + 1 (0.17 and 5.83)
        a = RealAlgebraic(P([1, -6, 1]), Fraction(1, 2), Fraction(10))
        r = nth_root(a, 3)
        assert compare_powers(r, 3, a, 1) == Ordering.EQUAL
        lo, hi = r.interval()
        assert count_roots_in(P([1, -6, 1]), lo**3, hi**3) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(AlgebraicError):
            nth_root(RealAlgebraic.from_rational(0), 2)
        with pytest.raises(AlgebraicError):
            nth_root(RealAlgebraic.from_rational(-1), 3)


class TestFieldArithmetic:
    def test_basic_quadratic_field(self):
        sqrt2 = isolate_real_roots(P([-2, 0, 1]))[1]
        ctx = NumberFieldContext.from_real_algebraic(sqrt2)
        a = ctx.generator()
        assert (a * a).as_rational() == 2
        assert ((a + 1) * (a - 1)).as_rational() == 1
        inv = (a + 1).inverse()
        assert ((a + 1) * inv).as_rational() == 1

    def test_division_and_sign(self):
        phi_poly = P([-1, -1, 1])
        phi = isolate_real_roots(phi_poly)[1]
        ctx = NumberFieldContext.from_real_algebraic(phi)
        g = ctx.generator()
        # 1/phi = phi - 1
        assert (ctx.one() / g) == g - ctx.one()
        assert (g - 2).sign() < 0 < (g - 1).sign()

    def test_minimal_polynomial_of_element(self):
        sqrt2 = isolate_real_roots(P([-2, 0, 1]))[1]
        ctx = NumberFieldContext.from_real_algebraic(sqrt2)
        e = ctx.generator() + 1  # 1 + sqrt2, minpoly x^2 - 2x - 1
        assert e.minimal_polynomial() == P([-1, -2, 1])

    @pytest.mark.parametrize("coeffs", [[-2, 0, 1], [-3, 0, 2], [-1, -1, 0, 3],
                                        [5, -4, 0, 1], [-7, 1, 2, 0, 3]])
    def test_the_generator_inverse_is_its_closed_form(self, coeffs):
        for r in isolate_real_roots(P(coeffs)):
            ctx = NumberFieldContext.from_real_algebraic(r)
            g = ctx.generator()
            inv = g.inverse()
            assert inv * g == ctx.one()
            # extended Euclid on 2 alpha, halved
            assert inv == (g * 2).inverse() * 2

    def test_the_generator_is_the_context_root(self, monkeypatch):
        roots = [r for q in (P([-2, 0, 1]), P([-1, -3, 0, 1]), P([-3, 0, 0, 2]))
                 for r in isolate_real_roots(q)]
        # the minimal polynomial every other element computes
        want = [NumberFieldContext.from_real_algebraic(r).generator()
                .minimal_polynomial() for r in roots]
        monkeypatch.setattr(algebraic.FieldElement, "minimal_polynomial",
                            lambda self: pytest.fail("the generator needs none"))
        for r, mp in zip(roots, want):
            ctx = NumberFieldContext.from_real_algebraic(r)
            got = ctx.generator().to_real_algebraic()
            assert got.minpoly == mp == r.minpoly
            assert got.interval() == ctx.root_interval()
            assert got is not ctx._root
            assert compare(got, r) == Ordering.EQUAL

    def test_agrees_with_100_digit_oracle(self):
        # random quadratic/cubic field samples, all four operations,
        # checked against mpmath at 100 digits to 50 digits
        rng = random.Random(5)
        # the last two contexts are not monic: products reduce with the
        # leading-coefficient scaling that no campaign context reaches
        polys = [P([-2, 0, 1]), P([-7, 0, 1]), P([-2, -1, 0, 1]), P([1, -4, 0, 1]),
                 P([-3, 0, 2]), P([-1, -1, 0, 3])]
        checked = 0
        for poly in polys:
            roots = isolate_real_roots(poly)
            root = roots[-1]
            ctx = NumberFieldContext.from_real_algebraic(root)
            with mpmath.workdps(110):
                lo, hi = root.interval()
                alpha = mpmath.findroot(
                    lambda x: sum(c * x**i for i, c in enumerate(poly.coeffs)),
                    mpmath.mpf((lo.numerator * hi.denominator +
                                hi.numerator * lo.denominator)) /
                    mpmath.mpf(2 * lo.denominator * hi.denominator))
                for _ in range(40):
                    ca = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(ctx.degree)]
                    cb = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(ctx.degree)]
                    a, b = ctx.element(ca), ctx.element(cb)
                    pairs = [(a + b, mp_value(ca, alpha) + mp_value(cb, alpha)),
                             (a - b, mp_value(ca, alpha) - mp_value(cb, alpha)),
                             (a * b, mp_value(ca, alpha) * mp_value(cb, alpha))]
                    if not b.is_zero():
                        pairs.append((a / b, mp_value(ca, alpha) / mp_value(cb, alpha)))
                    for got, want in pairs:
                        lo2, hi2 = got.interval()
                        mid = mpmath.mpf(0)
                        # exact rational midpoint to mpf
                        m = (lo2 + hi2) / 2
                        mid = mpmath.mpf(m.numerator) / mpmath.mpf(m.denominator)
                        width = mpmath.mpf((hi2 - lo2).numerator) / \
                            mpmath.mpf((hi2 - lo2).denominator)
                        assert abs(mid - want) <= width + mpmath.mpf(10) ** (-50)
                        checked += 1
        assert checked >= 500

    def test_one_value_has_one_representation(self):
        for poly in (P([-2, 0, 1]), P([-1, -1, 0, 3])):
            ctx = NumberFieldContext.from_real_algebraic(isolate_real_roots(poly)[-1])
            g = ctx.generator()
            a = ctx.element([Fraction(1, 2), Fraction(-1, 3)])
            forms = [ctx.element([Fraction(3, 6), Fraction(-4, 12)]),
                     ctx.element([Fraction(1, 2), Fraction(-1, 3), 0]),
                     (a * 6) / 6, (a * g) / g, a + g - g, ctx.one() / (1 / a)]
            for b in forms:
                assert b == a and hash(b) == hash(a)
                assert b.coords == (Fraction(1, 2), Fraction(-1, 3)) + (0,) * (ctx.degree - 2)
            assert a != a * 2 and g * g * 3 != g
            # a value of degree above the context's reduces to the same element
            assert ctx.element([0] * ctx.degree + [1]) == g ** ctx.degree

    def test_context_mixing_is_hard_error(self):
        sqrt2 = isolate_real_roots(P([-2, 0, 1]))[1]
        c1 = NumberFieldContext.from_real_algebraic(sqrt2)
        c2 = NumberFieldContext.from_real_algebraic(sqrt2)
        with pytest.raises(ContextMismatchError):
            c1.generator() + c2.generator()


def _random_poly(rng, degree, bound=40, sparse=False):
    """A random integer polynomial of exactly this degree, with leading
    coefficients of either sign and often not a unit.  Sparse ones have
    Sturm chains whose degrees drop by more than one."""
    lead = rng.choice([-1, 1]) * rng.randint(1, 12)
    return P([0 if sparse and rng.random() < 0.6 else rng.randint(-bound, bound)
              for _ in range(degree)] + [lead])


def _random_rational(rng):
    den = rng.choice([1, 2, 3, 7, 2**40, 10**30 + 7])
    return Fraction(rng.randint(-8 * den, 8 * den), den)


def _sympy_primitive(expr):
    import sympy

    x = sympy.Symbol("x")
    _, prim = sympy.Poly(expr, x).primitive()
    coeffs = [int(c) for c in reversed(prim.all_coeffs())]
    return P(coeffs).primitive()


class TestPolynomialKernel:
    def test_sign_at_matches_fraction_evaluation(self):
        rng = random.Random(17)
        for _ in range(300):
            p = _random_poly(rng, rng.randint(0, 8))
            x = _random_rational(rng)
            want = eval_poly(p.coeffs, x)
            assert p.sign_at(x) == (want > 0) - (want < 0)
            # an exact rational root, also with a huge denominator
            n, d = x.numerator, x.denominator
            q = p * P([-n, d])
            assert q.sign_at(x) == 0
            assert q.sign_at(x + Fraction(1, 10**40)) == \
                (eval_poly(q.coeffs, x + Fraction(1, 10**40)) > 0) - \
                (eval_poly(q.coeffs, x + Fraction(1, 10**40)) < 0)
        assert P([]).sign_at(Fraction(3, 2)) == 0
        assert P([5]).sign_at(Fraction(-7, 3)) == 1

    def test_sturm_counts_match_mpmath_oracle(self):
        rng = random.Random(23)
        checked = 0
        while checked < 120:
            p = _random_poly(rng, rng.randint(1, 7), bound=rng.choice([3, 40]),
                             sparse=checked % 2 == 1)
            if gcd_int_poly(p, p.derivative()).degree > 0:
                continue
            lo = _random_rational(rng)
            hi = lo + abs(_random_rational(rng)) + Fraction(1, 5)
            want = mp_real_root_count(list(p.coeffs), lo, hi)
            if want is None:
                continue
            assert count_roots_in(p, lo, hi) == want
            assert count_roots_in(-p, lo, hi) == want
            checked += 1
        # x^4 + 4x - 1: the chain drops from degree 3 to 1, and dividing by
        # its negative-leading linear member takes an odd power of -3
        for p in (P([-1, 4, 0, 0, 1]), P([-1, -4, 0, 0, -1])):
            assert [q.degree for q in sturm_chain(p)] == [4, 3, 1, 0]
            assert count_roots_in(p, Fraction(-3), Fraction(3)) == 2

    def test_gcd_and_squarefree_part_match_sympy(self):
        import sympy

        x = sympy.Symbol("x")
        rng = random.Random(29)
        for _ in range(60):
            common = _random_poly(rng, rng.randint(0, 3), bound=6)
            a = common * _random_poly(rng, rng.randint(0, 3), bound=6)
            b = common * _random_poly(rng, rng.randint(0, 3), bound=6)
            sa = sum(c * x**i for i, c in enumerate(a.coeffs))
            sb = sum(c * x**i for i, c in enumerate(b.coeffs))
            assert gcd_int_poly(a, b) == _sympy_primitive(sympy.gcd(sa, sb))
            # repeated factors, with negative and non-unit leading coefficients
            f = _random_poly(rng, rng.randint(1, 2), bound=6)
            g = _random_poly(rng, rng.randint(1, 2), bound=6)
            p = a * f * f * g * g * g
            sp = sum(c * x**i for i, c in enumerate(p.coeffs))
            assert p.squarefree_part() == _sympy_primitive(sympy.sqf_part(sp))


class TestSerialization:
    def test_round_trip(self):
        sqrt2 = isolate_real_roots(P([-2, 0, 1]))[1]
        text = sqrt2.serialize()
        assert text.startswith("minpoly=[") and ";interval=[" in text
        back = RealAlgebraic.deserialize(text)
        assert back.minpoly == sqrt2.minpoly
        assert compare(back, sqrt2) == Ordering.EQUAL

    def test_text_with_a_reducible_polynomial_reads_as_the_minimal_one(self):
        # x^4 - 3x^2 + 2 = (x^2 - 1)(x^2 - 2) and sqrt2 lies in [5/4, 3/2]
        x = RealAlgebraic.deserialize("minpoly=[2,0,-3,0,1];interval=[5/4,3/2]")
        assert x.minpoly == P([-2, 0, 1])
        assert x.serialize() == "minpoly=[-2,0,1];interval=[1,2]"

    @pytest.mark.parametrize("text", [
        "minpoly=[-2,1];interval=[1,2]",  # the root 2 is an endpoint
        "minpoly=[-1,0,1];interval=[-2,2]",  # two roots, -1 and 1
        "minpoly=[-2,0,1];interval=[3/2,3/2]",  # 3/2 is not a root
        "minpoly=[0];interval=[3,3]",  # the zero polynomial
        "minpoly=[-2,0,1]",
        "minpoly=[-2,x,1];interval=[1,2]",
        "minpoly=[-2,0,1];interval=[1,2,3]",
        "minpoly=[-2,0,1];interval=[1,two]",
        "minpoly=[-2,0,1];interval=[1,2/0]",
    ])
    def test_untrusted_text_is_rejected(self, text):
        with pytest.raises(AlgebraicError):
            RealAlgebraic.deserialize(text)

    def test_round_trip_rational(self):
        q = RealAlgebraic.from_rational(Fraction(-341, 305))
        back = RealAlgebraic.deserialize(q.serialize())
        assert back.as_rational() == Fraction(-341, 305)

    def test_refinement_does_not_change_compare(self):
        sqrt2 = isolate_real_roots(P([-2, 0, 1]))[1]
        other = nth_root(RealAlgebraic.from_rational(2), 2)
        sqrt2.refine_below(Fraction(1, 10**12))
        assert compare(sqrt2, other) == Ordering.EQUAL
        lo, hi = sqrt2.interval()
        assert hi - lo <= Fraction(1, 10**12)
        # minpoly still straddles zero on the interval
        assert eval_poly(sqrt2.minpoly.coeffs, lo) * eval_poly(sqrt2.minpoly.coeffs, hi) < 0


    def test_text_ignores_refinement_history(self):
        cubic = P([-1, -1, 0, 1])  # plastic number, the real root of x^3 - x - 1
        for poly in (P([-2, 0, 1]), cubic, P([-1, -1, 1])):
            first = isolate_real_roots(poly)[-1]
            second = isolate_real_roots(poly)[-1]
            second.refine_below(Fraction(1, 10**15))
            third = isolate_real_roots(poly * P([5, 1]))[-1]  # root -5
            assert first.interval() != second.interval()
            text = first.serialize()
            assert second.serialize() == text
            assert third.serialize() == text
            back = RealAlgebraic.deserialize(text)
            assert compare(back, first) == Ordering.EQUAL
            assert back.serialize() == text

    def test_memoized_text_is_the_text_of_the_number(self):
        # the text is memoized by polynomial and current interval: a
        # refined instance, rendered before a fresh one, gives the text
        # the fresh one computes, and so does one rendered after it
        for poly in (P([-2, 0, 1]), P([-1, -1, 0, 1]), P([-1, -1, 1]),
                     P([-3, 7])):
            algebraic._render.cache_clear()
            refined = isolate_real_roots(poly)[-1]
            before = refined.serialize()
            refined.refine()
            refined.refine()
            after = refined.serialize()
            fresh = isolate_real_roots(poly)[-1]
            algebraic._render.cache_clear()
            text = fresh.serialize()
            assert before == after == text
            assert fresh.serialize() is text  # a hit returns the same text
            assert RealAlgebraic.deserialize(text).serialize() == text

    def test_interval_is_the_widest_isolating_dyadic_cell(self):
        for poly in (P([-2, 0, 1]), P([1, -3, 1]), P([-1, -1, 0, 1]),
                     P([1, -3, 0, 1])):
            for root in isolate_real_roots(poly):
                iv = root.serialize().split("interval=[")[1].rstrip("]")
                lo, hi = (Fraction(t) for t in iv.split(","))
                width = hi - lo
                j = width.denominator.bit_length() - 1
                assert width.numerator == 1 and width.denominator == 2**j
                assert (lo * 2**j).denominator == 1
                assert len(bisect_roots(list(poly.coeffs), lo, hi)) == 1
                if j > 0:  # the parent cell holds another root
                    plo = Fraction((lo * 2**(j - 1)) // 1, 2**(j - 1))
                    assert len(bisect_roots(list(poly.coeffs), plo,
                                            plo + 2 * width)) > 1

    def test_a_wide_interval_takes_its_unit_cell_by_bisection(self):
        # the unit cell of a root just above N, from an interval about 2N
        # wide: found among the integers by bisection, not one by one
        for N in (2**60 + 7, 2**1100 + 1):
            r = RealAlgebraic(P([-1, 0, -N, 1]), Fraction(0), Fraction(2 * N))
            assert r.isolating_cell() == (N, N + 1)
            assert r.serialize() == f"minpoly=[-1,0,{-N},1];interval=[{N},{N + 1}]"
        # below zero too: the negated root lies in (-N - 1, -N)
        r = -RealAlgebraic(P([-1, 0, -N, 1]), Fraction(1), Fraction(3 * N))
        assert r.isolating_cell() == (-N - 1, -N)

    def test_rational_text_is_a_point(self):
        q = RealAlgebraic.from_rational(Fraction(2, 9))
        assert q.serialize() == "minpoly=[-2,9];interval=[2/9,2/9]"


class TestFactor:
    def test_factor_quartic(self):
        p = P([-2, 0, 1]) * P([-3, 0, 1])
        fs = factor_int_poly(p)
        assert sorted(f.coeffs for f, _ in fs) == [(-3, 0, 1), (-2, 0, 1)]

    def test_real_algebraic_root_picks_factor(self):
        p = P([-2, 0, 1]) * P([-3, 0, 1])
        r = real_algebraic_root(p, Fraction(14, 10), Fraction(15, 10))
        assert r.minpoly == P([-2, 0, 1])


class TestRealAlgebraicRoot:
    def test_a_reducible_or_repeated_polynomial_yields_its_factor(self):
        # the verifier reads a factor other than the claimed context
        # polynomial as a reducible context
        sqrt2 = P([-2, 0, 1])
        for p in (sqrt2 * P([-3, 0, 1]), sqrt2 * sqrt2, sqrt2 * P([-8, 5]),
                  sqrt2.scale(3)):
            r = real_algebraic_root(p, Fraction(7, 5), Fraction(3, 2))
            assert r.minpoly == sqrt2 != p
            assert r.interval() == (Fraction(7, 5), Fraction(3, 2))
        r = real_algebraic_root(P([-7, 5]) * sqrt2, Fraction(1), Fraction(7, 5))
        assert r.as_rational() == Fraction(7, 5)

    def test_an_interval_with_two_roots_is_rejected(self):
        for p, lo, hi in [(P([-1, 0, 1]), -2, 2), (P([-2, 0, 1]) * P([-3, 0, 1]), 1, 2),
                          (P([-2, 0, 1]), -2, 2), (P([-2, 0, 1]), 2, 3)]:
            with pytest.raises(AlgebraicError, match="single root"):
                real_algebraic_root(p, Fraction(lo), Fraction(hi))

    def test_an_endpoint_root_is_the_root_only_when_alone(self):
        p = P([-2, 1]) * P([-3, 0, 1])  # roots 2 and +-sqrt3
        assert real_algebraic_root(p, Fraction(2), Fraction(3)).as_rational() == 2
        assert real_algebraic_root(p, Fraction(9, 5), Fraction(2)).as_rational() == 2
        q = P([-1, 1]) * P([-3, 0, 1])  # roots 1 and +-sqrt3
        for poly, lo, hi in [(p, 1, 2), (p, Fraction(3, 2), 2), (p, -2, 2),
                             (q, 1, 2), (q, -2, 1)]:
            with pytest.raises(AlgebraicError, match="single root"):
                real_algebraic_root(poly, Fraction(lo), Fraction(hi))
        with pytest.raises(AlgebraicError, match="single root"):
            real_algebraic_root(p, Fraction(2), Fraction(-2))
        with pytest.raises(AlgebraicError, match="does not vanish"):
            real_algebraic_root(p, Fraction(3), Fraction(3))


def _sympy_factors(p):
    """factor_int_poly's contract, computed by sympy directly."""
    import sympy

    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(p.coeffs)), x).factor_list()
    out = [(P([int(c) for c in reversed(f.all_coeffs())]).primitive(), int(m))
           for f, m in factors]
    return sorted(((f, m) for f, m in out if f.degree >= 1),
                  key=lambda fm: (fm[0].degree, fm[0].coeffs))


class TestLowDegreeFactoring:
    def _inputs(self, rng):
        for _ in range(400):
            # products of linear and quadratic factors: repeated roots,
            # roots at 0, content, either sign and non-unit leading terms
            p = P([rng.choice([-1, 1]) * rng.choice([1, 1, 2, 6])])
            degree = rng.randint(0, 3)
            while p.degree < degree:
                d = min(rng.choice([1, 1, 2]), degree - p.degree)
                p = p * P([rng.randint(-5, 5) for _ in range(d)]
                          + [rng.choice([-3, -2, -1, 1, 2, 3])])
            yield p
            yield _random_poly(rng, rng.randint(1, 3), bound=rng.choice([3, 40]))
        yield from (P([0, 0, 0, 1]), P([-5]), P([0, 0, 4]), P([2, -4, 2]),
                    P([-1, 3, -3, 1]), P([-16384, 0, 0, 1]))

    def test_matches_sympy_without_calling_it(self, monkeypatch):
        import sympy

        factor_int_poly.cache_clear()
        rng = random.Random(53)
        cases = [(p, _sympy_factors(p)) for p in self._inputs(rng)]

        def refuse(self, *args, **kwargs):
            raise AssertionError("degree <= 3 was factored by sympy")

        monkeypatch.setattr(sympy.Poly, "factor_list", refuse)
        split = 0
        for p, expected in cases:
            assert factor_int_poly(p) == tuple(expected), p.coeffs
            split += len(expected) > 1 or any(m > 1 for _, m in expected)
        assert split >= 200

    def test_large_coefficients_go_to_sympy(self, monkeypatch):
        import sympy

        calls = []
        factor_list = sympy.Poly.factor_list

        def spy(self, *args, **kwargs):
            calls.append(self)
            return factor_list(self, *args, **kwargs)

        monkeypatch.setattr(sympy.Poly, "factor_list", spy)
        factor_int_poly.cache_clear()
        # constant and leading coefficients beyond trial division
        p = P([-20011, 1]) * P([1, 0, 1])
        assert factor_int_poly(p) == ((P([-20011, 1]), 1), (P([1, 0, 1]), 1))
        assert factor_int_poly(P([1, 0, 0, 30000])) == ((P([1, 0, 0, 30000]), 1),)
        assert len(calls) == 2


class TestFactorMemo:
    def test_equals_an_uncached_factorization(self):
        uncached = factor_int_poly.__wrapped__
        assert factor_int_poly.cache_info().maxsize == algebraic.MEMO_SIZE
        rng = random.Random(61)
        inputs = [_random_poly(rng, rng.randint(1, 6), bound=rng.choice([3, 40]))
                  for _ in range(150)]
        inputs += [_random_poly(rng, 2) * _random_poly(rng, rng.randint(2, 3))
                   for _ in range(30)]
        factor_int_poly.cache_clear()
        for p in inputs + inputs:  # the second round is answered by the memo
            assert factor_int_poly(p) == uncached(p), p.coeffs
        assert factor_int_poly.cache_info().hits >= len(inputs)
        assert sum(len(factor_int_poly(p)) > 1 for p in inputs if p.degree >= 4) >= 20

    def test_a_caller_cannot_change_the_memo(self):
        p = P([-2, 0, 1]) * P([-3, 0, 1]) * P([1, 1])
        first = factor_int_poly(p)
        expected = factor_int_poly.__wrapped__(p)
        assert type(first) is tuple and first == expected
        with pytest.raises(AttributeError):
            first.append((P([0, 1]), 5))
        with pytest.raises(TypeError):
            first[0] = (P([0, 1]), 5)
        with pytest.raises(TypeError):
            first[0][1] = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            first[0][0].coeffs = (1,)
        assert factor_int_poly(p) is first


class TestPolynomialMemos:
    def _inputs(self, seed):
        rng = random.Random(seed)
        inputs = [_random_poly(rng, rng.randint(1, 6), sparse=rng.random() < 0.3)
                  for _ in range(120)]
        # repeated factors, so the squarefree part is a proper divisor
        inputs += [(q := _random_poly(rng, rng.randint(1, 3))) * q
                   * _random_poly(rng, rng.randint(1, 2)) for _ in range(20)]
        return inputs

    def test_sturm_chains_equal_fresh_ones_and_cannot_be_mutated(self):
        fresh = sturm_chain.__wrapped__
        assert sturm_chain.cache_info().maxsize == algebraic.MEMO_SIZE
        inputs = self._inputs(73)
        sturm_chain.cache_clear()
        for p in inputs + inputs:  # the second round is answered by the memo
            chain = sturm_chain(p)
            assert type(chain) is tuple and chain == fresh(p), p.coeffs
            assert chain[0] == p
        assert sturm_chain.cache_info().hits >= len(inputs)
        chain = sturm_chain(inputs[0])
        with pytest.raises(AttributeError):
            chain.append(P([1]))
        with pytest.raises(TypeError):
            chain[0] = P([1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            chain[0].coeffs = (1,)
        assert sturm_chain(inputs[0]) == fresh(inputs[0])

    def test_squarefree_parts_equal_fresh_ones(self):
        memo = IntPolynomial.squarefree_part
        fresh = memo.__wrapped__
        assert memo.cache_info().maxsize == algebraic.MEMO_SIZE
        inputs = self._inputs(79)
        memo.cache_clear()
        for p in inputs + inputs:
            assert p.squarefree_part() == fresh(p), p.coeffs
        assert memo.cache_info().hits >= len(inputs)
        assert sum(p.squarefree_part().degree < p.degree for p in inputs) >= 20


def _random_context(rng, degree, monic):
    """Q(alpha) for the largest real root alpha of a random irreducible
    polynomial of this degree, monic or with a leading coefficient > 1."""
    while True:
        lead = 1 if monic else rng.randint(2, 5)
        p = P([rng.randint(-9, 9) for _ in range(degree)] + [lead]).primitive()
        if p.degree != degree or factor_int_poly(p) != ((p, 1),):
            continue
        roots = isolate_real_roots(p)
        if roots:
            return NumberFieldContext.from_real_algebraic(roots[-1])


def _random_coords(rng, degree):
    """Rational coordinates with assorted denominators, often zero."""
    return [Fraction(0) if rng.random() < 0.3 else
            Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 6, 9, 35]))
            for _ in range(degree)]


def _coords(ctx, x):
    """The coordinates of an int, a Fraction or an element, as Fractions."""
    if isinstance(x, (int, Fraction)):
        return [Fraction(x)] + [Fraction(0)] * (ctx.degree - 1)
    return list(x.coords)


def _ref_mul(ctx, a, b):
    """The coordinates of a * b by a schoolbook product in Fractions and
    division by the minimal polynomial: no integer kernel involved."""
    d, m = ctx.degree, ctx.minpoly.coeffs
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(_coords(ctx, a)):
        for j, y in enumerate(_coords(ctx, b)):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i] / m[-1]
        for j in range(d + 1):
            prod[i - d + j] -= c * m[j]
    return prod[:d]


def _ref_sum(ctx, coord_lists):
    return [sum(cs, Fraction(0)) for cs in zip(*coord_lists)]


class TestFieldKernels:
    """The lean operators and the fused kernels equal a per-element
    Fraction reference, exactly, on random contexts of degree 1 to 3,
    monic and not."""

    CASES = [(d, monic, seed) for d in (1, 2, 3) for monic in (True, False)
             for seed in range(3)]

    def _setup(self, d, monic, seed):
        rng = random.Random(1000 * d + 10 * monic + seed)
        return rng, _random_context(rng, d, monic)

    def _entry(self, rng, ctx, kinds=("int", "fraction", "field")):
        kind = rng.choice(kinds)
        if kind == "int":
            return rng.choice([0, rng.randint(-9, 9)])
        if kind == "fraction":
            return rng.choice([Fraction(0), Fraction(rng.randint(-9, 9),
                                                     rng.randint(1, 12))])
        return ctx.element(_random_coords(rng, ctx.degree))

    @pytest.mark.parametrize("d,monic,seed", CASES)
    def test_operators_match_the_reference(self, d, monic, seed):
        rng, ctx = self._setup(d, monic, seed)
        for _ in range(60):
            a = ctx.element(_random_coords(rng, d))
            b = ctx.element(_random_coords(rng, d))
            k = rng.randint(-12, 12)
            q = Fraction(rng.randint(-12, 12), rng.randint(1, 15))
            assert a * b == ctx.element(_ref_mul(ctx, a, b))
            for s in (k, q):
                assert a * s == s * a == ctx.element(_ref_mul(ctx, a, s))
                assert a + s == s + a == ctx.element(
                    _ref_sum(ctx, [_coords(ctx, a), _coords(ctx, s)]))
                minus = [-c for c in _coords(ctx, s)]
                assert a - s == ctx.element(_ref_sum(ctx, [_coords(ctx, a), minus]))
                assert s - a == -(a - s)
            assert a + b == ctx.element(_ref_sum(ctx, [_coords(ctx, a),
                                                       _coords(ctx, b)]))
            assert a - b == ctx.element(
                _ref_sum(ctx, [_coords(ctx, a), [-c for c in b.coords]]))
            for x in (a * b, a * k, a * q, a + k, a - k, a + b, a - b):
                # lowest terms over a positive denominator
                assert x.den > 0 and algebraic.gcd(x.den, *x.nums) == 1

    @pytest.mark.parametrize("d,monic,seed", CASES)
    def test_integer_combinations_match_the_reference(self, d, monic, seed):
        rng, ctx = self._setup(d, monic, seed)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[rng.choice([0, 0, rng.randint(-6, 6)]) for _ in range(n)]
                    for _ in range(rng.randint(1, 4))]
            vec = [self._entry(rng, ctx) for _ in range(n)]
            vec[rng.randrange(n)] = self._entry(rng, ctx, ("field",))
            want = [ctx.element(_ref_sum(ctx, [_ref_mul(ctx, c, x)
                                               for c, x in zip(row, vec)]))
                    for row in rows]
            assert integer_combinations(rows, vec) == want
            # Fractions and ints alone: the same values, of their own types
            plain = [x.coords[0] if not isinstance(x, (int, Fraction)) else x
                     for x in vec]
            got = integer_combinations(rows, plain)
            assert got == [sum((c * x for c, x in zip(row, plain)), Fraction(0))
                           for row in rows]
            ints = [rng.randint(-9, 9) for _ in range(n)]
            got = integer_combinations(rows, ints)
            assert all(type(x) is int for x in got)
            assert got == [sum(c * x for c, x in zip(row, ints)) for row in rows]

    @pytest.mark.parametrize("d,monic,seed", CASES)
    def test_sub_scaled_matches_the_reference(self, d, monic, seed):
        rng, ctx = self._setup(d, monic, seed)
        for _ in range(30):
            n = rng.randint(1, 5)
            v = [self._entry(rng, ctx, ("field",)) for _ in range(n)]
            w = [self._entry(rng, ctx, ("field",)) for _ in range(n)]
            w[rng.randrange(n)] = ctx.zero()
            f = self._entry(rng, ctx, ("field",))
            want = [ctx.element(_ref_sum(ctx, [_coords(ctx, a),
                                               [-c for c in _ref_mul(ctx, f, b)]]))
                    for a, b in zip(v, w)]
            got = sub_scaled(v, f, w)
            assert got == want
            # an entry over a zero of w is the entry of v itself
            assert all(g is a for g, a, b in zip(got, v, w) if b.is_zero())
            # a rational factor takes the elements' own arithmetic
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert sub_scaled(v, q, w) == [a - q * b for a, b in zip(v, w)]

    @pytest.mark.parametrize("d,monic,seed", CASES)
    def test_linear_combination_matches_the_reference(self, d, monic, seed):
        rng, ctx = self._setup(d, monic, seed)
        for _ in range(20):
            n, width = rng.randint(1, 6), rng.randint(1, 3)
            vectors = [[self._entry(rng, ctx, ("field",)) for _ in range(width)]
                       for _ in range(n)]
            # zero coefficients stand for a certificate's padding
            coeffs = [ctx.zero() if rng.random() < 0.4 else
                      self._entry(rng, ctx, ("field",)) for _ in range(n)]
            want = [ctx.element(_ref_sum(ctx, [_ref_mul(ctx, c, v[r])
                                               for c, v in zip(coeffs, vectors)]))
                    for r in range(width)]
            assert linear_combination(ctx, coeffs, vectors) == want
        zeros = [ctx.zero()] * 2
        assert linear_combination(ctx, zeros, [[ctx.one()] * 3] * 2) == \
            [ctx.zero()] * 3

    def test_kernels_refuse_mixed_contexts(self):
        sqrt2 = isolate_real_roots(P([-2, 0, 1]))[1]
        c1 = NumberFieldContext.from_real_algebraic(sqrt2)
        c2 = NumberFieldContext.from_real_algebraic(sqrt2)
        a, b = c1.generator(), c2.generator()
        with pytest.raises(ContextMismatchError):
            integer_combinations([[1, 1]], [a, b])
        with pytest.raises(ContextMismatchError):
            sub_scaled([a], a, [b])
        with pytest.raises(ContextMismatchError):
            linear_combination(c1, [a], [[b]])
        with pytest.raises(ContextMismatchError):
            a * b


class TestRefine:
    def test_same_intervals_as_a_two_sign_halving(self):
        rng = random.Random(67)
        checked = 0
        while checked < 60:
            p = _random_poly(rng, rng.randint(2, 6), bound=rng.choice([3, 40]))
            if len(factor_int_poly(p)) != 1 or factor_int_poly(p)[0][1] != 1:
                continue  # an irreducible p, up to its content
            for r in isolate_real_roots(p):
                lo, hi = r.interval()
                expected = two_sign_halvings(list(r.minpoly.coeffs), lo, hi, 40)
                got = []
                for _ in range(40):
                    r.refine()
                    got.append(r.interval())
                assert got == expected, p.coeffs
                checked += 1
