import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from jsrcert.algebraic import Ordering, RealAlgebraic, compare, nth_root
from jsrcert.matcore import IntMatrix, MatrixFamily, evaluate, spectral_radius
from jsrcert.reduce import (
    BlockDecomposition,
    Outcome,
    PairCode,
    Reason,
    canonical_key,
    decode,
    encode,
    enumerate_campaign,
    NORM_CHECK_DEPTH,
    _has_common_eigenvector,
    _is_irreducible,
    _norm_at_most_one,
    _norm_bounded_by_one,
    _products,
    irreducible,
    pair_transforms,
    quick_decide,
)
from jsrcert.smp import gripenberg_search

from oracles import algebra_dimension, rank, split_reference

M = IntMatrix.make


class TestCoding:
    def test_appendix_pair_3_477(self):
        code = PairCode(3, 477, 3, "binary")
        A, B = decode(code)
        assert A == M([[0, 0, 0], [0, 0, 1], [0, 0, 1]])
        assert B == M([[1, 0, 1], [1, 1, 0], [1, 1, 1]])
        assert encode((A, B), "binary") == code

    def test_zero_pair(self):
        A, B = decode(PairCode(0, 0, 2, "binary"))
        assert A.is_zero() and B.is_zero()

    def test_dim2_binary_6_9_base2_oracle(self):
        # oracle: digits of 6 = 0110 and 9 = 1001 read column-major
        A, B = decode(PairCode(6, 9, 2, "binary"))
        assert A == M([[0, 1], [1, 0]])
        assert B == M([[1, 0], [0, 1]])

    def test_round_trip_random(self):
        rng = random.Random(7)
        for alphabet, dim in (("binary", 2), ("binary", 3), ("sign", 2)):
            top = (2 if alphabet == "binary" else 3) ** (dim * dim)
            for _ in range(50):
                c = PairCode(rng.randrange(top), rng.randrange(top), dim, alphabet)
                assert encode(decode(c), alphabet) == c

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PairCode(256, 0, 2, "binary")

    def test_text_form(self):
        c = PairCode(3, 477, 3, "binary")
        assert str(c) == "3/477"
        assert PairCode.parse("3/477", 3, "binary") == c


class TestDecodeTable:
    @staticmethod
    def _reference(num, dim, digits):
        # the k-th most significant base-|digits| digit is entry
        # (k mod dim, k div dim): column-major from (1, 1)
        base, n = len(digits), dim * dim
        cells = [digits[num // base ** (n - 1 - k) % base] for k in range(n)]
        return M([[cells[j * dim + i] for j in range(dim)] for i in range(dim)])

    @pytest.mark.parametrize("alphabet,dim", [("binary", 2), ("binary", 3),
                                              ("sign", 2)])
    def test_every_code_decodes_as_the_reference(self, alphabet, dim):
        digits = (0, 1) if alphabet == "binary" else (0, 1, -1)
        top = len(digits) ** (dim * dim)
        for num in range(top):
            other = top - 1 - num
            A, B = decode(PairCode(num, other, dim, alphabet))
            assert A == self._reference(num, dim, digits)
            assert B == self._reference(other, dim, digits)

    def test_members_are_shared_per_code_dim_and_alphabet(self):
        A, B = decode(PairCode(5, 5, 2, "binary"))
        assert A is B
        assert decode(PairCode(5, 9, 2, "binary"))[0] is A
        assert decode(PairCode(5, 9, 2, "sign"))[0] != A  # digit 2 is -1


class TestEnumeration:
    def test_totals(self):
        assert sum(1 for _ in enumerate_campaign("binary", 2)) == 256
        assert sum(1 for _ in enumerate_campaign("sign", 2)) == 6561
        assert sum(1 for _ in enumerate_campaign("binary", 3)) == 262144

    def test_codes_unique(self):
        codes = list(enumerate_campaign("binary", 2))
        assert len({(c.a1, c.a2) for c in codes}) == 256


class TestCanonicalKey:
    def test_swap_and_transpose_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            A = M([[rng.randint(0, 1) for _ in range(2)] for _ in range(2)])
            B = M([[rng.randint(0, 1) for _ in range(2)] for _ in range(2)])
            k = canonical_key((A, B), "binary")
            assert canonical_key((B, A), "binary") == k
            assert canonical_key((A.transpose(), B.transpose()), "binary") == k

    def test_sign_negation_invariance(self):
        rng = random.Random(5)
        for _ in range(20):
            A = M([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
            B = M([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
            k = canonical_key((A, B), "sign")
            assert canonical_key((-A, B), "sign") == k
            assert canonical_key((A, -B), "sign") == k
            assert canonical_key((-A, -B), "sign") == k

    def test_orbit_count_dim2_binary_frozen(self):
        # regression value 58 computed by an independent union-find orbit
        # enumeration over explicit group images (swap x transpose x perm)
        reps = set()
        for code in enumerate_campaign("binary", 2):
            k = canonical_key(decode(code), "binary")
            reps.add((k.a1, k.a2))
        assert len(reps) == 58

    def test_canonical_is_orbit_minimum(self):
        rng = random.Random(11)
        for _ in range(10):
            A = M([[rng.randint(0, 1) for _ in range(2)] for _ in range(2)])
            B = M([[rng.randint(0, 1) for _ in range(2)] for _ in range(2)])
            k = canonical_key((A, B), "binary")
            for t in pair_transforms(2, "binary"):
                img = encode(t((A, B)), "binary")
                assert (k.a1, k.a2) <= (img.a1, img.a2)


class TestQuickDecide:
    def test_zero_member(self):
        A = M([[1, 1], [0, 1]])
        v = quick_decide((A, IntMatrix.zero(2)))
        assert v.outcome is Outcome.SETTLED and v.reason is Reason.ZERO
        assert v.jsr.as_rational() == 1

    def test_identity_pair_normal(self):
        I = IntMatrix.identity(2)
        v = quick_decide((I, I))
        assert v.outcome is Outcome.SETTLED
        assert v.reason in (Reason.DOMINATED, Reason.NORMAL, Reason.SUB_IDENTITY)
        assert v.jsr.as_rational() == 1

    def test_dominated(self):
        A = M([[1, 1], [1, 1]])
        B = M([[1, 0], [0, 1]])
        v = quick_decide((A, B))
        assert v.outcome is Outcome.SETTLED
        assert v.jsr.as_rational() == 2

    def test_nilpotent_swap_pair_settles_at_one(self):
        # {[0 1;0 0],[0 0;1 0]}: corollaries fail, but all products have
        # entries in {0,1} and a product reaches spectral radius 1
        A = M([[0, 1], [0, 0]])
        B = M([[0, 0], [1, 0]])
        v = quick_decide((A, B))
        assert v.outcome is Outcome.SETTLED and v.reason is Reason.INTEGER_LEQ_ONE
        assert v.jsr.as_rational() == 1
        # the witness word attains radius 1 exactly
        fam = MatrixFamily.make([A, B])
        rho = spectral_radius(evaluate(v.smp_word, fam).value).value
        assert rho.as_rational() == 1

    def test_settled_verdicts_reverify(self):
        # every settled verdict's claimed jsr is attained by its witness word
        rng = random.Random(13)
        settled = 0
        for _ in range(60):
            A = M([[rng.randint(0, 1) for _ in range(2)] for _ in range(2)])
            B = M([[rng.randint(0, 1) for _ in range(2)] for _ in range(2)])
            v = quick_decide((A, B))
            if v.outcome is not Outcome.SETTLED:
                continue
            settled += 1
            fam = MatrixFamily.make([A, B])
            rho = spectral_radius(evaluate(v.smp_word, fam).value).value
            n = len(v.smp_word)
            assert compare(rho, v.jsr.pow(n)) == Ordering.EQUAL
        assert settled >= 20

    def test_fibonacci_like_needs_ipa(self):
        A = M([[1, 1], [0, 1]])
        B = M([[1, 0], [1, 1]])
        v = quick_decide((A, B))
        assert v.outcome is Outcome.NEEDS_IPA


@lru_cache(maxsize=None)
def _representatives(alphabet, dim):
    """The orbit minima of a campaign, found by marking each new code's
    whole orbit as seen."""
    transforms = pair_transforms(dim, alphabet)
    seen, reps = set(), []
    for code in enumerate_campaign(alphabet, dim):
        if (code.a1, code.a2) in seen:
            continue
        reps.append(code)
        pair = decode(code)
        for t in transforms:
            image = encode(t(pair), alphabet)
            seen.add((image.a1, image.a2))
    return reps


def _f3_sample():
    rng = random.Random(1729)
    return [PairCode(a1, a2, 3, "binary")
            for a1, a2 in ((rng.randrange(512), rng.randrange(512))
                           for _ in range(400))]


def _norm_bounded_reference(pair):
    """`_norm_bounded_by_one` with every word evaluated in full."""
    fam = MatrixFamily.make(list(pair))
    for word in itertools.product((1, 2), repeat=NORM_CHECK_DEPTH):
        if not _norm_at_most_one(evaluate(word, fam).value):
            return None
    for n in range(1, NORM_CHECK_DEPTH + 1):
        for word in itertools.product((1, 2), repeat=n):
            rho = spectral_radius(evaluate(word, fam).value).value
            if rho.is_rational and rho.as_rational() == 1:
                return (1, word)
    if all(evaluate(word, fam).value.is_zero()
           for word in itertools.product((1, 2), repeat=fam.dim)):
        return (0, (1,))
    return None


class TestNormLemma:
    @pytest.mark.parametrize("alphabet", ["binary", "sign"])
    def test_prefix_products_match_full_evaluation(self, alphabet):
        codes = (list(enumerate_campaign("binary", 2)) if alphabet == "binary"
                 else _representatives("sign", 2))
        assert len(codes) == {"binary": 256, "sign": 297}[alphabet]
        verdicts = [_norm_bounded_by_one(decode(c)) for c in codes]
        assert verdicts == [_norm_bounded_reference(decode(c)) for c in codes]
        assert {v[0] for v in verdicts if v is not None} == {0, 1}

    def test_products_are_the_evaluated_words(self):
        fam = MatrixFamily.make([M([[1, 1, 0], [0, 1, 2], [1, 0, 0]]),
                                 M([[0, 1, 0], [-1, 0, 1], [0, 0, 1]]),
                                 M([[2, 0, 0], [0, 1, 1], [0, 1, 0]])])
        for n in range(1, 5):
            want = [(w, evaluate(w, fam).value)
                    for w in itertools.product((1, 2, 3), repeat=n)]
            assert list(_products(fam, n)) == want


class TestSplit:
    """The integer split against the Fraction reference of the oracles."""

    @staticmethod
    def _check(codes):
        split = 0
        for code in codes:
            A, B = decode(code)
            if _is_irreducible((A, B)):
                continue
            irr, dec = irreducible((A, B))
            assert not irr
            want = split_reference(A.rows, B.rows)
            got = dec and (dec.basis, tuple(m.rows for m in dec.sub_blocks),
                           dec.sub_scale,
                           tuple(m.rows for m in dec.quot_blocks),
                           dec.quot_scale)
            assert got == want, code
            if dec is None:
                continue
            split += 1
            # every basis vector's image stays in the span
            for v in dec.basis:
                for X in (A, B):
                    assert rank(dec.basis + [X.apply(v)]) == len(dec.basis)
        return split

    def test_f2_representatives(self):
        assert self._check(_representatives("binary", 2)) == 34

    def test_f2s_representatives(self):
        assert self._check(_representatives("sign", 2)) == 94

    def test_f3_sample(self):
        assert self._check(_f3_sample()) == 150


class TestIrreducible:
    def test_identity_pair_reducible(self):
        I = IntMatrix.identity(2)
        irr, dec = irreducible((I, I))
        assert not irr
        assert dec is not None and dec.sub_blocks[0].dim == 1

    def test_swap_pair_irreducible(self):
        A = M([[0, 1], [0, 0]])
        B = M([[0, 0], [1, 0]])
        irr, dec = irreducible((A, B))
        assert irr

    def test_triangular_pair_reducible(self):
        A = M([[1, 1], [0, 1]])
        B = M([[2, 3], [0, 1]])
        irr, dec = irreducible((A, B))
        assert not irr
        assert dec is not None
        # blocks are the diagonal entries
        subs = sorted(abs(x.rows[0][0]) for x in dec.sub_blocks)
        assert dec.sub_blocks[0].dim == 1

    def test_block_jsr_matches_full_pair(self):
        # reducible pair: full JSR equals max of block JSRs; cross-check
        # by searching both sides
        A = M([[1, 1], [0, 1]])
        B = M([[1, 0], [0, 0]])
        irr, dec = irreducible((A, B))
        assert not irr and dec is not None
        full = gripenberg_search(MatrixFamily.make([A, B]), max_depth=8)
        subs = gripenberg_search(MatrixFamily.make(list(dec.sub_blocks)), max_depth=8)
        quots = gripenberg_search(MatrixFamily.make(list(dec.quot_blocks)), max_depth=8)
        best = max([
            (subs.lambda_.scale(Fraction(1, dec.sub_scale))),
            (quots.lambda_.scale(Fraction(1, dec.quot_scale))),
        ], key=lambda r: float(r))
        assert compare(full.lambda_, best) == Ordering.EQUAL

    def test_agrees_with_product_span_rank_all_dim2_binary(self):
        # oracle: rank of the span of all products up to length 4
        def oracle_irreducible(A, B):
            mats = [IntMatrix.identity(2)]
            for n in range(1, 5):
                for w in itertools.product((1, 2), repeat=n):
                    mats.append(evaluate(w, MatrixFamily.make([A, B])).value)
            return rank([m.flat() for m in mats]) == 4

        count = 0
        for code in enumerate_campaign("binary", 2):
            A, B = decode(code)
            irr, _ = irreducible((A, B))
            assert irr == oracle_irreducible(A, B)
            count += 1
        assert count == 256


def _blockdiag(X, Y):
    n = len(X)
    rows = [list(r) + [0] * n for r in X] + [[0] * n + list(r) for r in Y]
    return M(rows)


class TestShemesh:
    """Shemesh's commutator test against the algebra closure (Burnside)."""

    @staticmethod
    def _agrees(A, B):
        want = algebra_dimension(A.rows, B.rows) == A.dim ** 2
        return _is_irreducible((A, B)) == want

    @pytest.mark.parametrize("alphabet", ["binary", "sign"])
    def test_every_dim2_pair(self, alphabet):
        codes = list(enumerate_campaign(alphabet, 2))
        assert len(codes) == {"binary": 256, "sign": 6561}[alphabet]
        assert all(self._agrees(*decode(code)) for code in codes)

    def test_random_3x3_pairs(self):
        rng = random.Random(1984)
        alphabets = [(0, 1), (-1, 0, 1), tuple(range(-3, 4))]
        reducible = 0
        for n in range(2000):
            digits = alphabets[n % 3]
            A, B = (M([[rng.choice(digits) for _ in range(3)]
                       for _ in range(3)]) for _ in range(2))
            assert self._agrees(A, B), (A, B)
            reducible += not _is_irreducible((A, B))
        assert reducible > 100

    def test_one_by_one_pair_is_irreducible(self):
        A, B = M([[2]]), M([[0]])
        assert algebra_dimension(A.rows, B.rows) == 1
        assert irreducible((A, B)) == (True, None)

    def test_dim4_pair_without_common_eigenvectors_is_reducible(self):
        # two irreducible 2x2 blocks: only planes are invariant, so
        # neither side has a common eigenvector, yet the algebra has
        # dimension 8 < 16 and the Burnside fallback must say reducible
        A = _blockdiag([[0, 1], [0, 0]], [[1, 1], [0, 1]])
        B = _blockdiag([[0, 0], [1, 0]], [[1, 0], [1, 1]])
        assert not _has_common_eigenvector(A, B)
        assert not _has_common_eigenvector(A.transpose(), B.transpose())
        assert algebra_dimension(A.rows, B.rows) == 8
        assert not _is_irreducible((A, B))
        assert not irreducible((A, B))[0]


class TestGroupActionJsrInvariance:
    def test_lambda_equal_across_orbit(self):
        rng = random.Random(17)
        checked = 0
        while checked < 10:
            A = M([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
            B = M([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
            if A.is_zero() and B.is_zero():
                continue
            lam = gripenberg_search(MatrixFamily.make([A, B]), max_depth=6).lambda_
            for t in pair_transforms(2, "sign"):
                A2, B2 = t((A, B))
                lam2 = gripenberg_search(MatrixFamily.make([A2, B2]), max_depth=6).lambda_
                assert compare(lam, lam2) == Ordering.EQUAL
            checked += 1
