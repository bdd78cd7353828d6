import itertools
import random
from fractions import Fraction

import pytest

from jsrcert.algebraic import Ordering, RealAlgebraic, compare, nth_root
from jsrcert.matcore import (
    IntMatrix,
    MatrixFamily,
    Product,
    evaluate,
    spectral_radius,
    two_norm_sq,
)
from jsrcert import smp
from jsrcert.reduce import (
    Outcome,
    PairCode,
    canonical_key,
    decode,
    enumerate_campaign,
    quick_decide,
)
from jsrcert.smp import (
    _assemble_candidates,
    _rayleigh_lower,
    _scalar_multiple,
    canonical_word,
    gripenberg_search,
)

M = IntMatrix.make

# sqrt2-scaled showcase pair (3x3, integer forms)
B1 = M([[0, 0, -1], [0, 0, 0], [0, 1, 0]])
B2 = M([[1, 0, -1], [0, 0, -1], [-1, 0, -1]])

# the 2x2 mixed-sign demo pair
T1 = M([[0, 1], [0, 1]])
T2 = M([[1, 0], [1, -1]])


def _times(k, A):
    return M([[k * v for v in r] for r in A.rows])


class TestCanonicalWord:
    def test_rotation(self):
        assert canonical_word((2, 1, 2)) == (1, 2, 2)

    def test_primitive_root(self):
        assert canonical_word((1, 2, 1, 2)) == (1, 2)

    def test_brute_force_oracle(self):
        # oracle: minimum over all rotations of all power-roots
        def oracle(w):
            n = len(w)
            best = None
            for d in range(1, n + 1):
                if n % d == 0 and w == w[:d] * (n // d):
                    for i in range(d):
                        r = w[:d][i:] + w[:d][:i]
                        if best is None or r < best:
                            best = r
            return best

        rng = random.Random(1)
        for _ in range(200):
            w = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 6)))
            assert canonical_word(w) == oracle(w)
        assert canonical_word((2, 2, 1, 2, 2, 1)) == oracle((2, 2, 1, 2, 2, 1)) == (1, 2, 2)

    def test_idempotent_and_constant_on_cyclic_classes(self):
        rng = random.Random(2)
        for _ in range(100):
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 8)))
            c = canonical_word(w)
            assert canonical_word(c) == c
            for i in range(len(w)):
                assert canonical_word(w[i:] + w[:i]) == c

    def test_canonicalize_product(self):
        # a tying product is kept in its canonical rotation
        fam = MatrixFamily.make([T1, T2])
        (c,) = _assemble_candidates([evaluate((2, 1, 2), fam)], fam)
        assert c.word == (1, 2, 2)
        assert c.value == evaluate((1, 2, 2), fam).value


class TestGripenbergShowcase3x3:
    def test_only_smp_is_second_matrix(self):
        fam = MatrixFamily.make([B1, B2])
        cs = gripenberg_search(fam, max_depth=8)
        assert cs.exhausted
        # lambda = sqrt2 (the scaled family's radius is 1)
        assert compare(cs.lambda_,
                       nth_root(RealAlgebraic.from_rational(2), 2)) == Ordering.EQUAL
        assert [c.word for c in cs.candidates] == [(2,)]


class TestGripenbergDemo2x2:
    def test_both_single_letters_are_candidates(self):
        fam = MatrixFamily.make([T1, T2])
        cs = gripenberg_search(fam, max_depth=8)
        assert cs.exhausted
        assert cs.lambda_.as_rational() == 1
        assert [c.word for c in cs.candidates] == [(1,), (2,)]

    def test_singleton_family(self):
        fam = MatrixFamily.make([T2])
        cs = gripenberg_search(fam, max_depth=5)
        assert cs.exhausted
        assert cs.lambda_.as_rational() == 1
        assert [c.word for c in cs.candidates] == [(1,)]


class TestGripenbergBinaryPairs:
    def test_f2_pair_smp_length_five(self):
        # norm averages decay slowly here; the tree closes at depth 14
        fam = MatrixFamily.make([[[0, 1], [0, 0]], [[1, 0], [1, 1]]],
                                alphabet="binary")
        cs = gripenberg_search(fam, max_depth=14)
        assert cs.exhausted
        # lambda^5 = 4 exactly
        assert compare(cs.lambda_.pow(5), RealAlgebraic.from_rational(4)) == Ordering.EQUAL
        assert canonical_word((2, 2, 2, 2, 1)) in {c.word for c in cs.candidates}

    def test_lambda_monotone_in_depth(self):
        fam = MatrixFamily.make([[[0, 1], [0, 0]], [[1, 0], [1, 1]]],
                                alphabet="binary")
        prev = None
        for depth in (1, 2, 3, 5, 7):
            cs = gripenberg_search(fam, max_depth=depth)
            if prev is not None:
                assert compare(cs.lambda_, prev) != Ordering.LESS
            prev = cs.lambda_

    def test_sandwich_certified_by_exhaustive_enumeration(self):
        # for exhausted searches no product of length <= 8 beats lambda
        rng = random.Random(23)
        pairs_checked = 0
        while pairs_checked < 12:
            A = M([[rng.randint(0, 1) for _ in range(2)] for _ in range(2)])
            B = M([[rng.randint(0, 1) for _ in range(2)] for _ in range(2)])
            if A.is_zero() and B.is_zero():
                continue
            fam = MatrixFamily.make([A, B], alphabet="binary")
            cs = gripenberg_search(fam, max_depth=8)
            if not cs.exhausted:
                continue
            lam5 = None
            for n in range(1, 9):
                for word in itertools.product((1, 2), repeat=n):
                    rho = spectral_radius(evaluate(word, fam).value).value
                    # rho^(1/n) <= lambda  <=>  rho <= lambda^n
                    assert compare(rho, cs.lambda_.pow(n)) != Ordering.GREATER
            pairs_checked += 1

    def test_zero_family(self):
        fam = MatrixFamily.make([IntMatrix.zero(2)])
        cs = gripenberg_search(fam, max_depth=4)
        assert cs.lambda_.as_rational() == 0
        assert cs.exhausted


class TestSymmetryInvariance:
    def test_lambda_invariant_under_group_images(self):
        rng = random.Random(31)
        perms = list(itertools.permutations(range(2)))
        for _ in range(8):
            A = M([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
            B = M([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
            if A.is_zero() and B.is_zero():
                continue
            fam = MatrixFamily.make([A, B])
            lam = gripenberg_search(fam, max_depth=6).lambda_
            images = [
                MatrixFamily.make([B, A]),
                MatrixFamily.make([A.transpose(), B.transpose()]),
                MatrixFamily.make([-A, B]),
                MatrixFamily.make([-A, -B]),
            ]
            for p in perms:
                Pm = M([[int(p[i] == j) for j in range(2)] for i in range(2)])
                images.append(MatrixFamily.make(
                    [Pm.transpose() @ A @ Pm, Pm.transpose() @ B @ Pm]))
            for g in images:
                lam2 = gripenberg_search(g, max_depth=6).lambda_
                assert compare(lam, lam2) == Ordering.EQUAL


def _signed_permutations(n):
    for p in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield M([[signs[i] * int(p[i] == j) for j in range(n)]
                     for i in range(n)])


def _tree(cs):
    """A search result apart from its count of exact 2-norms."""
    return ([(c.word, c.value) for c in cs.candidates], cs.lambda_.serialize(),
            cs.nodes_visited, cs.frobenius_prunes, cs.two_norm_prunes,
            cs.radius_checks, cs.depth_reached, cs.exhausted)


def _searched_families():
    """The pairs a campaign searches: those no quick lemma settles;
    3/108, 3/169 and 16/43 each prune a node by its exact 2-norm."""
    rng = random.Random(1996)
    codes = list(enumerate_campaign("binary", 2))
    codes += [PairCode(3, a2, 3, "binary")
              for a2 in [108, 169] + rng.sample(range(512), 40)]
    codes += [PairCode(a1, a2, 2, "sign") for a1, a2 in
              [(16, 43), (16, 49)] + [(rng.randrange(81), rng.randrange(81))
                                      for _ in range(50)]]
    pairs = [(decode(c), c.alphabet) for c in codes]
    return [MatrixFamily.make(list(p), a) for p, a in pairs
            if quick_decide(p).outcome is Outcome.NEEDS_IPA]


class TestRayleighGate:
    def test_lower_bound_never_exceeds_the_two_norm(self):
        rng = random.Random(5)
        for n in range(300):
            dim = 1 + n % 3
            A = M([[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])
            assert compare(_rayleigh_lower(A), two_norm_sq(A)) != Ordering.GREATER

    def test_equality_for_orthogonal_sign_matrices(self):
        # Q^T Q = c I: every vector is a top eigenvector of Q^T Q
        mats = [Q for n in (1, 2, 3) for Q in _signed_permutations(n)]
        mats += [M([[1, 1], [1, -1]]), M([[1, -1], [1, 1]])]
        for Q in mats:
            assert compare(_rayleigh_lower(Q), two_norm_sq(Q)) == Ordering.EQUAL

    def test_search_is_the_same_without_the_gate(self, monkeypatch):
        families = _searched_families()
        assert len(families) > 50
        gated = [gripenberg_search(f) for f in families]
        monkeypatch.setattr(smp, "_rayleigh_lower", lambda A: Fraction(0))
        plain = [gripenberg_search(f) for f in families]
        assert [_tree(cs) for cs in gated] == [_tree(cs) for cs in plain]
        assert sum(cs.two_norm_prunes for cs in gated) >= 3
        assert sum(cs.two_norm_checks for cs in gated) < \
            sum(cs.two_norm_checks for cs in plain)


class TestTiedProducts:
    def test_search_is_the_same_without_the_skip(self, monkeypatch):
        # a child tying the best can fail no norm test, so skipping the
        # tests changes nothing but the count of exact 2-norms
        families = _searched_families()
        skipping = [gripenberg_search(f) for f in families]
        monkeypatch.setattr(smp, "_ties_best", lambda word, tied: False)
        testing = [gripenberg_search(f) for f in families]
        assert [_tree(cs) for cs in skipping] == [_tree(cs) for cs in testing]
        assert sum(cs.two_norm_checks for cs in skipping) < \
            sum(cs.two_norm_checks for cs in testing)

    def test_powers_of_a_symmetric_smp_need_no_two_norm(self, monkeypatch):
        # F3 3/426: the s.m.p. is the symmetric A2, and ||A2^k||_2 =
        # rho(A2)^k, so none of A2^2, ..., A2^10 can be pruned
        fam = MatrixFamily.make(list(decode(PairCode(3, 426, 3, "binary"))),
                                "binary")
        cs = gripenberg_search(fam)
        assert [c.value for c in cs.candidates] == [fam[1]]
        assert fam[1] == fam[1].transpose()
        assert (cs.nodes_visited, cs.two_norm_checks) == (11, 0)
        monkeypatch.setattr(smp, "_ties_best", lambda word, tied: False)
        cs = gripenberg_search(fam)
        assert (cs.nodes_visited, cs.two_norm_checks) == (11, 9)


class TestNecklaceMemo:
    @staticmethod
    def _summary(cs):
        return ([(c.word, c.value) for c in cs.candidates], cs.lambda_.serialize(),
                cs.nodes_visited, cs.frobenius_prunes, cs.two_norm_prunes,
                cs.two_norm_checks, cs.depth_reached, cs.exhausted)

    def test_search_is_the_same_as_with_one_radius_per_word(self, monkeypatch):
        # the orbit representatives of full F2, F2s with first codes 1, 4,
        # 5 and 16, and F3 A1=3 that no quick lemma settles
        codes = list(enumerate_campaign("binary", 2))
        codes += [c for c in enumerate_campaign("sign", 2) if c.a1 in (1, 4, 5, 16)]
        codes += [PairCode(3, a2, 3, "binary") for a2 in range(512)]
        families = {}
        for c in codes:
            rep = canonical_key(decode(c), c.alphabet)
            pair = decode(rep)
            if rep not in families and \
                    quick_decide(pair).outcome is Outcome.NEEDS_IPA:
                families[rep] = MatrixFamily.make(list(pair), c.alphabet)
        assert len(families) > 300
        runs = [(f, depth) for f in families.values() for depth in (10, 14)]
        memo = [gripenberg_search(f, max_depth=depth) for f, depth in runs]
        monkeypatch.setattr(smp, "_necklace", lambda word: word)
        plain = [gripenberg_search(f, max_depth=depth) for f, depth in runs]
        assert [self._summary(cs) for cs in memo] == \
            [self._summary(cs) for cs in plain]
        # keyed by the word itself, every node computes its radius
        assert all(cs.radius_checks == cs.nodes_visited for cs in plain)
        fewer = sum(m.radius_checks < p.radius_checks for m, p in zip(memo, plain))
        assert 2 * fewer > len(runs)

    def test_a_rotation_or_power_of_a_registered_word_is_skipped(self):
        # {A, B}: level 2 holds AB and BA (one necklace) and AA, BB (powers
        # of the letters), so 6 nodes need 3 radii at depth 2
        fam = MatrixFamily.make([T1, T2])
        cs = gripenberg_search(fam, max_depth=2)
        assert cs.nodes_visited == 6 and cs.radius_checks == 3


class TestScalarMultiple:
    @staticmethod
    def _oracle(A, B):
        ratios = set()
        for a, b in zip(A.flat(), B.flat()):
            if b == 0:
                if a != 0:
                    return None
            else:
                ratios.add(Fraction(a, b))
        if len(ratios) > 1:
            return None
        return ratios.pop() if ratios else Fraction(0)

    def test_agrees_with_a_fraction_oracle(self):
        rng = random.Random(7)
        zero = IntMatrix.zero(3)
        cases = [(zero, zero), (B1, zero), (zero, B1), (_times(-2, B1), B1),
                 (B1, _times(-2, B1)), (_times(3, B2), _times(2, B2)),
                 (M([[0, 0, 0], [2, 4, 6], [0, 0, 0]]),
                  M([[0, 0, 0], [3, 6, 9], [0, 0, 0]])),
                 (M([[0, 0, 0], [2, 4, 6], [0, 0, 1]]),
                  M([[0, 0, 0], [3, 6, 9], [0, 0, 0]]))]
        for _ in range(400):
            dim = rng.randint(1, 3)
            B = M([[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(dim)]
                   for _ in range(dim)])
            p, q = rng.randint(-4, 4), rng.randint(1, 3)
            A = _times(p, B)
            if rng.random() < 0.5:  # a non-multiple, or a multiple by p/q
                i, j = rng.randrange(dim), rng.randrange(dim)
                rows = [list(r) for r in A.rows]
                rows[i][j] += rng.choice((-1, 1))
                A = M(rows)
            cases.append((A, _times(q, B)))
        for A, B in cases:
            assert _scalar_multiple(A, B) == self._oracle(A, B), (A, B)
        found = [_scalar_multiple(A, B) for A, B in cases]
        assert any(c is not None and c < 0 for c in found)
        assert any(c is not None and c.denominator > 1 for c in found)
