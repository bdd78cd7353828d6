import random
from fractions import Fraction

import pytest

from jsrcert.algebraic import IntPolynomial, NumberFieldContext, isolate_real_roots
from jsrcert.linalg import add_to_basis, kernel

from oracles import inverse, matmul, rank

SQRT2 = NumberFieldContext.from_real_algebraic(
    isolate_real_roots(IntPolynomial.make([-2, 0, 1]))[1])


def _rational(a, b):
    return Fraction(a)


def _sqrt2(a, b):
    return SQRT2.element([a, b])


def _sqrt2_rank(M):
    # a + b*sqrt2 acts on Q^2 = Q(sqrt2) as [[a, 2b], [b, a]]; the
    # regular representation doubles the rank
    rows = []
    for row in M:
        for k in range(2):
            out = []
            for e in row:
                a, b = e.coords
                out += [a, 2 * b] if k == 0 else [b, a]
            rows.append(out)
    return rank(rows) // 2


FIELDS = [(_rational, rank), (_sqrt2, _sqrt2_rank)]


def _random_matrix(rng, make, n, m, low_rank=False):
    """Entries a + b*sqrt2 with small integers a, b (b is ignored over Q);
    low_rank repeats a combination of earlier rows."""
    M = [[make(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(m)]
         for _ in range(n)]
    if low_rank and n > 1:
        c = make(rng.randint(-2, 2), rng.randint(-1, 1))
        M[-1] = [x + c * y for x, y in zip(M[0], M[1 % (n - 1)])]
    return M


def _is_zero_vec(v):
    return all(c == 0 for c in v)


@pytest.mark.parametrize("make,rank_of", FIELDS)
class TestKernel:
    def test_kernel_vectors_are_annihilated(self, make, rank_of):
        rng = random.Random(1)
        for n, m in [(2, 2), (3, 3), (2, 3), (3, 2), (3, 4)]:
            for low in (False, True):
                M = _random_matrix(rng, make, n, m, low)
                basis = kernel(M)
                for v in basis:
                    assert not _is_zero_vec(v)
                    image = matmul(M, [[c] for c in v])
                    assert _is_zero_vec(row[0] for row in image)
                assert len(basis) == m - rank_of(M)

    def test_free_column_basis(self, make, rank_of):
        one, zero = make(1, 0), make(0, 0)
        # columns 0 and 2 are free: kernel vectors carry 1 there and 0 at
        # the other free column
        M = [[zero, one, zero], [zero, zero, zero]]
        assert kernel(M) == [[one, zero, zero], [zero, zero, one]]


@pytest.mark.parametrize("make,rank_of", FIELDS)
class TestSolveInverse:
    def test_inverse_and_solve_on_nonsingular(self, make, rank_of):
        rng = random.Random(2)
        done = 0
        while done < 12:
            n = rng.randint(1, 4)
            A = _random_matrix(rng, make, n, n)
            if rank_of(A) < n:
                assert inverse(A) is None
                continue
            Ainv = inverse(A)
            eye = matmul(A, Ainv)
            for i in range(n):
                for j in range(n):
                    assert eye[i][j] == int(i == j)
            done += 1

    def test_singular_returns_none(self, make, rank_of):
        rng = random.Random(3)
        for n in (2, 3, 4):
            A = _random_matrix(rng, make, n, n, low_rank=True)
            assert rank_of(A) < n
            assert inverse(A) is None


def _integer(a, b):
    return a


@pytest.mark.parametrize("make,rank_of", FIELDS + [(_integer, rank)])
def test_add_to_basis_counts_rank(make, rank_of):
    rng = random.Random(4)
    for _ in range(20):
        vecs = _random_matrix(rng, make, rng.randint(1, 5), 3,
                              low_rank=rng.random() < 0.5)
        basis = []
        grew = [add_to_basis(basis, v) for v in vecs]
        assert sum(grew) == len(basis) == rank_of(vecs)
        # fraction-free elimination keeps integers integers
        assert all(type(c) is type(vecs[0][0]) for b in basis for c in b)
