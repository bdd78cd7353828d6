"""Pair enumeration, symmetry canonicalization, and quick-decision lemmas.

A pair of dim x dim matrices over a digit alphabet is addressed by two
nonnegative integers whose base-|alphabet| digits list the entries
column-major, most significant digit first: the most significant digit
is entry (1,1), the next entry (2,1), and the least significant entry
(dim,dim).

Quick decisions settle a pair without running the polytope algorithm:
entrywise domination, sub-identity, product-order comparisons (for
nonnegative alphabets), normality, bounded-norm integer families, and
common-invariant-subspace reductions.  Every verdict carries a
machine-checkable witness.

Irreducibility is decided by Shemesh's commutator test for a common
eigenvector of the pair or of its transpose, with integer elimination
only.  In dimension <= 3 that is the whole answer; above it, a pair that
passes falls back to the dimension of the matrix algebra it generates
(Burnside), which only `jsr solve` reaches.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterator, Optional

from .algebraic import (
    Ordering,
    RealAlgebraic,
    compare,
    faddeev_leverrier,
    integer_roots,
)
from .linalg import add_to_basis, kernel
from .matcore import (
    IntMatrix,
    MatrixFamily,
    char_poly,
    spectral_radius,
)

# products of this length are norm-checked by the integer <= 1 lemma
NORM_CHECK_DEPTH = 8

ALPHABETS = {
    "binary": (0, 1),
    "sign": (0, 1, -1),  # digit order: 0 -> 0, 1 -> +1, 2 -> -1
    "general": None,
}


class Reason(enum.Enum):
    ZERO = "zero"
    SUB_IDENTITY = "sub_identity"
    DOMINATED = "dominated"
    COMMUTING_ORDER = "commuting_order"
    NORMAL = "normal"
    REDUCIBLE = "reducible"
    INTEGER_LEQ_ONE = "integer_leq_one"


class Outcome(enum.Enum):
    SETTLED = "settled"
    NEEDS_IPA = "needs_ipa"


@dataclass(frozen=True)
class PairCode:
    a1: int
    a2: int
    dim: int
    alphabet: str

    def __post_init__(self):
        digits = ALPHABETS[self.alphabet]
        if digits is None:
            raise ValueError("coded pairs require a digit alphabet")
        top = len(digits) ** (self.dim * self.dim)
        if not (0 <= self.a1 < top and 0 <= self.a2 < top):
            raise ValueError(f"code out of range for {self.alphabet} dim {self.dim}")

    def __str__(self) -> str:
        return f"{self.a1}/{self.a2}"

    @staticmethod
    def parse(text: str, dim: int, alphabet: str) -> "PairCode":
        a1, a2 = text.split("/")
        return PairCode(int(a1), int(a2), dim, alphabet)


@dataclass
class ReductionVerdict:
    outcome: Outcome
    reason: Optional[Reason] = None
    jsr: Optional[RealAlgebraic] = None
    smp_word: Optional[tuple[int, ...]] = None
    witness: dict = field(default_factory=dict)


def decode(code: PairCode) -> tuple[IntMatrix, IntMatrix]:
    """The pair's two member matrices.

    Each member is decoded once per process and read afterwards from a
    table keyed by (code, dim, alphabet) (`_member`), filled as codes
    come and bounded by the code space: |alphabet|^(dim^2) matrices per
    dimension and alphabet, 512 for binary 3x3.  `IntMatrix` is frozen,
    so every caller may share them.
    """
    return (_member(code.a1, code.dim, code.alphabet),
            _member(code.a2, code.dim, code.alphabet))


def encode(pair: tuple[IntMatrix, IntMatrix], alphabet: str) -> PairCode:
    A, B = pair
    return PairCode(_encode_one(A, alphabet), _encode_one(B, alphabet),
                    A.dim, alphabet)


@lru_cache(maxsize=None)
def _member(num: int, dim: int, alphabet: str) -> IntMatrix:
    # digits run column-major: the least significant digit is entry
    # (dim, dim), the most significant entry (1, 1)
    digits = ALPHABETS[alphabet]
    base = len(digits)
    cells = []
    for _ in range(dim * dim):
        cells.append(digits[num % base])
        num //= base
    cells.reverse()
    cols = [cells[j * dim:(j + 1) * dim] for j in range(dim)]
    rows = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    return IntMatrix.make(rows)


def _encode_one(A: IntMatrix, alphabet: str) -> int:
    digits = ALPHABETS[alphabet]
    base = len(digits)
    rev = {v: i for i, v in enumerate(digits)}
    num = 0
    for j in range(A.dim):
        for i in range(A.dim):
            v = A.rows[i][j]
            if v not in rev:
                raise ValueError(f"entry {v} not in alphabet {alphabet}")
            num = num * base + rev[v]
    return num


def pair_transforms(dim: int, alphabet: str) -> list:
    """The canonicalization group as a list of pair-to-pair callables:
    swap, simultaneous transpose, permutation similarity, and (sign
    alphabet) per-matrix negation."""
    perms = list(itertools.permutations(range(dim)))
    pmats = [IntMatrix.make([[int(p[i] == j) for j in range(dim)]
                             for i in range(dim)]) for p in perms]
    sign_flips = [(1, 1)]
    if alphabet == "sign":
        sign_flips = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    transforms = []
    for swap in (False, True):
        for transpose in (False, True):
            for P in pmats:
                for (s1, s2) in sign_flips:
                    def t(pair, swap=swap, transpose=transpose, P=P, s1=s1, s2=s2):
                        A, B = pair
                        if swap:
                            A, B = B, A
                        if transpose:
                            A, B = A.transpose(), B.transpose()
                        A = P.transpose() @ A @ P
                        B = P.transpose() @ B @ P
                        if s1 < 0:
                            A = -A
                        if s2 < 0:
                            B = -B
                        return (A, B)
                    transforms.append(t)
    return transforms


def canonical_key(pair: tuple[IntMatrix, IntMatrix], alphabet: str) -> PairCode:
    """Minimum code over the symmetry group orbit of the pair."""
    dim = pair[0].dim
    best = None
    for t in pair_transforms(dim, alphabet):
        code = encode(t(pair), alphabet)
        key = (code.a1, code.a2)
        if best is None or key < (best.a1, best.a2):
            best = code
    return best


def enumerate_campaign(alphabet: str, dim: int) -> Iterator[PairCode]:
    """Every pair code exactly once, in (a1, a2) order."""
    if alphabet not in ("binary", "sign") or dim not in (2, 3):
        raise ValueError("campaigns cover binary/sign alphabets in dims 2 and 3")
    top = len(ALPHABETS[alphabet]) ** (dim * dim)
    for a1 in range(top):
        for a2 in range(top):
            yield PairCode(a1, a2, dim, alphabet)


# ---------------------------------------------------------------------------
# quick decisions
# ---------------------------------------------------------------------------


def quick_decide(pair: tuple[IntMatrix, IntMatrix]) -> ReductionVerdict:
    """Settle a pair by reduction lemmas, or report that it needs the
    polytope algorithm.  Checks run in both orderings of the pair."""
    A1, A2 = pair
    nonneg = A1.is_nonnegative() and A2.is_nonnegative()

    # a zero member never changes the joint spectral radius
    for X, Y in ((A1, A2), (A2, A1)):
        if Y.is_zero():
            sr = spectral_radius(X)
            return ReductionVerdict(
                Outcome.SETTLED, Reason.ZERO, jsr=sr.value,
                smp_word=(1,) if Y is A2 else (2,),
                witness={"zero_member": 2 if Y is A2 else 1})

    if nonneg:
        I = IntMatrix.identity(A1.dim)
        for idx, (X, Y) in enumerate(((A1, A2), (A2, A1))):
            base_word = (1,) if idx == 0 else (2,)
            # (a) Y <= X entrywise
            if Y.entrywise_leq(X):
                return ReductionVerdict(
                    Outcome.SETTLED, Reason.DOMINATED,
                    jsr=spectral_radius(X).value, smp_word=base_word,
                    witness={"dominating": base_word[0]})
            # (c) Y <= identity
            if Y.entrywise_leq(I):
                return ReductionVerdict(
                    Outcome.SETTLED, Reason.SUB_IDENTITY,
                    jsr=spectral_radius(X).value, smp_word=base_word,
                    witness={"sub_identity": 2 if idx == 0 else 1})
            # (b) X Y <= X^2
            if _product_leq(X, Y, X, X):
                return ReductionVerdict(
                    Outcome.SETTLED, Reason.DOMINATED,
                    jsr=spectral_radius(X).value, smp_word=base_word,
                    witness={"product_order": [base_word[0], base_word[0]]})
        # (d) A2 A1 <= A1 A2 (either ordering)
        for idx, (X, Y) in enumerate(((A1, A2), (A2, A1))):
            if _product_leq(Y, X, X, Y):
                r1, r2 = spectral_radius(A1).value, spectral_radius(A2).value
                word = (1,) if compare(r1, r2) != Ordering.LESS else (2,)
                jsr = r1 if word == (1,) else r2
                return ReductionVerdict(
                    Outcome.SETTLED, Reason.COMMUTING_ORDER, jsr=jsr,
                    smp_word=word, witness={"ordered_pair": [2, 1] if idx == 0
                                            else [1, 2]})

    # normal matrices: 2-norm equals spectral radius
    if _is_normal(A1) and _is_normal(A2):
        r1, r2 = spectral_radius(A1).value, spectral_radius(A2).value
        word = (1,) if compare(r1, r2) != Ordering.LESS else (2,)
        return ReductionVerdict(
            Outcome.SETTLED, Reason.NORMAL,
            jsr=r1 if word == (1,) else r2, smp_word=word,
            witness={"normal": True})

    # bounded-norm integer families: JSR <= 1 forces JSR in {0, 1}
    leq1 = _norm_bounded_by_one(pair)
    if leq1 is not None:
        jsr_val, word = leq1
        return ReductionVerdict(
            Outcome.SETTLED, Reason.INTEGER_LEQ_ONE,
            jsr=RealAlgebraic.from_rational(jsr_val), smp_word=word,
            witness={"norm_depth": NORM_CHECK_DEPTH, "jsr": str(jsr_val)})

    return ReductionVerdict(Outcome.NEEDS_IPA)


def _product_leq(P: IntMatrix, Q: IntMatrix, R: IntMatrix, S: IntMatrix
                 ) -> bool:
    """P Q <= R S entrywise, compared entry by entry without building
    either product, up to the first entry that fails."""
    q_cols, s_cols = tuple(zip(*Q.rows)), tuple(zip(*S.rows))
    for p, r in zip(P.rows, R.rows):
        for q, s in zip(q_cols, s_cols):
            if sum(map(mul, p, q)) > sum(map(mul, r, s)):
                return False
    return True


def _is_normal(A: IntMatrix) -> bool:
    return A.transpose() @ A == A @ A.transpose()


def _norm_bounded_by_one(pair) -> Optional[tuple[int, tuple[int, ...]]]:
    """If every product of length NORM_CHECK_DEPTH has 2-norm <= 1, the
    JSR is 0 or 1 exactly (integer matrices: by Kronecker every spectral
    radius is then 0 or 1).  Returns (jsr, word) with an attaining
    product, or None when the bound fails or no attaining witness exists.
    """
    fam = MatrixFamily.make(list(pair))
    if not all(_norm_at_most_one(P)
               for _, P in _products(fam, NORM_CHECK_DEPTH)):
        return None
    # JSR <= 1; find a product of spectral radius exactly 1 if one exists
    for n in range(1, NORM_CHECK_DEPTH + 1):
        for word, P in _products(fam, n):
            rho = spectral_radius(P).value
            if rho.is_rational and rho.as_rational() == 1:
                return (1, word)
    # JSR 0 exactly when the semigroup is nilpotent, that is (Levitzki)
    # when every product of length dim is zero
    if all(P.is_zero() for _, P in _products(fam, fam.dim)):
        return (0, (1,))
    return None


def _products(fam: MatrixFamily, n: int, word: tuple[int, ...] = (),
              value: Optional[IntMatrix] = None):
    """Every word of length n that extends `word` (of value `value`),
    with its value, in `itertools.product` order.  The walk is depth
    first and multiplies each prefix's value once by each letter, so a
    word costs one product on average instead of n - 1."""
    if len(word) == n:
        yield word, value
        return
    for j, A in enumerate(fam.matrices, 1):
        yield from _products(fam, n, word + (j,),
                             A if value is None else A @ value)


def _norm_at_most_one(A: IntMatrix) -> bool:
    """Exactly ||A||_2 <= 1 for an integer matrix: every row and every
    column holds at most one nonzero entry, and that entry is +-1."""
    return (all(abs(v) <= 1 for r in A.rows for v in r)
            and all(sum(v != 0 for v in r) <= 1 for r in A.rows)
            and all(sum(v != 0 for v in c) <= 1 for c in zip(*A.rows)))


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------


@dataclass
class BlockDecomposition:
    """Common invariant subspace and the induced integer block pairs.

    The restriction/quotient blocks are rational in general; both are
    scaled by their denominator lcm to integer matrices, so the true
    block JSR is JSR(int blocks) / scale.
    """

    basis: list[list[int]]  # vectors spanning the invariant subspace
    sub_blocks: tuple[IntMatrix, IntMatrix]
    sub_scale: int
    quot_blocks: tuple[IntMatrix, IntMatrix]
    quot_scale: int


def irreducible(pair: tuple[IntMatrix, IntMatrix]
                ) -> tuple[bool, Optional[BlockDecomposition]]:
    """Whether the pair has no common invariant subspace other than 0
    and the whole space (over C), decided by `_is_irreducible`.

    For reducible pairs a common invariant subspace with rational basis
    is searched among seeds closed under both matrices: the eigenvectors
    for integer roots of the characteristic polynomials, then the unit
    vectors (`_find_invariant_subspace`).  The blocks come from an
    integer adjugate of the basis matrix and are cleared to integer
    matrices with a scale each (`_split_blocks`).  None is returned for
    the decomposition when the pair is reducible but no rational
    invariant subspace exists (complex-only reduction).
    """
    if _is_irreducible(pair):
        return True, None
    return False, _find_invariant_subspace(pair)


def _is_irreducible(pair) -> bool:
    """Shemesh's test, with Burnside's as the fallback above dimension 3.

    A common eigenvector of (A1, A2) spans an invariant line, and one of
    (A1^T, A2^T) is orthogonal to an invariant hyperplane, so either
    makes the pair reducible.  In dimension <= 3 every proper invariant
    subspace is a line or a hyperplane, so the converse holds too.  In
    higher dimensions a pair without either is irreducible iff the
    algebra generated by {I, A1, A2} has full dimension dim^2 (Burnside).
    """
    A1, A2 = pair
    dim = A1.dim
    if dim == 1:
        return True
    if (_has_common_eigenvector(A1, A2) or
            _has_common_eigenvector(A1.transpose(), A2.transpose())):
        return False
    return dim <= 3 or _algebra_dimension(pair) == dim * dim


def _has_common_eigenvector(A: IntMatrix, B: IntMatrix) -> bool:
    """Shemesh ("Common eigenvectors of two matrices", LAA 62, 1984): A
    and B share an eigenvector over C iff the commutators [A^k, B^l],
    1 <= k, l <= dim - 1, have a common nonzero kernel vector, that is
    iff their stacked rows have rank below dim."""
    dim = A.dim
    powers_a, powers_b = [A], [B]
    for _ in range(dim - 2):
        powers_a.append(powers_a[-1] @ A)
        powers_b.append(powers_b[-1] @ B)
    basis: list[list[int]] = []
    for Ak in powers_a:
        for Bl in powers_b:
            for p, q in zip((Ak @ Bl).rows, (Bl @ Ak).rows):
                row = [x - y for x, y in zip(p, q)]
                if add_to_basis(basis, row) and len(basis) == dim:
                    return False
    return True


def _algebra_dimension(pair) -> int:
    A1, A2 = pair
    dim = A1.dim
    basis: list[list[int]] = []

    def add(M: IntMatrix) -> bool:
        return add_to_basis(basis, M.flat())

    gens = [IntMatrix.identity(dim), A1, A2]
    frontier = [g for g in gens if add(g)]
    frontier_mats = list(frontier)
    current = list(frontier_mats)
    while current:
        new = []
        for M in current:
            for G in (A1, A2):
                for Pd in (G @ M, M @ G):
                    if add(Pd):
                        new.append(Pd)
        current = new
    return len(basis)


def _find_invariant_subspace(pair) -> Optional[BlockDecomposition]:
    """The first seed whose closure under the pair is a proper subspace,
    split into blocks by `_split_blocks`.

    The seeds are the eigenvectors of A1 and then of A2 for their
    rational eigenvalues, ascending, then the unit vectors (which catch
    triangular forms).  A rational eigenvalue of an integer matrix is an
    integer root of its monic characteristic polynomial, so
    `integer_roots` finds them all without isolating the irrational
    ones.
    """
    dim = pair[0].dim
    for seed in _seeds(pair):
        space = _close_under(seed, pair)
        if 0 < len(space) < dim:
            dec = _split_blocks(pair, space)
            if dec is not None:
                return dec
    return None


def _seeds(pair) -> Iterator[list[Fraction]]:
    """The seeds in order, each computed only when the one before it
    did not split the pair."""
    dim = pair[0].dim
    for M in pair:
        for lam in integer_roots(char_poly(M)):
            yield from kernel([[Fraction(M.rows[i][j] - (lam if i == j else 0))
                                for j in range(dim)] for i in range(dim)])
    for i in range(dim):
        yield [Fraction(int(j == i)) for j in range(dim)]


def _close_under(seed: list[Fraction], mats) -> list[list[Fraction]]:
    """An echelon basis of the smallest subspace that holds the seed and
    is invariant under mats."""
    basis: list[list[Fraction]] = []
    add_to_basis(basis, seed)
    frontier = [seed]
    while frontier:
        new = []
        for v in frontier:
            for M in mats:
                img = M.apply(v)
                if add_to_basis(basis, img):
                    new.append(img)
        frontier = new
    return basis


def _split_blocks(pair, space: list[list[Fraction]]
                  ) -> Optional[BlockDecomposition]:
    """Blocks of the pair in a basis extending the invariant subspace.

    The basis matrix U holds the subspace's vectors and then unit
    vectors as columns.  With d the lcm of its denominators and the
    integer V = d U, the change of basis U^-1 M U equals
    adj(V) M V / det(V), so it takes integer products and one
    Faddeev-LeVerrier adjugate.  Both blocks are cleared to integer
    matrices with their scale factor recorded (the block JSR divides by
    it).
    """
    dim = pair[0].dim
    k = len(space)
    basis_vecs = list(space)
    echelon = list(space)  # add_to_basis only appends
    for i in range(dim):
        unit = [Fraction(int(j == i)) for j in range(dim)]
        if add_to_basis(echelon, unit):
            basis_vecs.append(unit)
        if len(basis_vecs) == dim:
            break
    if len(basis_vecs) != dim:
        return None
    d = lcm(*(c.denominator for v in basis_vecs for c in v))
    V = IntMatrix.make(zip(*([int(c * d) for c in v] for v in basis_vecs)))
    coeffs, adj = faddeev_leverrier(V.rows)
    det = -coeffs[0] if dim % 2 else coeffs[0]
    if det == 0:
        return None
    adj = IntMatrix.make(adj)
    changed = [adj @ M @ V for M in pair]
    if any(C.rows[i][j] for C in changed for i in range(k, dim)
           for j in range(k)):
        return None
    sub_blocks, sub_scale = _clear_pair(
        [[row[:k] for row in C.rows[:k]] for C in changed], det)
    quot_blocks, quot_scale = _clear_pair(
        [[row[k:] for row in C.rows[k:]] for C in changed], det)
    return BlockDecomposition(
        basis=[_primitive_int(v) for v in space],
        sub_blocks=sub_blocks, sub_scale=sub_scale,
        quot_blocks=quot_blocks, quot_scale=quot_scale)


def _clear_pair(blocks: list[list[list[int]]], det: int
                ) -> tuple[tuple[IntMatrix, IntMatrix], int]:
    """The blocks B / det as integer matrices over one positive scale:
    with g the gcd of det and every entry, the least common denominator
    of the entries b / det is |det| / g, and the cleared entries are
    sign(det) b / g."""
    g = gcd(det, *(c for b in blocks for row in b for c in row))
    sign = 1 if det > 0 else -1
    ints = tuple(IntMatrix.make([[sign * c // g for c in row] for row in b])
                 for b in blocks)
    return ints, abs(det) // g


def _primitive_int(v: list[Fraction]) -> list[int]:
    """The primitive integer vector on the ray of a nonzero rational v."""
    m = lcm(*(c.denominator for c in v))
    ints = [int(c * m) for c in v]
    g = gcd(*ints)
    return [c // g for c in ints]
