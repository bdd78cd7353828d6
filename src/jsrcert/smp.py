"""Candidate spectral-maximizing-product search.

A branch-and-bound walk over the prefix tree of products: a prefix is
pruned once its averaged operator norm drops strictly below the best
averaged spectral radius found so far, and a branch terminates when its
product matrix repeats one of its own prefixes (further extensions then
duplicate already-explored behaviour).  All comparisons are exact and
go through `algebraic.compare_powers`: powered isolating intervals
decide first, and exact powers of the best radius are built, once per
exponent, only where the intervals overlap.

A prefix that survives the Frobenius bound meets the exact 2-norm only
when a cheaper bound says it might be pruned: with M = A^T A and y the
column of M through its largest diagonal entry, the Rayleigh quotient
y^T M y / y^T y is a rational lower bound on ||A||_2^2.  When that bound
does not prune, the 2-norm cannot either, and its characteristic
polynomial is never solved.  Both tests are exact, so the tree is the
one the 2-norm alone would give.

Each node's exact spectral radius is computed once per necklace, the
least rotation of a word's primitive root (`canonical_word`).  A
rotation or a power of a word has the same averaged radius as its
necklace (rho(XY) = rho(YX) and rho(X^k) = rho(X)^k), and the best
radius only grows.  So once a necklace has been registered, another
word of it averages no more than the best and never raises it: at most
it ties the best, and then the word it ties with, a word of the same
necklace, is already a candidate, and `_assemble_candidates` would drop
it as a duplicate.  Skipping it changes neither the tree nor the
candidates.

A child whose necklace is that of a current candidate, a word tying the
best averaged radius, skips the norm tests (Frobenius, Rayleigh and the
exact 2-norm): ||P||_F >= ||P||_2 >= rho(P), and rho(P)^(1/L) equals the
best, so no norm of P averages strictly below the best and none of the
tests can prune it.  The tied necklaces are forgotten whenever the best
grows.  Such children are frequent: the powers of a symmetric s.m.p. A
have ||A^k||_2 = rho(A)^k, and each would cost an exact 2-norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import Ordering, PowerMemo, RealAlgebraic, compare_powers, nth_root
from .matcore import (
    IntMatrix,
    MatrixFamily,
    Product,
    evaluate,
    frobenius_norm_sq,
    spectral_radius,
    two_norm_sq,
)


@dataclass
class CandidateSet:
    """Search result: the certified lower bound lambda_ and the products
    attaining it.  The matching upper bound comes from the invariant
    polytope, not from the search."""

    lambda_: RealAlgebraic
    candidates: list[Product]
    depth_reached: int
    exhausted: bool
    # diagnostics
    nodes_visited: int = 0
    frobenius_prunes: int = 0
    two_norm_prunes: int = 0
    two_norm_checks: int = 0  # exact 2-norms computed
    radius_checks: int = 0  # exact spectral radii computed, one per necklace


def canonical_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least cyclic rotation of the primitive root."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            root = word[:d]
            break
    rots = [root[i:] + root[:i] for i in range(len(root))]
    return min(rots)


# the key under which `gripenberg_search` computes one spectral radius
_necklace = canonical_word


def _ties_best(word: tuple[int, ...], tied: set[tuple[int, ...]]) -> bool:
    """True when word is a rotation or power of a current candidate, whose
    necklaces (`canonical_word`) are `tied`: then its averaged radius is
    the best, and no norm test can prune it (module docstring)."""
    return canonical_word(word) in tied


class _Best:
    """Monotone best-so-far averaged spectral radius, kept as (rho, length),
    with the powers of rho computed so far, by exponent."""

    __slots__ = ("rho", "length", "rho_is_zero", "powers")

    def __init__(self):
        self.update(RealAlgebraic.from_rational(0), 1)

    def cmp_powers(self, x, m: int, n: int) -> Ordering:
        """compare x^m with rho^n, exactly."""
        return compare_powers(x, m, self.rho, n, self.powers)

    def cmp_avg(self, rho: RealAlgebraic, length: int) -> Ordering:
        """compare rho^(1/length) with the stored best, exactly."""
        if self.rho_is_zero:
            return Ordering(rho.sign())
        return self.cmp_powers(rho, self.length, length)

    def update(self, rho: RealAlgebraic, length: int) -> None:
        self.rho = rho
        self.length = length
        self.rho_is_zero = rho.sign() == 0
        self.powers = PowerMemo()


def _prunes(norm_sq: int | Fraction | RealAlgebraic, length: int,
            best: _Best) -> bool:
    """True iff norm^(1/length) < best averaged radius, exactly.

    norm_sq is the squared norm (Frobenius or operator) of the prefix.
    """
    if best.rho_is_zero:
        return False
    # compare norm_sq^m  vs  best.rho^(2l)
    return best.cmp_powers(norm_sq, best.length, 2 * length) == Ordering.LESS


def gripenberg_search(family: MatrixFamily, max_depth: int = 10) -> CandidateSet:
    """Branch-and-bound candidate search with exact norm pruning.

    Returns every product (canonicalized, up to cyclic shifts and power
    roots) attaining the best averaged spectral radius within
    max_depth.  `exhausted` is True when the whole tree was closed by
    pruning or repetition, in which case lambda_ equals the joint
    spectral radius and the candidate list is complete within depth.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    J = len(family)
    best = _Best()
    raw_candidates: list[Product] = []  # words tying best at registration time
    exhausted = True
    stats = {"nodes": 0, "fro": 0, "two": 0, "checks": 0, "radii": 0}
    depth_reached = 0
    registered: set[tuple[int, ...]] = set()  # necklaces (module docstring)
    tied: set[tuple[int, ...]] = set()  # necklaces of the current candidates

    def register(word: tuple[int, ...], value: IntMatrix) -> None:
        necklace = _necklace(word)
        if necklace in registered:
            return
        registered.add(necklace)
        stats["radii"] += 1
        sr = spectral_radius(value).value
        cmp = best.cmp_avg(sr, len(word))
        if cmp == Ordering.GREATER:
            best.update(sr, len(word))
            raw_candidates.clear()
            tied.clear()
        if cmp != Ordering.LESS:
            raw_candidates.append(Product(word, value))
            tied.add(canonical_word(word))

    def closed_by_repetition(word: tuple[int, ...], value: IntMatrix,
                             prefixes: tuple[IntMatrix, ...]) -> bool:
        # the product matrix is a scalar multiple of a shorter prefix on
        # this branch, with the scalar dominated by the best averaged
        # radius; extensions then cannot improve on the shorter branch
        for depth_q, pv in enumerate(prefixes):
            c = _scalar_multiple(value, pv)
            if c is None:
                continue
            ac = abs(c)
            if ac == 1:
                return True
            dl = len(word) - depth_q
            if not best.rho_is_zero and best.cmp_powers(
                    ac, best.length, dl) != Ordering.GREATER:
                return True
        return False

    # breadth-first levels: the whole of level k tightens the bound before
    # level k+1 makes any pruning decision
    ident = (IntMatrix.identity(family.dim),)
    level: list[tuple[tuple[int, ...], IntMatrix, tuple[IntMatrix, ...]]] = []
    for j in range(1, J + 1):
        word, value = (j,), family[j - 1]
        stats["nodes"] += 1
        depth_reached = 1
        register(word, value)
        level.append((word, value, ident))
    while level:
        nxt = []
        survivors = []
        for word, value, prefixes in level:
            if closed_by_repetition(word, value, prefixes):
                continue
            if len(word) >= max_depth:
                exhausted = False
                continue
            survivors.append((word, value, prefixes))
        for word, value, prefixes in survivors:
            child_prefixes = prefixes + (value,)
            for j in range(1, J + 1):
                child = family[j - 1] @ value
                cw = word + (j,)
                if child.is_zero():
                    continue
                if not _ties_best(cw, tied):
                    # cheap exact Frobenius pre-prune (||.||_F >= ||.||_2)
                    if _prunes(frobenius_norm_sq(child), len(cw), best):
                        stats["fro"] += 1
                        continue
                    # the exact 2-norm only where its Rayleigh lower bound
                    # prunes
                    if _prunes(_rayleigh_lower(child), len(cw), best):
                        stats["checks"] += 1
                        if _prunes(two_norm_sq(child), len(cw), best):
                            stats["two"] += 1
                            continue
                stats["nodes"] += 1
                depth_reached = max(depth_reached, len(cw))
                register(cw, child)
                nxt.append((cw, child, child_prefixes))
        level = nxt

    candidates = _assemble_candidates(raw_candidates, family)
    if best.rho_is_zero:
        lam = RealAlgebraic.from_rational(0)
    else:
        lam = nth_root(spectral_radius(candidates[0].value).value,
                       candidates[0].length)
    return CandidateSet(lam, candidates, depth_reached, exhausted,
                        stats["nodes"], stats["fro"], stats["two"],
                        stats["checks"], stats["radii"])


def _rayleigh_lower(A: IntMatrix) -> Fraction:
    """y^T M y / y^T y <= ||A||_2^2 for M = A^T A and y = M e_i, where
    M_ii is the largest diagonal entry of M (0 for the zero matrix)."""
    M = A.transpose() @ A
    i = max(range(A.dim), key=lambda k: M.rows[k][k])
    y = M.rows[i]  # M is symmetric: its row i is its column i
    yy = sum(v * v for v in y)
    if yy == 0:
        return Fraction(0)
    return Fraction(sum(v * v for v in A.apply(y)), yy)  # y^T M y = |A y|^2


def _scalar_multiple(A: IntMatrix, B: IntMatrix) -> Fraction | None:
    """c with A == c*B, or None.  Zero matrices yield c=0 only if A==0.

    The first nonzero entry q of B, with p its entry in A, fixes c = p/q;
    every other pair (a, b) must then satisfy a*q == p*b, which also makes
    a zero wherever b is.
    """
    p = q = 0
    for ra, rb in zip(A.rows, B.rows):
        for a, b in zip(ra, rb):
            if q:
                if a * q != p * b:
                    return None
            elif b:
                p, q = a, b
            elif a:
                return None
    return Fraction(p, q) if q else Fraction(0)


def _assemble_candidates(raw: list[Product], family: MatrixFamily) -> list[Product]:
    """Canonicalize, deduplicate, and drop matrix-redundant tying words.

    A longer tying word whose canonical form evaluates to the same
    matrix as a shorter kept candidate adds no new spectral information
    (it arises from identities like A^3 = A) and is dropped.
    """
    if not raw:
        return []
    seen: dict[tuple[int, ...], Product] = {}
    for p in raw:
        cw = canonical_word(p.word)
        if cw not in seen:
            seen[cw] = evaluate(cw, family)
    ordered = sorted(seen.values(), key=lambda p: (p.length, p.word))
    kept: list[Product] = []
    for p in ordered:
        if any(k.length < p.length and k.value == p.value for k in kept):
            continue
        kept.append(p)
    return kept
