"""Candidate spectral-maximizing-product search.

A branch-and-bound walk over the prefix tree of products: a prefix is
pruned once its averaged operator norm drops strictly below the best
averaged spectral radius found so far, and a branch terminates when its
product matrix repeats one of its own prefixes (further extensions then
duplicate already-explored behaviour).  All comparisons are exact; a
staged rational/interval fast path keeps the exact algebra off the hot
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import Ordering, RealAlgebraic, compare, nth_root
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


def canonical_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least cyclic rotation of the primitive root."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            root = word[:d]
            break
    rots = [root[i:] + root[:i] for i in range(len(root))]
    return min(rots)


class _Best:
    """Monotone best-so-far averaged spectral radius, kept as (rho, length)."""

    __slots__ = ("rho", "length", "rho_is_zero")

    def __init__(self):
        self.rho = RealAlgebraic.from_rational(0)
        self.length = 1
        self.rho_is_zero = True

    def cmp_avg(self, rho: RealAlgebraic, length: int) -> Ordering:
        """compare rho^(1/length) with the stored best, exactly."""
        if self.rho_is_zero:
            return Ordering(rho.sign())
        return compare(rho.pow(self.length), self.rho.pow(length))

    def update(self, rho: RealAlgebraic, length: int) -> None:
        self.rho = rho
        self.length = length
        self.rho_is_zero = rho.sign() == 0


def _prune_test(norm_sq: RealAlgebraic, length: int, best: _Best) -> bool:
    """True iff norm^(1/length) < best averaged radius, exactly.

    norm_sq is the squared operator norm of the prefix.
    """
    if best.rho_is_zero:
        return False
    m, l = best.length, length
    # compare norm_sq^m  vs  best.rho^(2l)
    rhs = best.rho.pow(2 * l)
    # interval fast path: refine a little, decide on strict separation
    for _ in range(3):
        nlo, nhi = norm_sq.interval()
        rlo, rhi = rhs.interval()
        # the norm is nonnegative, so clip the interval at 0 before powering
        plo, phi = max(nlo, Fraction(0)) ** m, max(nhi, Fraction(0)) ** m
        if phi < rlo:
            return True
        if plo > rhi:
            return False
        norm_sq.refine()
        rhs.refine()
    # exact decision on the boundary
    return compare(norm_sq.canonical().pow(m), rhs) == Ordering.LESS


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
    stats = {"nodes": 0, "fro": 0, "two": 0}
    depth_reached = 0

    def register(word: tuple[int, ...], value: IntMatrix) -> None:
        sr = spectral_radius(value).value
        cmp = best.cmp_avg(sr, len(word))
        if cmp == Ordering.GREATER:
            best.update(sr, len(word))
            raw_candidates.clear()
            raw_candidates.append(Product(word, value))
        elif cmp == Ordering.EQUAL:
            raw_candidates.append(Product(word, value))

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
            if not best.rho_is_zero and compare(
                    RealAlgebraic.from_rational(ac**best.length),
                    best.rho.pow(dl)) != Ordering.GREATER:
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
                # cheap exact Frobenius pre-prune (||.||_F >= ||.||_2)
                fro = frobenius_norm_sq(child)
                if _prune_rational_norm(fro, len(cw), best):
                    stats["fro"] += 1
                    continue
                nsq = two_norm_sq(child)
                if _prune_test(nsq, len(cw), best):
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
                        stats["nodes"], stats["fro"], stats["two"])


def _prune_rational_norm(norm_sq: Fraction, length: int, best: _Best) -> bool:
    if best.rho_is_zero:
        return False
    m, l = best.length, length
    lhs = norm_sq**m
    rhs = best.rho.pow(2 * l)
    return compare(RealAlgebraic.from_rational(lhs), rhs) == Ordering.LESS


def _scalar_multiple(A: IntMatrix, B: IntMatrix) -> Fraction | None:
    """c with A == c*B, or None.  Zero matrices yield c=0 only if A==0."""
    c = None
    for ra, rb in zip(A.rows, B.rows):
        for a, b in zip(ra, rb):
            if b == 0:
                if a != 0:
                    return None
            else:
                q = Fraction(a, b)
                if c is None:
                    c = q
                elif c != q:
                    return None
    if c is None:  # B == 0
        return Fraction(0) if A.is_zero() else None
    # all-zero columns of B already checked entrywise
    return c


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
