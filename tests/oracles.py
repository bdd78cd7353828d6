"""Independent test oracles.

Everything here deliberately avoids the library's own algorithms:
root counts come from plain sign-change bisection, high-precision
values from mpmath, norms from explicit facet enumeration.  Oracles
stay independent of the code paths they check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np


def eval_poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def bisect_roots(coeffs, lo=-1024, hi=1024, depth=60):
    """Approximate real roots of a squarefree integer polynomial by
    recursive sign-change bisection on a fine grid."""
    lo, hi = Fraction(lo), Fraction(hi)
    grid = 4096
    step = (hi - lo) / grid
    roots = []
    x = lo
    fx = eval_poly(coeffs, x)
    for _ in range(grid):
        y = x + step
        fy = eval_poly(coeffs, y)
        if fx == 0:
            roots.append((x, x))
        elif fx * fy < 0:
            a, b = x, y
            for _ in range(depth):
                m = (a + b) / 2
                fm = eval_poly(coeffs, m)
                if fm == 0:
                    a = b = m
                    break
                if eval_poly(coeffs, a) * fm < 0:
                    b = m
                else:
                    a = m
            roots.append((a, b))
        x, fx = y, fy
    if fx == 0:
        roots.append((x, x))
    return roots


def two_sign_halvings(coeffs, lo, hi, steps):
    """The intervals of `steps` halvings of [lo, hi] around the one root
    of coeffs inside, each deciding its side by the signs of p at the
    midpoint and at the upper endpoint, both evaluated afresh."""
    lo, hi = Fraction(lo), Fraction(hi)
    out = []
    for _ in range(steps):
        mid = (lo + hi) / 2
        fm, fh = eval_poly(coeffs, mid), eval_poly(coeffs, hi)
        if fm == 0:
            lo = hi = mid
        elif (fm > 0) == (fh > 0):
            hi = mid
        else:
            lo = mid
        out.append((lo, hi))
    return out


def mp_poly_roots(coeffs, dps=60):
    """All complex roots via mpmath.polyroots at high precision."""
    with mpmath.workdps(dps):
        cs = [mpmath.mpf(c) for c in reversed(coeffs)]
        while cs and cs[0] == 0:
            cs.pop(0)
        if len(cs) <= 1:
            return []
        return mpmath.polyroots(cs, maxsteps=200, extraprec=200)


def mp_real_root_count(coeffs, lo, hi, dps=60):
    """Distinct real roots of a squarefree integer polynomial in (lo, hi],
    from mpmath.polyroots; None when a root is too close to an endpoint
    or to the real axis to decide at this precision."""
    with mpmath.workdps(dps):
        tiny = mpmath.mpf(10) ** (-(dps // 3))
        a = mpmath.mpf(lo.numerator) / lo.denominator
        b = mpmath.mpf(hi.numerator) / hi.denominator
        count = 0
        for z in mp_poly_roots(coeffs, dps):
            z = mpmath.mpc(z)
            if abs(z.imag) > tiny:
                continue
            if abs(z.imag) > tiny ** 2 or min(abs(z.real - a), abs(z.real - b)) < tiny:
                return None
            count += a < z.real <= b
        return count


def mp_value(coords, alpha, dps=100):
    """Evaluate sum coords[i] * alpha**i at high precision."""
    with mpmath.workdps(dps):
        acc = mpmath.mpf(0)
        for c in reversed(coords):
            acc = acc * alpha + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
        return acc


def char_poly_cofactor(M):
    """det(xI - M) by symbolic cofactor expansion over exact polynomials
    (coefficient lists, lowest degree first)."""

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def padd(a, b):
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n)]

    def pneg(a):
        return [-x for x in a]

    n = len(M)
    # entries of xI - M as polynomials
    E = [[([Fraction(-M[i][j])] if i != j else [Fraction(-M[i][j]), Fraction(1)])
          for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(rows) == 1:
            return E[rows[0]][cols[0]]
        acc = [Fraction(0)]
        r = rows[0]
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = pmul(E[r][c], minor)
            acc = padd(acc, term if k % 2 == 0 else pneg(term))
        return acc

    return det(list(range(n)), list(range(n)))


def sym_norm_facets(vertices, x):
    """Minkowski norm w.r.t. the symmetric convex hull of `vertices`,
    by enumerating dual vertices: solutions y of y.v_i = +-1 on
    dim-subsets, feasible when |y.v_j| <= 1 for all j.

    Returns the exact norm max |y* . x|, or None if the hull is not
    full-dimensional (norm infinite off the span / ill-defined here).
    """
    dim = len(x)
    best = None
    gens = [tuple(v) for v in vertices]
    duals = []
    for subset in itertools.combinations(range(len(gens)), dim):
        for signs in itertools.product((1, -1), repeat=dim):
            A = [[signs[k] * gens[subset[k]][j] for j in range(dim)]
                 for k in range(dim)]
            b = [Fraction(1)] * dim
            y = _solve(A, b)
            if y is None:
                continue
            if all(abs(_dot(y, g)) <= 1 for g in gens):
                duals.append(y)
    if not duals:
        return None
    vals = [abs(_dot(y, x)) for y in duals]
    return max(vals)


def cone_norm_facets(vertices, x):
    """Norm w.r.t. the cone hull (first orthant) of nonnegative
    `vertices`: max y.x over {y >= 0 : y.v_i <= 1}, by vertex
    enumeration of the dual polyhedron."""
    dim = len(x)
    gens = [tuple(v) for v in vertices]
    rows = [list(g) for g in gens] + \
           [[Fraction(int(j == i)) for j in range(dim)] for i in range(dim)]
    rhs = [Fraction(1)] * len(gens) + [Fraction(0)] * dim
    best = Fraction(0)
    m = len(rows)
    for subset in itertools.combinations(range(m), dim):
        A = [rows[i] for i in subset]
        b = [rhs[i] for i in subset]
        y = _solve(A, b)
        if y is None:
            continue
        if any(c < 0 for c in y):
            continue
        if all(_dot(y, g) <= 1 for g in gens):
            v = _dot(y, x)
            if v > best:
                best = v
    return best


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _solve(A, b):
    n = len(A)
    M = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def matmul(A, B):
    """The product of two matrices (lists of rows) over any exact type."""
    zero = A[0][0] * 0
    return [[sum((A[i][t] * B[t][j] for t in range(len(B))), start=zero)
             for j in range(len(B[0]))] for i in range(len(A))]


def inverse(A):
    """The inverse of square A over any exact field type (Fraction or a
    number-field element), or None when A is singular, by Gauss-Jordan
    elimination of [A | I]."""
    n = len(A)
    zero = A[0][0] * 0
    M = [list(row) + [zero + int(i == j) for j in range(n)]
         for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [row[n:] for row in M]


def rank(vectors):
    """Rank of a list of rational vectors by forward elimination, column
    by column."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def ellipse_hull_margin(gens, query, grid=4096):
    """min over directions u of max_k h_k(u) - h_q(u), in floats.

    Each ellipse is a pair (a, b) of real 2-vectors, the curve
    a cos t + b sin t; its support function in direction u is
    h(u) = hypot(u.a, u.b).  The symmetric hull of the generators
    contains the query ellipse exactly when the margin is >= 0.  The
    support functions are even in u, so angles in [0, pi) suffice.
    """
    t = np.pi * np.arange(grid) / grid
    u = np.stack([np.cos(t), np.sin(t)])

    def h(pair):
        a, b = (np.array([float(c) for c in v]) for v in pair)
        return np.hypot(a @ u, b @ u)

    return float(np.min(np.max([h(g) for g in gens], axis=0) - h(query)))


def algebra_dimension(A, B):
    """Dimension of the matrix algebra generated by I, A and B (lists of
    integer rows): the span of every product word, grown by multiplying
    each newly independent word on the left by A and B until it stops
    growing.  The pair is irreducible over C iff this is n^2 (Burnside)."""
    n = len(A)
    basis = []  # (pivot, row): each row is zero at the earlier pivots

    def independent(M):
        v = [c for row in M for c in row]
        for p, b in basis:
            if v[p]:
                v = [b[p] * x - v[p] * y for x, y in zip(v, b)]
        if not any(v):
            return False
        g = math.gcd(*v)
        v = [c // g for c in v]
        basis.append((next(i for i, c in enumerate(v) if c), v))
        return True

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    frontier = [[[int(i == j) for j in range(n)] for i in range(n)]]
    independent(frontier[0])
    while frontier:
        frontier = [P for X in frontier for P in (mul(A, X), mul(B, X))
                    if independent(P)]
    return len(basis)


def _echelon_add(basis, v):
    """Fraction-free reduction of v against an echelon basis, v <- b_p v
    - v_p b for each basis vector b with first nonzero entry at p; the
    remainder is appended when nonzero.  Returns whether it was."""
    for b in basis:
        p = next(i for i, c in enumerate(b) if c != 0)
        if v[p] != 0:
            v = [b[p] * x - v[p] * y for x, y in zip(v, b)]
    if any(c != 0 for c in v):
        basis.append(v)
        return True
    return False


def _free_column_kernel(M):
    """Right kernel of a Fraction matrix from its reduced row echelon
    form: one vector per free column, 1 there and 0 at the other free
    columns."""
    n = len(M[0])
    rows = [list(r) for r in M]
    pivots, r = [], 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][fc]
        out.append(v)
    return out


def split_reference(A, B):
    """The common invariant subspace and blocks of the pair (lists of
    integer rows) that the reducibility split must return, computed in
    Fractions with a Gauss-Jordan inverse.

    Seeds are the free-column kernel vectors of M - r I for each integer
    root r of det(xI - M), found by trying every integer up to the
    Cauchy bound, for M = A and then B, ascending, and then the unit
    vectors.  A seed is closed under both matrices by `_echelon_add`;
    the first proper closure is completed by unit vectors to the columns
    of U, and the blocks of U^-1 M U are cleared by the lcm of their
    denominators.  Returns (basis as primitive integer vectors,
    sub-block rows, sub scale, quotient-block rows, quotient scale), or
    None when no seed closes to a proper subspace."""
    n = len(A)
    seeds = []
    for M in (A, B):
        cp = char_poly_cofactor(M)
        bound = 1 + int(max(abs(c) for c in cp[:-1]))
        for r in range(-bound, bound + 1):
            if eval_poly(cp, r) == 0:
                seeds += _free_column_kernel(
                    [[Fraction(M[i][j] - (r if i == j else 0))
                      for j in range(n)] for i in range(n)])
    seeds += [[Fraction(int(j == i)) for j in range(n)] for i in range(n)]
    for seed in seeds:
        space = []
        _echelon_add(space, seed)
        frontier = list(space)
        while frontier:
            frontier = [img for v in frontier for M in (A, B)
                        for img in ([_dot(row, v) for row in M],)
                        if _echelon_add(space, img)]
        if 0 < len(space) < n:
            return _reference_blocks(A, B, space)
    return None


def _reference_blocks(A, B, space):
    n, k = len(A), len(space)
    cols = [list(v) for v in space]
    echelon = list(space)
    for i in range(n):
        if len(cols) == n:
            break
        unit = [Fraction(int(j == i)) for j in range(n)]
        if _echelon_add(echelon, unit):
            cols.append(unit)
    U = [[cols[c][r] for c in range(n)] for r in range(n)]
    Uinv = inverse(U)
    changed = [matmul(matmul(Uinv, [[Fraction(x) for x in row] for row in M]),
                      U) for M in (A, B)]
    assert all(C[i][j] == 0 for C in changed for i in range(k, n)
               for j in range(k))

    def clear(blocks):
        m = math.lcm(*(c.denominator for b in blocks for row in b
                       for c in row))
        return tuple(tuple(tuple(int(c * m) for c in row) for row in b)
                     for b in blocks), m

    subs, sub_scale = clear([[row[:k] for row in C[:k]] for C in changed])
    quots, quot_scale = clear([[row[k:] for row in C[k:]] for C in changed])
    basis = []
    for v in space:
        ints = [int(c * math.lcm(*(x.denominator for x in v))) for c in v]
        g = math.gcd(*ints)
        basis.append([c // g for c in ints])
    return basis, subs, sub_scale, quots, quot_scale
