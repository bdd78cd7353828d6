"""Exact dense linear algebra over Fractions or number-field elements.

Matrices are lists of rows.  Entries may be `Fraction` or `FieldElement`
(any exact field type with `== 0` and `+ - * /` works); integers alone
are not enough for `kernel`, since division must stay exact, but they
are for the fraction-free `add_to_basis`.  Elimination is
Gauss-Jordan with the first nonzero entry of each column as its pivot.
Its step, `pivot`, inverts the pivot once and updates rows by the fused
`algebraic.sub_scaled`; the exact simplex in `geometry` shares it.  The
reduced row echelon form is unique, so kernels do not depend on that
pivot order.  There is no inverse or product here: the one change of
basis the pipeline makes, in `reduce._split_blocks`, is an integer
adjugate (`algebraic.faddeev_leverrier`) with `IntMatrix` products.
"""

from __future__ import annotations

from .algebraic import sub_scaled


def _eliminate(rows: list[list], ncols: int) -> list[int]:
    """Reduce `rows` in place to reduced row echelon form over its first
    `ncols` columns; returns the pivot column of each leading row."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot(rows, r, c)
        pivots.append(c)
        r += 1
    return pivots


def pivot(rows: list[list], r: int, c: int) -> None:
    """One Gauss-Jordan step in place: scale row r by 1 / rows[r][c]
    and clear column c from every other row."""
    inv = 1 / rows[r][c]
    rows[r] = [x * inv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            rows[i] = sub_scaled(rows[i], rows[i][c], rows[r])


def kernel(M: list[list]) -> list[list]:
    """Basis of the right kernel of M: one vector per free column, with a
    1 in that column and 0 in the other free columns."""
    n = len(M[0])
    zero = M[0][0] * 0
    rows = [list(row) for row in M]
    pivots = _eliminate(rows, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [zero] * n
        v[fc] = zero + 1
        for r, c in enumerate(pivots):
            v[c] = -rows[r][fc]
        basis.append(v)
    return basis


def add_to_basis(basis: list[list], vec: list) -> bool:
    """Reduce vec against an echelon basis (each vector's first nonzero
    entry is zero in every later one) and append the remainder when it is
    nonzero.  Returns whether the span grew.

    Elimination is fraction-free, v <- b[p] v - v[p] b, so it divides
    nothing and works over the integers too.  The appended remainder is
    a nonzero multiple of the one that dividing elimination gives;
    vectors already in the basis are never changed."""
    v = list(vec)
    for b in basis:
        piv = next(i for i, c in enumerate(b) if c != 0)
        f = v[piv]
        if f != 0:
            p = b[piv]
            v = [p * x - f * y for x, y in zip(v, b)]
    if all(c == 0 for c in v):
        return False
    basis.append(v)
    return True
