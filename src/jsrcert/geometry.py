"""Membership queries on vertex polytopes, and the one LP they pose in
dimension 3 and above.

Three hull kinds are supported: cone hulls of nonnegative vertices (P),
symmetric convex hulls (R), and, in dimension 2, symmetric hulls of
ellipses (C).  A kind-C vertex is the Gram form (q11, q12, q22) of its
ellipse {a cos t + b sin t}, Q = a a^T + b b^T, whose support function
is sqrt(u^T Q u); a segment [-a, a] has Q = a a^T.  All three answer
membership exactly: kind C by an arc cover of the half turn on which one
vertex's quadratic form dominates the query's (`norm_ellipse`), kinds P
and R by the Minkowski norm.  Outside the plane that norm is one LP in
one standard form, min c.y subject to A y = x and y >= 0
(`membership_lp`), solved exactly by `simplex_solve`, a two-phase
simplex with Bland's rule over any exact ordered field (Fractions or
FieldElements) whose Gauss-Jordan step is `linalg.pivot`, the one the
kernels use, or in floats by scipy's `linprog` for the prefilter.  The
kind-C forms u^T Q u are integer combinations of Q, taken by
`algebraic.integer_combinations`.

`VertexPolytope.find` answers the cheapest query first: the index of a
vertex exactly equal to the query (kind R: or to its negative), from a
hash index of the vertices.  Most other kind-P and kind-R queries need
no LP.  Two exact tests settle them: `dominating_vertex` finds a vertex
at least the query entrywise (kind P: inside), and `outside_bound`
finds a coordinate, or in kind P the coordinate sum, that no vertex
reaches (outside).  In dimension 2 the rest need no LP either: the
membership LP has two rows, so a basic solution combines at most two
vertices, and `two_vertex_combination` solves each pair by Cramer's
rule.  The same weights give the exact norm of a query strictly inside
(`interior_norm`), which balances the polytope algorithm's seeds, so the
plane builds no simplex tableau: there `minkowski_norm` is only the
reference the tests compare the planar answers with.  In other
dimensions the queries both pre-tests leave open go to
`classify_with_fallback`, whose float LP only rules out a query far
outside and leaves every other to the exact LP.  Floats decide only the
far exterior (by the float LP or the float two-vertex weights); an
answer that places a query inside is always exact and carries its
combination, and otherwise floats only order the candidates of an exact
test.  `minkowski_norm`, `classify_with_fallback` and
`two_vertex_combination` give one answer type, `NormResult`.  There are
no modes: this is the one path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cmp_to_key
from operator import mul
from typing import Optional

# imported here, not at first use: a worker that reaches the prefilter
# would otherwise pay the import (about 0.8 s) inside its first case
from scipy.optimize import linprog

from .algebraic import FieldElement, integer_combinations, sub_scaled
from .linalg import pivot

# a numeric norm estimate this far from 1 decides membership without the
# exact LP; certificates record the value
NUMERIC_TOLERANCE = 1e-9


def _sgn(x) -> int:
    if isinstance(x, FieldElement):
        return x.sign()
    return (x > 0) - (x < 0)


def _is_zero(x) -> bool:
    if isinstance(x, FieldElement):
        return x.is_zero()
    return x == 0


def simplex_solve(A, b, c):
    """min c.y subject to A y = b and y >= 0, exactly: (value, y), or None
    when no y is feasible.

    A (one list per row), b and c hold Fractions or FieldElements of one
    field, and every c_j >= 0, so a feasible problem has a minimum.  Two
    phases with one artificial variable per row (a row with b_i < 0 is
    negated first) and Bland's rule, so the method terminates and is
    deterministic.
    """
    m, n = len(A), len(c)
    zero = b[0] * 0
    one = zero + 1
    T = []
    for i, (row, rhs) in enumerate(zip(A, b)):
        if len(row) != n:
            raise ValueError("constraint width mismatch")
        if _sgn(rhs) < 0:
            row, rhs = [-a for a in row], -rhs
        T.append(list(row) + [one if k == i else zero for k in range(m)]
                 + [rhs])
    basis = list(range(n, n + m))

    # phase 1: minimize the sum of the artificials, which never re-enter
    cost = [zero] * (n + m + 1)
    for row in T:
        cost = [a - r for a, r in zip(cost, row)]
    _pivot_loop(T, cost, basis, n)
    if _sgn(cost[-1]) < 0:
        return None
    _drive_out_artificials(T, basis, n)

    # phase 2 on c, reduced by the basis
    cost = list(c) + [zero] * (m + 1)
    for i, j in enumerate(basis):
        if not _is_zero(cost[j]):
            cost = sub_scaled(cost, cost[j], T[i])
    _pivot_loop(T, cost, basis, n)

    y = [zero] * n
    for i, j in enumerate(basis):
        if j < n:
            y[j] = T[i][-1]
    return -cost[-1], y


def _pivot_loop(T, cost, basis, n):
    """Bland-rule pivoting on the first n columns until no reduced cost
    is negative.  The objectives of both phases are bounded below, so a
    column with no positive entry is an error."""
    guard = 0
    while True:
        # entering: first column with negative reduced cost
        enter = next((j for j in range(n) if _sgn(cost[j]) < 0), None)
        if enter is None:
            return
        # ratio test with Bland tie-break on basis variable index
        leave = None
        for i, row in enumerate(T):
            a = row[enter]
            if _sgn(a) > 0:
                if leave is None:
                    leave = i
                    continue
                # compare row[-1]/a < T[leave][-1]/T[leave][enter] exactly
                s = _sgn(row[-1] * T[leave][enter] - T[leave][-1] * a)
                if s < 0 or (s == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise RuntimeError("simplex met an unbounded ray")
        _pivot(T, basis, leave, enter, cost)
        guard += 1
        if guard > 100000:
            raise RuntimeError("simplex did not terminate (Bland violated?)")


def _pivot(T, basis, leave, enter, cost=None):
    pivot(T, leave, enter)
    if cost is not None and not _is_zero(cost[enter]):
        cost[:] = sub_scaled(cost, cost[enter], T[leave])
    basis[leave] = enter


def _drive_out_artificials(T, basis, n):
    for i in range(len(T)):
        if basis[i] >= n:
            enter = next((j for j in range(n) if not _is_zero(T[i][j])), None)
            if enter is not None:
                _pivot(T, basis, i, enter)
            # else: redundant row; the artificial stays basic at zero


# ---------------------------------------------------------------------------
# vertex polytopes and Minkowski norms
# ---------------------------------------------------------------------------


class HullKind(enum.Enum):
    P = "P"  # cone hull in the first orthant
    R = "R"  # symmetric convex hull
    C = "C"  # elliptic hull of complex vertices


@dataclass
class VertexPolytope:
    """Hull kind + vertex list.

    Kinds P and R store real vertices (sequences of Fraction or
    FieldElement); kind C stores Gram forms (q11, q12, q22).  Vertices
    must be nonzero and pairwise distinct, and in kind P nonnegative.
    """

    kind: HullKind
    vertices: list
    dim: int
    _floats: list = field(default_factory=list, init=False, repr=False,
                          compare=False)
    # exact coordinates -> first index; covers vertices[:_indexed]
    _index: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index_appended()

    def _index_appended(self) -> None:
        """Index the vertices appended since the last call, checking in
        kind P that each is nonnegative."""
        for i in range(self._indexed, len(self.vertices)):
            v = self.vertices[i]
            if self.kind is HullKind.P and any(_sgn(c) < 0 for c in v):
                raise ValueError("cone-hull vertices must be nonnegative")
            self._index.setdefault(tuple(v), i)
            self._indexed = i + 1

    def find(self, x) -> Optional[int]:
        """The least index of a vertex exactly equal to x (kind R: or to
        -x), or None.  Coordinates compare by `==` and `hash`, which are
        exact for Fractions and FieldElements.  Like `floats`, the index
        takes in the vertices appended since the last call."""
        self._index_appended()
        hits = [self._index.get(tuple(x))]
        if self.kind is HullKind.R:
            hits.append(self._index.get(tuple(-c for c in x)))
        return min((i for i in hits if i is not None), default=None)

    def floats(self) -> list[list[float]]:
        """The vertices in floats.  Vertices may be appended to
        `vertices` (never changed or removed): each is converted once."""
        for v in self.vertices[len(self._floats):]:
            self._floats.append([float(c) for c in v])
        return self._floats


@dataclass
class NormResult:
    """A membership answer.  `combination` (one coefficient per vertex,
    nonzero only on `face`) places x in the closed hull; None means x is
    outside, by a float estimate alone when `numeric`.  `value` is the
    exact Minkowski norm (a Fraction or FieldElement) when an LP computed
    it, and None otherwise or when the norm is infinite."""

    combination: Optional[list]
    face: list[int]
    numeric: bool = False
    value: Optional[object] = None


def membership_lp(kind: HullKind, vertices, x) -> tuple[list, list]:
    """The Minkowski norm of x as min c.y subject to A y = x, y >= 0:
    (A, c), with the vertices as the columns of V.

    Kind R: y = (mu+, mu-), A = [V, -V] and c = 1, so x = V (mu+ - mu-)
    at weight sum(mu+ + mu-).  Kind P: y = (mu, w), A = [V, -I] and
    c = (1, ..., 1, 0, ..., 0), so V mu = x + w >= x at weight sum(mu).
    The entries are of x's type: exact, or floats for the prefilter.
    """
    zero = x[0] * 0
    one = zero + 1
    rows = [[v[r] for v in vertices] for r in range(len(x))]
    if kind is HullKind.R:
        return ([row + [-a for a in row] for row in rows],
                [one] * (2 * len(vertices)))
    if kind is HullKind.P:
        return ([row + [-one if k == r else zero for k in range(len(x))]
                 for r, row in enumerate(rows)],
                [one] * len(vertices) + [zero] * len(x))
    raise ValueError("kind-C membership is decided by norm_ellipse")


def minkowski_norm(poly: VertexPolytope, x) -> NormResult:
    """The Minkowski norm of x w.r.t. a kind-P or kind-R polytope, exactly,
    and for a norm of at most 1 the combination of the vertices that
    attains it (kind P: one that dominates x)."""
    if poly.kind is HullKind.P and any(_sgn(c) < 0 for c in x):
        raise ValueError("cone-hull queries require nonnegative coordinates")
    A, c = membership_lp(poly.kind, poly.vertices, x)
    solved = simplex_solve(A, x, c)
    if solved is None:
        return NormResult(None, [])
    value, y = solved
    if _sgn(value - 1) > 0:
        return NormResult(None, [], value=value)
    N = len(poly.vertices)
    if poly.kind is HullKind.R:
        combination = [p - m for p, m in zip(y, y[N:])]
    else:
        combination = y[:N]
    # a basis never holds both columns v_i and -v_i, so in kind R a
    # vertex is on the face exactly when its coefficient is nonzero
    face = [i for i, a in enumerate(combination) if not _is_zero(a)]
    return NormResult(combination, face, value=value)


# -- kind C: elliptic hulls in dimension 2 ---------------------------------

# how many times one arc may be split before the query counts as not contained
ARC_SPLIT_DEPTH = 12
_HALF_TURN = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0))


def _forms(*pairs) -> list[tuple[int, int, int]]:
    """For each pair of integer directions (u, w), the integer
    coefficients of the bilinear form u^T Q w in (q11, q12, q22)."""
    return [(u[0] * w[0], u[0] * w[1] + u[1] * w[0], u[1] * w[1])
            for u, w in pairs]


def arc_nonnegative(q, d0, d1) -> bool:
    """Exactly: u^T Q u >= 0 for every u = (1-t) d0 + t d1, t in [0, 1].

    On the arc the form is A(1-t)^2 + 2Bt(1-t) + Ct^2 in Bernstein
    coefficients, which is nonnegative on [0, 1] if and only if A >= 0,
    C >= 0 and either B >= 0 or B^2 <= AC.  The three coefficients are
    integer combinations of Q, taken in one kernel call.
    """
    a, c, b = integer_combinations(_forms((d0, d0), (d1, d1), (d0, d1)), q)
    if _sgn(a) < 0 or _sgn(c) < 0:
        return False
    return _sgn(b) >= 0 or _sgn(b * b - a * c) <= 0


def _float_min(q, d0, d1) -> float:
    """The least value of u^T Q u over the arc, in floats (Q as floats)."""
    a, b, c = (sum(map(mul, r, q))
               for r in _forms((d0, d0), (d0, d1), (d1, d1)))
    curve = a - 2 * b + c
    if curve > 0 and 0 < a - b < curve:
        return a - (a - b) ** 2 / curve
    return min(a, c)


def norm_ellipse(poly: VertexPolytope, qv) -> Optional[list]:
    """An arc cover proving the ellipse of Gram form qv inside the kind-C
    hull, or None.

    E(v) lies in the closed symmetric hull of the vertex ellipses E_k
    exactly when every direction u has some k with u^T (Q_k - Q_v) u >= 0.
    The cover is a counterclockwise chain of integer directions from
    (1, 0) to (-1, 0), with one such k per arc; the forms are even in u,
    so the half turn covers every direction.  Each arc tries the
    generators in order of their float margin and keeps the first that
    passes `arc_nonnegative`; an arc none passes is split at d0 + d1.
    None when some endpoint has every Q_k - Q_v negative (E(v) is not
    contained) or an arc still fails after ARC_SPLIT_DEPTH splits (E(v)
    may touch the hull where the dominating generator changes);
    the caller then makes v a vertex, which is always sound.
    """
    forms = [tuple(x - y for x, y in zip(q, qv)) for q in poly.vertices]
    floats = [tuple(float(x) for x in q) for q in forms]
    cover = []
    stack = [(d0, d1, 0) for d0, d1 in zip(_HALF_TURN, _HALF_TURN[1:])][::-1]
    while stack:
        d0, d1, depth = stack.pop()
        order = sorted(range(len(forms)),
                       key=lambda k: -_float_min(floats[k], d0, d1))
        k = next((k for k in order if arc_nonnegative(forms[k], d0, d1)), None)
        if k is not None:
            cover.append((d0, d1, k))
            continue
        if depth == ARC_SPLIT_DEPTH or any(
                all(_sgn(integer_combinations(_forms((d, d)), q)[0]) < 0
                    for q in forms) for d in (d0, d1)):
            return None
        mid = (d0[0] + d1[0], d0[1] + d1[1])
        stack += [(mid, d1, depth + 1), (d0, mid, depth + 1)]
    return cover


# -- exact tests that settle most queries without an LP ----------------------


def dominating_vertex(poly: VertexPolytope, x,
                      xf: list | None = None) -> Optional[int]:
    """Kind P: the index of a vertex v with x <= v entrywise, or None.

    Such an x lies in the hull with the combination 1 * v.  Floats order
    the vertices (largest least margin first) and, within one, the
    coordinates (smallest margin first), so a failing check usually stops
    at its first exact comparison; every vertex is checked exactly.  A
    single vertex is compared exactly in index order, without floats,
    which would cost more than the comparisons they order.  `xf` is x in
    floats, when the caller has it.
    """
    if len(poly.vertices) == 1:
        (v,) = poly.vertices
        return 0 if all(_sgn(a - b) >= 0 for a, b in zip(v, x)) else None
    if xf is None:
        xf = [float(c) for c in x]
    margins = [[a - b for a, b in zip(v, xf)] for v in poly.floats()]
    for i in sorted(range(len(margins)), key=lambda i: -min(margins[i])):
        v = poly.vertices[i]
        order = sorted(range(poly.dim), key=margins[i].__getitem__)
        if all(_sgn(v[j] - x[j]) >= 0 for j in order):
            return i
    return None


def outside_bound(poly: VertexPolytope, x, xf: list | None = None) -> bool:
    """True when x violates a bound that every hull point satisfies.

    Kind P: a coordinate is negative, or some x_j exceeds every vertex's
    v_j, or sum(x) exceeds every vertex's coordinate sum (x <= sum mu_i v_i
    with mu >= 0 and sum mu_i <= 1 keeps both).  Kind R: some |x_j|
    exceeds every |v_j|.  False means only that no bound fails.  Floats
    order the bounds (largest float excess first) and the vertices within
    one (largest first); every comparison that decides is exact.  `xf`
    is x in floats, when the caller has it.
    """
    if poly.kind is HullKind.C:
        raise ValueError("kind-C membership is decided by norm_ellipse")
    cone = poly.kind is HullKind.P
    if cone and any(_sgn(c) < 0 for c in x):
        return True
    n = poly.dim

    def value(v, j):  # bound j: coordinate j, or for j == n the sum
        return v[j] if j < n else sum(v[1:], v[0])

    bounds = range(n + cone)
    if xf is None:
        xf = [float(c) for c in x]
    fx = [abs(value(xf, j)) for j in bounds]
    fv = [[abs(value(v, j)) for j in bounds] for v in poly.floats()]
    order = range(len(fv))
    for j in sorted(bounds, key=lambda j: max(r[j] for r in fv) - fx[j]):
        t = value(x, j)
        if not cone and _sgn(t) < 0:
            t = -t
        if all(_sgn(t - c) > 0 and (cone or _sgn(t + c) > 0)
               for c in (value(poly.vertices[i], j)
                         for i in sorted(order, key=lambda i: -fv[i][j]))):
            return True
    return False


# -- dimension 2: combinations of at most two vertices -----------------------


def two_vertex_combination(poly: VertexPolytope, x,
                           xf: list | None = None) -> NormResult:
    """Membership in a kind-P or kind-R polygon without an LP.

    The membership LP has two constraint rows, so an optimal basic
    solution uses at most two vertices.  Kind R: x is in the hull iff
    x = a v_i + b v_j with |a| + |b| <= 1 for some pair with
    det(v_i, v_j) != 0, or x = c v_k with |c| <= 1 (the only way in when
    every vertex is parallel).  Kind P: for x >= 0 that no vertex
    dominates (`dominating_vertex` decides those), iff some pair has
    a, b >= 0 and a + b <= 1; scaling x out to the hull's boundary meets
    an edge between two vertices or a segment below a single vertex.

    Floats rank the pairs (and in kind R the single vertices) by their
    weight |a| + |b|.  A least weight above 1 + NUMERIC_TOLERANCE
    decides x outside; otherwise the candidates are
    checked exactly in float order, and the first that passes gives the
    combination.  When none passes, x is exactly outside.  After the
    first has failed, each pair is also tried as a separating line
    (`_separated`); near the boundary on the outside one of the first
    pairs in float order usually is one, and that decides x outside
    without checking the rest.  `xf` is x in floats, when the caller has
    it.
    """
    if poly.dim != 2 or poly.kind is HullKind.C:
        raise ValueError("the two-vertex test is for kind-P and kind-R polygons")
    cone = poly.kind is HullKind.P
    x0, x1 = (float(x[0]), float(x[1])) if xf is None else xf
    inf = float("inf")
    ranked = []  # (float weight, i, j); j == i stands for vertex i alone
    fv = poly.floats()
    for i, (a0, a1) in enumerate(fv):
        if not cone:
            size = a0 * a0 + a1 * a1
            parallel = abs(x0 * a1 - x1 * a0) <= NUMERIC_TOLERANCE * (
                abs(x0) + abs(x1)) * (abs(a0) + abs(a1))
            ranked.append((abs(x0 * a0 + x1 * a1) / size if parallel else inf,
                           i, i))
        for j in range(i + 1, len(fv)):
            b0, b1 = fv[j]
            d = a0 * b1 - a1 * b0
            w = inf
            if d:
                a, b = (x0 * b1 - x1 * b0) / d, (a0 * x1 - a1 * x0) / d
                if not cone:
                    w = abs(a) + abs(b)
                elif a >= -NUMERIC_TOLERANCE and b >= -NUMERIC_TOLERANCE:
                    w = a + b
            # a weight that is not a number (an overflow) ranks last
            ranked.append((w if w < inf else inf, i, j))
    if not ranked:
        return NormResult(None, [], True)
    best = min(ranked)
    if best[0] > 1 + NUMERIC_TOLERANCE:
        return NormResult(None, [], True)
    found = _combination_of(poly, x, *best[1:])
    if found is None:
        for _, i, j in sorted(ranked):
            if i != j and _separated(poly, x, i, j):
                return NormResult(None, [])
            found = _combination_of(poly, x, i, j)
            if found is not None:
                break
    if found is None:
        return NormResult(None, [])
    coeffs = [x[0] * 0] * len(poly.vertices)
    for k, c in found:
        coeffs[k] = c
    return NormResult(coeffs, [k for k, _ in found])


def _combination_of(poly: VertexPolytope, x, i: int, j: int):
    """Exactly: [(i, a), (j, b)] with x = a v_i + b v_j inside the weight
    limit of the hull kind, or for j == i [(i, c)] with x = c v_i and
    |c| <= 1; None when there is no such combination."""
    u, v = poly.vertices[i], poly.vertices[j]
    if i == j:
        along = _along(u, x)
        if along is None or along[1] > 0:
            return None
        r = along[0]
        return [(i, x[r] / u[r])]
    d, p, q = _cramer(u, v, x)
    excess = _pair_excess(poly.kind is HullKind.P, d, p, q)
    if excess is None or excess[0] > 0:
        return None
    inv = 1 / d
    return [(i, p * inv), (j, q * inv)]


def _cramer(u, v, x):
    """(d, p, q) with d = det(u, v), so that x = (p u + q v) / d when
    d != 0 (Cramer's rule)."""
    return (u[0] * v[1] - u[1] * v[0], x[0] * v[1] - x[1] * v[0],
            u[0] * x[1] - u[1] * x[0])


def _pair_excess(cone: bool, d, p, q):
    """For x = a u + b v with a = p / d and b = q / d from `_cramer`:
    (s, t) where t = d (|a| + |b| - 1) and s is the sign of |a| + |b| - 1,
    so the weight is |a| + |b| = 1 + t / d.  None when d == 0, or in a
    cone (kind P) when a or b is negative."""
    sd = _sgn(d)
    if sd == 0:
        return None
    sa, sb = _sgn(p) * sd, _sgn(q) * sd
    if cone and (sa < 0 or sb < 0):
        return None
    # sa p = |p| sd, so t = sa p + sb q - d = sd (|p| + |q| - |d|)
    t = -d
    for s, y in ((sa, p), (sb, q)):
        if s > 0:
            t = t + y
        elif s < 0:
            t = t - y
    return _sgn(t) * sd, t


def _along(u, x):
    """(r, s) when x = c u for some c, with r the index of u's first
    nonzero coordinate (so c = x_r / u_r) and s the sign of |c| - 1;
    None when x is off the line through u."""
    if not _is_zero(x[0] * u[1] - x[1] * u[0]):
        return None
    r = 0 if not _is_zero(u[0]) else 1
    return r, _sgn(_sgn(x[r]) * x[r] - _sgn(u[r]) * u[r])


# orders Fractions, or FieldElements of one field, exactly
_EXACT = cmp_to_key(lambda a, b: _sgn(a - b))


def interior_norm(poly: VertexPolytope, x):
    """The Minkowski norm of x in a kind-P or kind-R polygon when it is
    below 1, exactly and without an LP; None when x is not strictly
    inside (norm 1, above 1 or infinite).

    The norm is the least weight of a basic solution of the two-row
    membership LP: x = a u + b v for non-parallel vertices, weight
    |a| + |b| (kind P: a, b >= 0); in kind R x = c u, weight |c| (the
    only basic solutions when every vertex is parallel); in kind P a
    vertex u and a slack, weight max_r x_r / u_r over u_r > 0.  Only the
    candidates below 1 are divided out, so a query that is not strictly
    inside costs signs alone.
    """
    if poly.dim != 2 or poly.kind is HullKind.C:
        raise ValueError("the planar norm is for kind-P and kind-R polygons")
    cone = poly.kind is HullKind.P
    if cone and any(_sgn(c) < 0 for c in x):
        raise ValueError("cone-hull queries require nonnegative coordinates")
    weights = []
    for i, u in enumerate(poly.vertices):
        if cone:
            if all(_sgn(a - b) > 0 or _is_zero(a) and _is_zero(b)
                   for a, b in zip(u, x)):
                weights.append(max((b / a for a, b in zip(u, x)
                                    if not _is_zero(a)),
                                   key=_EXACT))
        else:
            along = _along(u, x)
            if along is not None and along[1] < 0:
                c = x[along[0]] / u[along[0]]
                weights.append(c if _sgn(c) >= 0 else -c)
        for v in poly.vertices[i + 1:]:
            d, p, q = _cramer(u, v, x)
            excess = _pair_excess(cone, d, p, q)
            if excess is not None and excess[0] < 0:
                weights.append(excess[1] / d + 1)
    return min(weights, key=_EXACT, default=None)


def _separated(poly: VertexPolytope, x, i: int, j: int) -> bool:
    """Exactly: the line l.y = 1 through v_i and v_j (kind R: each
    signed as its coefficient for x) has l.x > 1 and every vertex within
    |l.v| <= 1 (kind P: l >= 0 and l.v <= 1), so x is outside.

    Such an l is feasible for the dual of the membership LP, which makes
    l.x a lower bound on the norm of x.
    """
    u, v = poly.vertices[i], poly.vertices[j]
    cone = poly.kind is HullKind.P
    if not cone:
        d, p, q = _cramer(u, v, x)
        sd = _sgn(d)
        if _sgn(p) * sd < 0:
            u = [-c for c in u]
        if _sgn(q) * sd < 0:
            v = [-c for c in v]
    # l = n / det with n = (v_1 - u_1, u_0 - v_0), so l.u = l.v = 1
    det = u[0] * v[1] - u[1] * v[0]
    s = _sgn(det)
    if s == 0:
        return False
    n = (v[1] - u[1], u[0] - v[0])
    if cone and (_sgn(n[0]) * s < 0 or _sgn(n[1]) * s < 0):
        return False
    if _sgn(n[0] * x[0] + n[1] * x[1] - det) * s <= 0:  # l.x <= 1
        return False
    for w in poly.vertices:
        t = n[0] * w[0] + n[1] * w[1]
        # l.w > 1, or in kind R l.w < -1
        if _sgn(t - det) * s > 0 or (not cone and _sgn(t + det) * s < 0):
            return False
    return True


# -- the float LP, which may only rule a query out --------------------------


def classify_with_fallback(poly: VertexPolytope, x,
                           xf: list | None = None) -> NormResult:
    """The exact `minkowski_norm` of x, unless a float LP puts x far outside.

    A float norm estimate above 1 + NUMERIC_TOLERANCE is returned as an
    outside answer tagged numeric, with no value or combination; every
    other query, and any float failure, gets the exact result.  Kinds P
    and R only.  The polytope algorithm calls it only outside dimension
    2, for the queries that `find`, `dominating_vertex` and
    `outside_bound` leave open.  `xf` is x in floats, when the caller has
    it.
    """
    if xf is None:
        xf = [float(c) for c in x]
    est = _numeric_norm(poly, xf)
    if est is not None and est > 1 + NUMERIC_TOLERANCE:
        return NormResult(None, [], True)
    return minkowski_norm(poly, x)


def _numeric_norm(poly: VertexPolytope, xf: list[float]) -> float | None:
    A, c = membership_lp(poly.kind, poly.floats(), xf)
    r = linprog(c, A_eq=A, b_eq=xf, method="highs")
    return float(r.fun) if r.status == 0 else None
