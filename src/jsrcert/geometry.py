"""Exact linear programming and membership queries on vertex polytopes.

The simplex solver runs over any exact ordered field (Fractions or
FieldElements) with Bland's rule, so it terminates and is deterministic.
Three hull kinds are supported: cone hulls of nonnegative vertices (P),
symmetric convex hulls (R), and, in dimension 2, symmetric hulls of
ellipses (C).  A kind-C vertex is the Gram form (q11, q12, q22) of its
ellipse {a cos t + b sin t}, Q = a a^T + b b^T, whose support function
is sqrt(u^T Q u); a segment [-a, a] has Q = a a^T.  All three answer
membership exactly: kinds P and R by the Minkowski norm from one LP,
kind C by an arc cover of the half turn on which one vertex's quadratic
form dominates the query's (`norm_ellipse`).

`VertexPolytope.find` answers the cheapest query first: the index of a
vertex exactly equal to the query (kind R: or to its negative), from a
hash index of the vertices.  Most other kind-P and kind-R queries need
no LP.  Two exact tests settle them: `dominating_vertex` finds a vertex
at least the query entrywise (kind P: inside), and `outside_bound`
finds a coordinate, or in kind P the coordinate sum, that no vertex
reaches (outside).  In dimension 2 the rest need no LP either: the
membership LP has two rows, so a basic solution combines at most two
vertices, and `two_vertex_combination` solves each pair by Cramer's
rule.  In other dimensions the queries both pre-tests leave open go to
`classify_with_fallback`, whose float LP only rules out a query far
outside and leaves every other to the exact LP.  Floats decide only the
far exterior (by the float LP or the float two-vertex weights); a
verdict that places a query inside is always exact and carries its
combination, and otherwise floats only order the candidates of an exact
test.  There are no modes: this is the one path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
# imported here, not at first use: a worker that reaches the prefilter
# would otherwise pay the import (about 0.8 s) inside its first case
from scipy.optimize import linprog

from .algebraic import ContextMismatchError, FieldElement

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


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """max/min c.x subject to rows a_i.x (<=|=|>=) b_i, x >= 0.

    Variables listed in `free` are unrestricted in sign (they are split
    internally).  All coefficients must live in one exact field.
    """

    objective: list
    constraints: list[tuple[list, str, object]]  # (coeffs, relation, rhs)
    maximize: bool = True
    free: frozenset[int] = frozenset()


@dataclass
class LPResult:
    status: LPStatus
    value: Optional[object] = None
    solution: Optional[list] = None
    basis: Optional[tuple[int, ...]] = None


def simplex_solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex with Bland's rule."""
    _check_field(lp)
    n_orig = len(lp.objective)
    zero, one = _zero_one(lp)

    # split free variables x = x+ - x-
    split = sorted(lp.free)
    n = n_orig + len(split)

    def expand(row: Sequence) -> list:
        return list(row) + [-row[j] for j in split]

    obj = expand(lp.objective)
    if not lp.maximize:
        obj = [-c for c in obj]

    rows = []
    for coeffs, rel, rhs in lp.constraints:
        if len(coeffs) != n_orig:
            raise ValueError("constraint width mismatch")
        r = expand(coeffs)
        if _sgn(rhs) < 0:
            r = [-c for c in r]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((r, rel, rhs))

    # build the phase-1 tableau with slack/surplus/artificial variables
    m = len(rows)
    slack_count = sum(1 for _, rel, _ in rows if rel in ("<=", ">="))
    total = n + slack_count + m  # artificials for every row (simple, uniform)
    T = [[zero] * (total + 1) for _ in range(m)]
    basis: list[int] = []
    si = 0
    for i, (r, rel, rhs) in enumerate(rows):
        for j, c in enumerate(r):
            T[i][j] = c
        if rel == "<=":
            T[i][n + si] = one
            si += 1
        elif rel == ">=":
            T[i][n + si] = -one
            si += 1
        art = n + slack_count + i
        T[i][art] = one
        T[i][total] = rhs
        basis.append(art)

    # phase 1: minimize the sum of artificials (never re-entering them)
    art_from = n + slack_count
    cost1 = [zero] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            cost1[j] = cost1[j] - T[i][j]
    if _pivot_loop(T, cost1, basis, total, forbid_from=art_from) is None:
        raise RuntimeError("phase 1 cannot be unbounded")
    if _sgn(-cost1[total]) > 0:
        return LPResult(LPStatus.INFEASIBLE)
    _drive_out_artificials(T, basis, art_from, total)

    # phase 2 on the real objective
    cost2 = [zero] * (total + 1)
    for j in range(n):
        cost2[j] = -obj[j]
    for i, b in enumerate(basis):
        if not _is_zero(cost2[b]):
            f = cost2[b]
            for j in range(total + 1):
                cost2[j] = cost2[j] - f * T[i][j]
    status = _pivot_loop(T, cost2, basis, total, forbid_from=art_from)
    if status is None:
        return LPResult(LPStatus.UNBOUNDED)

    x = [zero] * total
    for i, b in enumerate(basis):
        x[b] = T[i][total]
    sol = list(x[:n_orig])
    for k, j in enumerate(split):
        sol[j] = sol[j] - x[n_orig + k]
    value = cost2[total]
    if not lp.maximize:
        value = -value
    return LPResult(LPStatus.OPTIMAL, value, sol, tuple(basis))


def _check_field(lp: LinearProgram) -> None:
    ctxs = set()
    for c in lp.objective:
        if isinstance(c, FieldElement):
            ctxs.add(id(c.context))
    for coeffs, _, rhs in lp.constraints:
        for c in coeffs:
            if isinstance(c, FieldElement):
                ctxs.add(id(c.context))
        if isinstance(rhs, FieldElement):
            ctxs.add(id(rhs.context))
    if len(ctxs) > 1:
        raise ContextMismatchError("LP mixes several field contexts")


def _zero_one(lp: LinearProgram):
    for c in list(lp.objective) + [c for cs, _, _ in lp.constraints for c in cs]:
        if isinstance(c, FieldElement):
            return c.context.zero(), c.context.one()
    return Fraction(0), Fraction(1)


def _pivot_loop(T, cost, basis, total, forbid_from=None):
    """Bland-rule pivoting; returns True on optimal, None on unbounded."""
    m = len(T)
    guard = 0
    while True:
        # entering: first column with negative reduced cost
        enter = None
        for j in range(total):
            if forbid_from is not None and j >= forbid_from:
                continue
            if _sgn(cost[j]) < 0:
                enter = j
                break
        if enter is None:
            return True
        # ratio test with Bland tie-break on basis variable index
        leave = None
        best = None
        for i in range(m):
            a = T[i][enter]
            if _sgn(a) > 0:
                ratio_num = T[i][total]
                cand = (ratio_num, a, i)
                if leave is None:
                    leave, best = i, cand
                else:
                    # compare ratio_num/a < best_num/best_a exactly
                    diff = cand[0] * best[1] - best[0] * cand[1]
                    s = _sgn(diff)
                    if s < 0 or (s == 0 and basis[i] < basis[leave]):
                        leave, best = i, cand
        if leave is None:
            return None
        _pivot(T, cost, basis, leave, enter, total)
        guard += 1
        if guard > 100000:
            raise RuntimeError("simplex did not terminate (Bland violated?)")


def _pivot(T, cost, basis, leave, enter, total):
    piv = T[leave][enter]
    if isinstance(piv, FieldElement):
        inv = piv.inverse()
        T[leave] = [v * inv for v in T[leave]]
    else:
        T[leave] = [v / piv for v in T[leave]]
    for i in range(len(T)):
        if i != leave and not _is_zero(T[i][enter]):
            f = T[i][enter]
            T[i] = [v - f * w for v, w in zip(T[i], T[leave])]
    if not _is_zero(cost[enter]):
        f = cost[enter]
        for j in range(total + 1):
            cost[j] = cost[j] - f * T[leave][j]
    basis[leave] = enter


def _drive_out_artificials(T, basis, art_from, total):
    for i in range(len(T)):
        if basis[i] >= art_from:
            enter = next((j for j in range(art_from)
                          if not _is_zero(T[i][j])), None)
            if enter is not None:
                dummy = [T[0][0] * 0] * (total + 1)
                _pivot(T, dummy, basis, i, enter, total)
            # else: redundant row; the artificial stays basic at zero


# ---------------------------------------------------------------------------
# vertex polytopes and Minkowski norms
# ---------------------------------------------------------------------------


class HullKind(enum.Enum):
    P = "P"  # cone hull in the first orthant
    R = "R"  # symmetric convex hull
    C = "C"  # elliptic hull of complex vertices


class Classification(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


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
    value: Optional[object]  # field element / Fraction; None means +infinity
    face: list[int]
    classification: Classification
    numeric: bool = False
    # the exact path's feasible combination, one coefficient per vertex
    combination: Optional[list] = None


def minkowski_norm(poly: VertexPolytope, x) -> NormResult:
    """The Minkowski norm of x w.r.t. a kind-P or kind-R polytope, exactly."""
    if poly.kind is HullKind.P:
        return _norm_cone(poly, x)
    if poly.kind is HullKind.R:
        return _norm_sym(poly, x)
    raise ValueError("kind-C membership is decided by norm_ellipse")


def _classify_value(value, face, combination) -> NormResult:
    s = _sgn(value - 1)
    if s < 0:
        cls = Classification.INTERIOR
    elif s == 0:
        cls = Classification.BOUNDARY
    else:
        cls = Classification.EXTERIOR
    return NormResult(value, face, cls, combination=combination)


def _norm_sym(poly: VertexPolytope, x) -> NormResult:
    """min sum(mu+ + mu-) s.t. sum (mu+_i - mu-_i) v_i = x."""
    if all(_is_zero(c) for c in x):
        return NormResult(_zero_like(x), [], Classification.INTERIOR,
                          combination=[_zero_like(x)] * len(poly.vertices))
    V = poly.vertices
    N = len(V)
    n = poly.dim
    cons = []
    for row in range(n):
        coeffs = [V[i][row] for i in range(N)] + [-V[i][row] for i in range(N)]
        cons.append((coeffs, "=", x[row]))
    lp = LinearProgram(objective=[_one_like(x)] * (2 * N),
                       constraints=cons, maximize=False)
    res = simplex_solve(lp)
    if res.status is LPStatus.INFEASIBLE:
        return NormResult(None, [], Classification.EXTERIOR)
    mu = res.solution
    face = [i for i in range(N)
            if not _is_zero(mu[i]) or not _is_zero(mu[N + i])]
    return _classify_value(res.value, face,
                           [mu[i] - mu[N + i] for i in range(N)])


def _norm_cone(poly: VertexPolytope, x) -> NormResult:
    """norm = 1/s* with s* = max s : sum l_i v_i >= s x, sum l_i = 1, l >= 0."""
    if any(_sgn(c) < 0 for c in x):
        raise ValueError("cone-hull queries require nonnegative coordinates")
    if all(_is_zero(c) for c in x):
        return NormResult(_zero_like(x), [], Classification.INTERIOR,
                          combination=[_zero_like(x)] * len(poly.vertices))
    V = poly.vertices
    N = len(V)
    n = poly.dim
    cons = []
    for row in range(n):
        coeffs = [V[i][row] for i in range(N)] + [-x[row]]
        cons.append((coeffs, ">=", _zero_like(x)))
    cons.append(([_one_like(x)] * N + [_zero_like(x)], "=", _one_like(x)))
    lp = LinearProgram(objective=[_zero_like(x)] * N + [_one_like(x)],
                       constraints=cons, maximize=True)
    res = simplex_solve(lp)
    if res.status is not LPStatus.OPTIMAL:
        return NormResult(None, [], Classification.EXTERIOR)
    s = res.value
    if _sgn(s) <= 0:
        return NormResult(None, [], Classification.EXTERIOR)
    lam = res.solution[:N]
    face = [i for i in range(N) if not _is_zero(lam[i])]
    inv = s.inverse() if isinstance(s, FieldElement) else 1 / s
    # scaled combination: x <= sum (l_i / s) v_i with sum l_i/s = 1/s = norm
    return _classify_value(inv, face, [l * inv for l in lam])


def _zero_like(x):
    c = x[0] if isinstance(x, (list, tuple)) else x
    return c * 0


def _one_like(x):
    c = x[0] if isinstance(x, (list, tuple)) else x
    if isinstance(c, FieldElement):
        return c.context.one()
    return Fraction(1)


# -- kind C: elliptic hulls in dimension 2 ---------------------------------

# how many times one arc may be split before the query counts as not contained
ARC_SPLIT_DEPTH = 12
_HALF_TURN = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0))


def _form(q, u, w):
    """The bilinear form u^T Q w for integer directions u, w."""
    return (q[0] * (u[0] * w[0]) + q[1] * (u[0] * w[1] + u[1] * w[0])
            + q[2] * (u[1] * w[1]))


def arc_nonnegative(q, d0, d1) -> bool:
    """Exactly: u^T Q u >= 0 for every u = (1-t) d0 + t d1, t in [0, 1].

    On the arc the form is A(1-t)^2 + 2Bt(1-t) + Ct^2 in Bernstein
    coefficients, which is nonnegative on [0, 1] if and only if A >= 0,
    C >= 0 and either B >= 0 or B^2 <= AC.
    """
    a, c = _form(q, d0, d0), _form(q, d1, d1)
    if _sgn(a) < 0 or _sgn(c) < 0:
        return False
    b = _form(q, d0, d1)
    return _sgn(b) >= 0 or _sgn(b * b - a * c) <= 0


def _float_min(q, d0, d1) -> float:
    """The least value of u^T Q u over the arc, in floats (Q as floats)."""
    a, b, c = _form(q, d0, d0), _form(q, d0, d1), _form(q, d1, d1)
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
                all(_sgn(_form(q, d, d)) < 0 for q in forms) for d in (d0, d1)):
            return None
        mid = (d0[0] + d1[0], d0[1] + d1[1])
        stack += [(mid, d1, depth + 1), (d0, mid, depth + 1)]
    return cover


# -- exact tests that settle most queries without an LP ----------------------


def dominating_vertex(poly: VertexPolytope, x) -> Optional[int]:
    """Kind P: the index of a vertex v with x <= v entrywise, or None.

    Such an x lies in the hull with the combination 1 * v.  Floats order
    the vertices (largest least margin first) and, within one, the
    coordinates (smallest margin first), so a failing check usually stops
    at its first exact comparison; every vertex is checked exactly.
    """
    xf = [float(c) for c in x]
    margins = [[a - b for a, b in zip(v, xf)] for v in poly.floats()]
    for i in sorted(range(len(margins)), key=lambda i: -min(margins[i])):
        v = poly.vertices[i]
        order = sorted(range(poly.dim), key=margins[i].__getitem__)
        if all(_sgn(v[j] - x[j]) >= 0 for j in order):
            return i
    return None


def outside_bound(poly: VertexPolytope, x) -> bool:
    """True when x violates a bound that every hull point satisfies.

    Kind P: a coordinate is negative, or some x_j exceeds every vertex's
    v_j, or sum(x) exceeds every vertex's coordinate sum (x <= sum mu_i v_i
    with mu >= 0 and sum mu_i <= 1 keeps both).  Kind R: some |x_j|
    exceeds every |v_j|.  False means only that no bound fails.  Floats
    order the bounds (largest float excess first) and the vertices within
    one (largest first); every comparison that decides is exact.
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


@dataclass
class PlanarVerdict:
    """The answer of `two_vertex_combination`.  `coeffs` (one per vertex,
    nonzero only on `face`) place x in the closed hull; None means x is
    outside, by the float estimate alone when `numeric`."""

    coeffs: Optional[list]
    face: list[int]
    numeric: bool = False


def two_vertex_combination(poly: VertexPolytope, x) -> PlanarVerdict:
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
    without checking the rest.
    """
    if poly.dim != 2 or poly.kind is HullKind.C:
        raise ValueError("the two-vertex test is for kind-P and kind-R polygons")
    cone = poly.kind is HullKind.P
    x0, x1 = float(x[0]), float(x[1])
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
        return PlanarVerdict(None, [], True)
    best = min(ranked)
    if best[0] > 1 + NUMERIC_TOLERANCE:
        return PlanarVerdict(None, [], True)
    found = _combination_of(poly, x, *best[1:])
    if found is None:
        for _, i, j in sorted(ranked):
            if i != j and _separated(poly, x, i, j):
                return PlanarVerdict(None, [])
            found = _combination_of(poly, x, i, j)
            if found is not None:
                break
    if found is None:
        return PlanarVerdict(None, [])
    coeffs = [x[0] * 0] * len(poly.vertices)
    for k, c in found:
        coeffs[k] = c
    return PlanarVerdict(coeffs, [k for k, _ in found])


def _combination_of(poly: VertexPolytope, x, i: int, j: int):
    """Exactly: [(i, a), (j, b)] with x = a v_i + b v_j inside the weight
    limit of the hull kind, or for j == i [(i, c)] with x = c v_i and
    |c| <= 1; None when there is no such combination."""
    u, v = poly.vertices[i], poly.vertices[j]
    if i == j:
        if not _is_zero(x[0] * u[1] - x[1] * u[0]):
            return None
        r = 0 if not _is_zero(u[0]) else 1
        su, sx = _sgn(u[r]), _sgn(x[r])
        if _sgn(su * u[r] - sx * x[r]) < 0:  # |x_r| > |u_r|
            return None
        return [(i, x[r] / u[r])]
    d = u[0] * v[1] - u[1] * v[0]
    sd = _sgn(d)
    if sd == 0:
        return None
    # Cramer: a = p / d and b = q / d
    p, q = x[0] * v[1] - x[1] * v[0], u[0] * x[1] - u[1] * x[0]
    sa, sb = _sgn(p) * sd, _sgn(q) * sd
    if poly.kind is HullKind.P and (sa < 0 or sb < 0):
        return None
    # |a| + |b| <= 1  <=>  sd (d - sa p - sb q) >= 0, as sa p = |p| sd
    t = d
    for s, y in ((sa, p), (sb, q)):
        if s > 0:
            t = t - y
        elif s < 0:
            t = t + y
    if _sgn(t) * sd < 0:
        return None
    inv = d.inverse() if isinstance(d, FieldElement) else 1 / d
    return [(i, p * inv), (j, q * inv)]


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
        d = u[0] * v[1] - u[1] * v[0]
        sd = _sgn(d)
        p, q = x[0] * v[1] - x[1] * v[0], u[0] * x[1] - u[1] * x[0]
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


def classify_with_fallback(poly: VertexPolytope, x) -> NormResult:
    """The exact `minkowski_norm` of x, unless a float LP puts x far outside.

    A float norm estimate above 1 + NUMERIC_TOLERANCE is returned as an
    EXTERIOR verdict tagged numeric, with no value or combination; every
    other query, and any float failure, gets the exact result.  Kinds P
    and R only.  The polytope algorithm calls it only outside dimension
    2, for the queries that `find`, `dominating_vertex` and
    `outside_bound` leave open.
    """
    est = _numeric_norm(poly, x)
    if est is not None and est > 1 + NUMERIC_TOLERANCE:
        return NormResult(None, [], Classification.EXTERIOR, numeric=True)
    return minkowski_norm(poly, x)


def _numeric_norm(poly: VertexPolytope, x) -> float | None:
    V = poly.floats()
    xf = [float(c) for c in x]
    N, n = len(V), poly.dim
    if all(abs(c) < 1e-300 for c in xf):
        return 0.0
    if poly.kind is HullKind.R:
        A_eq = np.hstack([np.array(V, float).T, -np.array(V, float).T])
        r = linprog(np.ones(2 * N), A_eq=A_eq, b_eq=np.array(xf),
                    bounds=[(0, None)] * (2 * N), method="highs")
        return float(r.fun) if r.status == 0 else None
    if poly.kind is HullKind.P:
        # max s: sum l_i v_i - s x >= 0, sum l_i = 1
        A_ub = np.hstack([-np.array(V, float).T,
                          np.array(xf, float).reshape(-1, 1)])
        A_eq = np.concatenate([np.ones(N), [0.0]]).reshape(1, -1)
        c = np.zeros(N + 1)
        c[-1] = -1.0
        r = linprog(c, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=[1.0],
                    bounds=[(0, None)] * (N + 1), method="highs")
        if r.status != 0 or -r.fun <= 0:
            return None
        return 1.0 / (-r.fun)
    return None
