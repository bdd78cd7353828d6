"""Exact linear programming and Minkowski-norm queries on vertex polytopes.

The simplex solver runs over any exact ordered field (Fractions or
FieldElements) with Bland's rule, so it terminates and is deterministic.
Three hull kinds are supported: cone hulls of nonnegative vertices (P),
symmetric convex hulls (R), and elliptic hulls spanned by complex
vertices (C).  Kinds P and R answer membership exactly; kind C returns
a certified rational interval from an inscribed sample polygon with a
circumscribed correction factor, sound in the Interior direction only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebraic import (
    ContextMismatchError,
    FieldElement,
    NumberFieldContext,
    Ordering,
)

Scalar = object  # Fraction or FieldElement, duck-typed

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


def _to_float(x) -> float:
    return float(x)


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
    UNKNOWN = "unknown"


class Mode(enum.Enum):
    NUMERIC_FIRST = "numeric_first"
    EXACT_ONLY = "exact_only"


@dataclass
class ComplexVertex:
    """A complex vector split into real and imaginary parts."""

    real: tuple
    imag: tuple

    def is_real(self) -> bool:
        return all(_is_zero(c) for c in self.imag)


@dataclass
class VertexPolytope:
    """Hull kind + vertex list.

    Kinds P and R store real vertices (tuples of Fraction or
    FieldElement); kind C stores ComplexVertex entries.  Vertices must
    be nonzero and pairwise distinct.
    """

    kind: HullKind
    vertices: list
    dim: int
    sample_count: int = 64  # kind C only

    def __post_init__(self):
        if self.kind is HullKind.P:
            for v in self.vertices:
                if any(_sgn(c) < 0 for c in v):
                    raise ValueError("cone-hull vertices must be nonnegative")


@dataclass
class NormResult:
    value: Optional[object]  # field element / Fraction; None means +infinity
    face: list[int]
    classification: Classification
    numeric: bool = False
    interval: Optional[tuple[Fraction, Fraction]] = None  # kind C

    def combination(self):
        """Feasible certificate combination attached by the exact path."""
        return getattr(self, "_combination", None)

    def set_combination(self, combo) -> None:
        self._combination = combo


def minkowski_norm(poly: VertexPolytope, x, m: int | None = None) -> NormResult:
    """The Minkowski norm of x w.r.t. the polytope, exactly (kinds P, R)
    or as a certified interval (kind C)."""
    if poly.kind is HullKind.P:
        return _norm_cone(poly, x)
    if poly.kind is HullKind.R:
        return _norm_sym(poly, x)
    return _norm_elliptic_point(poly, x, m or poly.sample_count)


def _classify_value(value, face, boundary_tol=None) -> NormResult:
    s = _sgn(value - 1) if not isinstance(value, FieldElement) \
        else (value - 1).sign()
    if s < 0:
        cls = Classification.INTERIOR
    elif s == 0:
        cls = Classification.BOUNDARY
    else:
        cls = Classification.EXTERIOR
    return NormResult(value, face, cls)


def _norm_sym(poly: VertexPolytope, x) -> NormResult:
    """min sum(mu+ + mu-) s.t. sum (mu+_i - mu-_i) v_i = x."""
    if all(_is_zero(c) for c in x):
        out = NormResult(_zero_like(x), [], Classification.INTERIOR)
        out.set_combination([_zero_like(x)] * len(poly.vertices))
        return out
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
    out = _classify_value(res.value, face)
    out.set_combination([mu[i] - mu[N + i] for i in range(N)])
    return out


def _norm_cone(poly: VertexPolytope, x) -> NormResult:
    """norm = 1/s* with s* = max s : sum l_i v_i >= s x, sum l_i = 1, l >= 0."""
    if any(_sgn(c) < 0 for c in x):
        raise ValueError("cone-hull queries require nonnegative coordinates")
    if all(_is_zero(c) for c in x):
        out = NormResult(_zero_like(x), [], Classification.INTERIOR)
        out.set_combination([_zero_like(x)] * len(poly.vertices))
        return out
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
    out = _classify_value(inv, face)
    # scaled combination: x <= sum (l_i / s) v_i with sum l_i/s = 1/s = norm
    out.set_combination([l * inv for l in lam])
    return out


def _zero_like(x):
    c = x[0] if isinstance(x, (list, tuple)) else x
    return c * 0


def _one_like(x):
    c = x[0] if isinstance(x, (list, tuple)) else x
    if isinstance(c, FieldElement):
        return c.context.one()
    return Fraction(1)


# -- kind C: elliptic hulls --------------------------------------------------


def rational_circle_points(m: int) -> list[tuple[Fraction, Fraction]]:
    """m points exactly on the unit circle, approximately equally spaced.

    Quadrant points come from the tangent half-angle parametrization
    (1-u^2, 2u)/(1+u^2) at u = k/q, then symmetry fills the circle.
    Deterministic for a given m.
    """
    q = max(1, m // 4)
    quarter = []
    for k in range(q + 1):
        u = Fraction(k, q)
        den = 1 + u * u
        quarter.append(((1 - u * u) / den, 2 * u / den))
    pts = []
    for (c, s) in quarter:
        pts.extend([(c, s), (-c, s), (-c, -s), (c, -s)])
    # dedupe (axis points repeat)
    return sorted(set(pts))


def circumscribe_factor(m: int) -> Fraction:
    """A rational lower bound on cos(theta_max/2) for the sample family.

    The u-grid step is 1/floor(m/4) and d(theta)/du <= 2, so adjacent
    samples are at most 2/q radians apart; cos(x) >= 1 - x^2/2 gives a
    certified bound.  Scaling sample norms by its inverse circumscribes
    the true curve.
    """
    q = max(1, m // 4)
    half_gap = Fraction(1, q)  # theta_max/2 <= 1/q
    return 1 - half_gap * half_gap / 2


def elliptic_generators(poly: VertexPolytope) -> list:
    """Inscribed sample points of every vertex ellipse (plus real vertices)."""
    gens = []
    pts = rational_circle_points(poly.sample_count)
    for v in poly.vertices:
        if v.is_real():
            gens.append(list(v.real))
        else:
            for (c, s) in pts:
                gens.append([a * c + b * s for a, b in zip(v.real, v.imag)])
    return gens


def _norm_elliptic_point(poly: VertexPolytope, x, m: int) -> NormResult:
    """Certified interval for the norm of a real point w.r.t. kind C."""
    gens = elliptic_generators(poly)
    inner = VertexPolytope(HullKind.R, gens, poly.dim)
    res = _norm_sym(inner, x)
    if res.value is None:
        return NormResult(None, res.face, Classification.EXTERIOR)
    factor = circumscribe_factor(poly.sample_count)
    upper = _upper_rational(res.value)
    lower = _lower_rational(res.value) * factor
    iv = (lower, upper)
    if upper < 1:
        cls = Classification.INTERIOR
    elif lower > 1:
        cls = Classification.EXTERIOR
    else:
        cls = Classification.UNKNOWN
    out = NormResult(res.value, res.face, cls, interval=iv)
    out.set_combination(res.combination())
    return out


def norm_ellipse(poly: VertexPolytope, v: ComplexVertex,
                 m: int | None = None) -> NormResult:
    """Certified interval for max norm over a whole query ellipse E(v).

    Sound Interior verdicts only: the circumscribed sample polygon of
    E(v) contains the ellipse, so if every scaled sample point is
    interior the ellipse is too.
    """
    if v.is_real():
        return _norm_elliptic_point(poly, list(v.real), m or poly.sample_count)
    mm = m or poly.sample_count
    pts = rational_circle_points(mm)
    factor = circumscribe_factor(mm)
    lo_best = Fraction(0)
    hi_best = Fraction(0)
    face: list[int] = []
    for (c, s) in pts:
        p = [a * c + b * s for a, b in zip(v.real, v.imag)]
        r = _norm_elliptic_point(poly, p, mm)
        if r.value is None:
            return NormResult(None, r.face, Classification.EXTERIOR)
        plo, phi = r.interval
        hi_best = max(hi_best, phi / factor)  # circumscribed query sample
        lo_best = max(lo_best, plo)
        face = sorted(set(face) | set(r.face))
    if hi_best < 1:
        cls = Classification.INTERIOR
    elif lo_best > 1:
        cls = Classification.EXTERIOR
    else:
        cls = Classification.UNKNOWN
    return NormResult(None, face, cls, interval=(lo_best, hi_best))


def _upper_rational(value) -> Fraction:
    if isinstance(value, FieldElement):
        guard = 0
        while True:
            lo, hi = value.interval()
            if hi - lo < Fraction(1, 10**12) or guard > 64:
                return hi
            value.context.refine_root()
            guard += 1
    return Fraction(value)


def _lower_rational(value) -> Fraction:
    if isinstance(value, FieldElement):
        lo, _ = value.interval()
        return lo
    return Fraction(value)


# -- numeric-first classification with exact escalation ----------------------


def classify_with_fallback(poly: VertexPolytope, x,
                           mode: Mode = Mode.NUMERIC_FIRST) -> NormResult:
    """Numeric LP prefilter with exact escalation near the boundary.

    In NUMERIC_FIRST mode a floating LP estimates the norm; verdicts
    whose margin from 1 exceeds NUMERIC_TOLERANCE are returned tagged
    numeric.  Anything near the boundary (or any numeric failure)
    escalates to the exact path.  EXACT_ONLY skips the numeric stage.
    Kind C has no exact escalation and returns UNKNOWN results as such.
    """
    if poly.kind is HullKind.C:
        return minkowski_norm(poly, x)
    # exact duplicate-vertex test before any LP
    for i, v in enumerate(poly.vertices):
        if _vectors_equal(v, x) or (poly.kind is HullKind.R and
                                    _vectors_equal([-c for c in v], x)):
            one = _one_like(x)
            return NormResult(one, [i], Classification.BOUNDARY)
    if mode is Mode.NUMERIC_FIRST:
        est = _numeric_norm(poly, x)
        if est is not None and abs(est - 1.0) > NUMERIC_TOLERANCE:
            cls = Classification.INTERIOR if est < 1 else Classification.EXTERIOR
            return NormResult(None, [], cls, numeric=True)
    return minkowski_norm(poly, x)


def _vectors_equal(v, x) -> bool:
    return all(_is_zero(a - b) for a, b in zip(v, x))


def _numeric_norm(poly: VertexPolytope, x) -> float | None:
    from scipy.optimize import linprog

    V = [[_to_float(c) for c in v] for v in poly.vertices]
    xf = [_to_float(c) for c in x]
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
