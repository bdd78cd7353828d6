import itertools
import random
from fractions import Fraction

import pytest

from jsrcert.algebraic import (
    FieldElement,
    IntPolynomial,
    NumberFieldContext,
    isolate_real_roots,
)
from jsrcert.geometry import (
    HullKind,
    VertexPolytope,
    _separated,
    _sgn,
    classify_with_fallback,
    dominating_vertex,
    interior_norm,
    minkowski_norm,
    norm_ellipse,
    outside_bound,
    simplex_solve,
    two_vertex_combination,
)
from oracles import (
    cone_norm_facets,
    ellipse_hull_margin,
    inverse,
    sym_norm_facets,
)

F = Fraction


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), start=u[0] * 0)


def _brute_force_min(A, b, c):
    """min c.y over the basic solutions of A y = b with y >= 0, from every
    basis of len(A) columns, or None when no basis is feasible (A must
    have full row rank)."""
    best = None
    for cols in itertools.combinations(range(len(c)), len(A)):
        inv = inverse([[row[j] for j in cols] for row in A])
        if inv is None:
            continue
        y = [_dot(row, b) for row in inv]
        if any(_sgn(v) < 0 for v in y):
            continue
        value = _dot([c[j] for j in cols], y)
        if best is None or _sgn(value - best) < 0:
            best = value
    return best


class TestSimplex:
    def test_textbook_vertex(self):
        # min y1 + y2 s.t. y1 + 2 y2 >= 2 and 2 y1 + y2 >= 2, with surpluses
        A = [[F(1), F(2), F(-1), F(0)], [F(2), F(1), F(0), F(-1)]]
        value, y = simplex_solve(A, [F(2), F(2)], [F(1), F(1), F(0), F(0)])
        assert value == F(4, 3)
        assert y == [F(2, 3), F(2, 3), F(0), F(0)]

    def test_infeasible(self):
        # y1 >= 1 and y1 <= 0
        A = [[F(1), F(-1), F(0)], [F(1), F(0), F(1)]]
        assert simplex_solve(A, [F(1), F(0)], [F(1), F(0), F(0)]) is None

    def test_ray_of_a_negative_cost_raises(self):
        # only a negative cost can make min c.y unbounded
        with pytest.raises(RuntimeError):
            simplex_solve([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])

    def test_row_permutation_invariance(self):
        rng = random.Random(3)
        for _ in range(10):
            rows = [([F(rng.randint(-3, 3)) for _ in range(5)],
                     F(rng.randint(-3, 5))) for _ in range(3)]
            c = [F(rng.randint(0, 3)) for _ in range(5)]
            shuffled = rows[:]
            rng.shuffle(shuffled)
            r1, r2 = (simplex_solve([a for a, _ in rs], [b for _, b in rs], c)
                      for rs in (rows, shuffled))
            assert (r1 is None) == (r2 is None)
            if r1 is not None:
                assert r1[0] == r2[0]

    def test_solution_satisfies_constraints(self):
        rng = random.Random(5)
        solved = 0
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(2, 6)
            A = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
            b = [F(rng.randint(-3, 6)) for _ in range(m)]
            c = [F(rng.randint(0, 3)) for _ in range(n)]
            res = simplex_solve(A, b, c)
            if res is not None:
                value, y = res
                assert [_dot(row, y) for row in A] == b
                assert all(v >= 0 for v in y) and _dot(c, y) == value
                solved += 1
        assert solved

    def test_field_coefficients(self):
        sqrt2 = isolate_real_roots(IntPolynomial.make([-2, 0, 1]))[1]
        ctx = NumberFieldContext.from_real_algebraic(sqrt2)
        g, one = ctx.generator(), ctx.one()
        # min y1 + y2 s.t. y1 - y2 = -sqrt2  ->  y = (0, sqrt2)
        value, y = simplex_solve([[one, -one]], [-g], [one, one])
        assert value == g and y == [ctx.zero(), g]

    @pytest.mark.parametrize("field", ["rational", "sqrt2"])
    def test_matches_brute_force_over_bases(self, field):
        rng = random.Random(29)
        if field == "rational":
            num = F
            nonneg = lambda: F(rng.randint(0, 3))
        else:
            sqrt2 = isolate_real_roots(IntPolynomial.make([-2, 0, 1]))[1]
            ctx = NumberFieldContext.from_real_algebraic(sqrt2)
            g = ctx.generator()
            num = lambda k: k + rng.randint(-1, 1) * g
            nonneg = lambda: rng.randint(0, 2) + rng.randint(0, 1) * g
        outcomes = set()
        for _ in range(60):
            m = rng.randint(1, 3)
            n = rng.randint(m, 5)
            A = [[num(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            b = [num(rng.randint(-3, 3)) for _ in range(m)]
            c = [nonneg() for _ in range(n)]
            if all(inverse([[row[j] for j in cols] for row in A]) is None
                   for cols in itertools.combinations(range(n), m)):
                continue  # rank-deficient: the oracle needs a basis
            oracle = _brute_force_min(A, b, c)
            # a redundant row, the sum of the rows, changes nothing
            redundant = [[sum(col[1:], col[0]) for col in zip(*A)]]
            for rows, rhs in ((A, b), (A + redundant, b + [sum(b[1:], b[0])])):
                res = simplex_solve(rows, rhs, c)
                if oracle is None:
                    assert res is None
                    continue
                value, y = res
                assert value == oracle
                assert [_dot(row, y) for row in rows] == rhs
                assert all(_sgn(v) >= 0 for v in y) and _dot(c, y) == value
            outcomes.add(oracle is None)
        assert outcomes == {True, False}


def _label(r) -> str:
    """The three-way class of an LP answer, from its norm: interior below
    1, boundary at 1, exterior above 1 or at infinity.  A combination is
    given exactly when the class is not exterior."""
    if r.value is None or _sgn(r.value - 1) > 0:
        assert r.combination is None
        return "exterior"
    assert r.combination is not None
    return "interior" if _sgn(r.value - 1) < 0 else "boundary"


class TestMinkowskiNormSym:
    def test_cross_polytope(self):
        poly = VertexPolytope(HullKind.R, [[F(1), F(0)], [F(0), F(1)]], 2)
        r = minkowski_norm(poly, [F(1, 2), F(1, 2)])
        assert r.value == 1 and _label(r) == "boundary"

    def test_figure_vertices(self):
        poly = VertexPolytope(HullKind.R, [[F(1), F(2)], [F(2), F(1)]], 2)
        r = minkowski_norm(poly, [F(1, 2), F(1, 2)])
        assert r.value == F(1, 3)
        assert _label(r) == "interior"
        assert r.face == [0, 1]

    def test_zero_point(self):
        poly = VertexPolytope(HullKind.R, [[F(1), F(0)], [F(0), F(1)]], 2)
        r = minkowski_norm(poly, [F(0), F(0)])
        assert r.value == 0 and _label(r) == "interior"

    def test_off_span_is_exterior(self):
        poly = VertexPolytope(HullKind.R, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]], 3)
        r = minkowski_norm(poly, [F(0), F(0), F(1)])
        assert r.value is None and _label(r) == "exterior"

    def test_matches_facet_oracle_dim2_dim3(self):
        rng = random.Random(11)
        done = 0
        while done < 120:
            dim = rng.choice([2, 3])
            nv = rng.randint(dim, dim + 4)
            verts = [[F(rng.randint(-4, 4)) for _ in range(dim)] for _ in range(nv)]
            if any(all(c == 0 for c in v) for v in verts):
                continue
            x = [F(rng.randint(-3, 3)) for _ in range(dim)]
            oracle = sym_norm_facets(verts, x)
            if oracle is None:
                continue  # degenerate hull
            poly = VertexPolytope(HullKind.R, verts, dim)
            r = minkowski_norm(poly, x)
            assert r.value == oracle
            done += 1


class TestMinkowskiNormCone:
    def test_figure_cone(self):
        poly = VertexPolytope(
            HullKind.P, [[F(1), F(2)], [F(2), F(1)], [F(1, 2), F(1, 2)]], 2)
        r = minkowski_norm(poly, [F(1), F(1)])
        assert r.value == F(2, 3)
        assert _label(r) == "interior"

    def test_rejects_negative_query(self):
        poly = VertexPolytope(HullKind.P, [[F(1), F(1)]], 2)
        with pytest.raises(ValueError):
            minkowski_norm(poly, [F(-1), F(0)])

    def test_unreachable_direction(self):
        poly = VertexPolytope(HullKind.P, [[F(1), F(0)]], 2)
        r = minkowski_norm(poly, [F(0), F(1)])
        assert r.value is None and _label(r) == "exterior"

    def test_matches_facet_oracle(self):
        rng = random.Random(13)
        done = 0
        while done < 80:
            dim = rng.choice([2, 3])
            nv = rng.randint(dim, dim + 3)
            verts = [[F(rng.randint(0, 4)) for _ in range(dim)] for _ in range(nv)]
            if any(all(c == 0 for c in v) for v in verts):
                continue
            x = [F(rng.randint(0, 3)) for _ in range(dim)]
            if all(c == 0 for c in x):
                continue
            oracle = cone_norm_facets(verts, x)
            poly = VertexPolytope(HullKind.P, verts, dim)
            r = minkowski_norm(poly, x)
            if r.value is None:
                # infinite norm: the nonnegative vertices reach x iff every
                # positive coordinate of x is positive in some vertex
                assert any(x[j] > 0 and all(v[j] == 0 for v in verts)
                           for j in range(dim))
                continue
            assert r.value == oracle
            done += 1

    def test_scaling_homogeneity(self):
        rng = random.Random(17)
        poly = VertexPolytope(
            HullKind.P, [[F(1), F(2)], [F(2), F(1)], [F(1), F(1)]], 2)
        for _ in range(10):
            x = [F(rng.randint(0, 5)), F(rng.randint(0, 5))]
            if all(c == 0 for c in x):
                continue
            c = F(rng.randint(1, 7), rng.randint(1, 5))
            r1 = minkowski_norm(poly, x)
            r2 = minkowski_norm(poly, [c * v for v in x])
            if r1.value is not None:
                assert r2.value == c * r1.value


class TestVertexNormProperty:
    def test_every_vertex_norm_at_most_one(self):
        rng = random.Random(19)
        for _ in range(20):
            dim = 2
            nv = rng.randint(2, 5)
            verts = [[F(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(nv)]
            verts = [v for v in verts if any(c != 0 for c in v)]
            if len(verts) < 2:
                continue
            poly = VertexPolytope(HullKind.R, verts, dim)
            for v in verts:
                r = minkowski_norm(poly, list(v))
                assert r.value is not None and r.value <= 1


def gram(a, b=(F(0), F(0))):
    """(q11, q12, q22) of a a^T + b b^T: the ellipse a cos t + b sin t."""
    return (a[0] * a[0] + b[0] * b[0], a[0] * a[1] + b[0] * b[1],
            a[1] * a[1] + b[1] * b[1])


class TestEllipticHull:
    CIRCLE = gram((F(1), F(0)), (F(0), F(1)))

    def _cover(self, forms, query):
        return norm_ellipse(VertexPolytope(HullKind.C, list(forms), 2), query)

    def test_shrunk_circle_inside(self):
        half = gram((F(1, 2), F(0)), (F(0), F(1, 2)))
        cover = self._cover([self.CIRCLE], half)
        assert cover is not None
        assert cover[0][0] == (1, 0) and cover[-1][1] == (-1, 0)
        assert all(a[1] == b[0] for a, b in zip(cover, cover[1:]))

    def test_circle_itself_inside(self):
        # the boundary counts: the hull is closed
        assert self._cover([self.CIRCLE], self.CIRCLE) is not None

    def test_point_on_circle_inside(self):
        assert self._cover([self.CIRCLE], gram((F(1), F(0)))) is not None

    def test_points_outside_circle_not_inside(self):
        assert self._cover([self.CIRCLE], gram((F(1), F(1, 10)))) is None
        assert self._cover([self.CIRCLE], gram((F(3, 4), F(3, 4)))) is None

    def test_rotated_ellipse_poking_out_not_inside(self):
        # semi-axes 2 and 1; the query is the same ellipse turned by the
        # rational rotation (3/5, 4/5), and then that one halved
        flat = gram((F(2), F(0)), (F(0), F(1)))
        assert self._cover([flat], gram((F(6, 5), F(8, 5)),
                                        (F(-4, 5), F(3, 5)))) is None
        assert self._cover([flat], gram((F(3, 5), F(4, 5)),
                                        (F(-2, 5), F(3, 10)))) is not None

    def test_agrees_with_support_function_oracle(self):
        rng = random.Random(7)

        def vec():
            return tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(2))

        decided = {True: 0, False: 0}
        for _ in range(400):
            gens = []
            for _ in range(rng.randint(1, 3)):
                a = vec()
                b = vec() if rng.random() < 0.7 else (F(0), F(0))
                if any(a + b):
                    gens.append((a, b))
            if not gens:
                continue
            scale = F(1, rng.randint(1, 3))
            a, b = (tuple(c * scale for c in vec()) for _ in range(2))
            margin = ellipse_hull_margin(gens, (a, b))
            if abs(margin) <= 1e-6:
                continue
            forms = [gram(*g) for g in gens]
            inside = self._cover(forms, gram(a, b)) is not None
            assert inside == (margin > 0), (gens, a, b, margin)
            decided[inside] += 1
        assert min(decided.values()) >= 50, decided


class TestClassifyWithFallback:
    def test_far_interior_gets_the_exact_answer(self):
        poly = VertexPolytope(HullKind.R, [[F(1), F(0)], [F(0), F(1)]], 2)
        r = classify_with_fallback(poly, [F(1, 4), F(1, 4)])
        assert _label(r) == "interior"
        assert not r.numeric and r.value == F(1, 2)
        assert r.combination == [F(1, 4), F(1, 4)]

    def test_exact_boundary_escalates(self):
        poly = VertexPolytope(HullKind.R, [[F(1), F(0)], [F(0), F(1)]], 2)
        # exactly on the facet between the two vertices
        r = classify_with_fallback(poly, [F(1, 2), F(1, 2)])
        assert not r.numeric
        assert _label(r) == "boundary"
        assert r.value == 1

    def test_exact_duplicate_vertex_shortcut(self):
        poly = VertexPolytope(HullKind.R, [[F(1), F(2)], [F(2), F(1)]], 2)
        r = classify_with_fallback(poly, [F(1), F(2)])
        assert _label(r) == "boundary" and r.face == [0]
        rneg = classify_with_fallback(poly, [F(-1), F(-2)])
        assert _label(rneg) == "boundary" and rneg.face == [0]

    @pytest.mark.parametrize("kind", [HullKind.P, HullKind.R])
    def test_numeric_only_far_outside_else_the_exact_lp(self, kind):
        # on random dimension-3 polytopes: a numeric answer is outside
        # and the exact LP agrees; any other answer is the exact LP's
        rng = random.Random(53)
        lo = 0 if kind is HullKind.P else -4
        seen = {"numeric": 0, "interior": 0, "boundary": 0, "exterior": 0}
        for _ in range(12):
            verts = [[F(rng.randint(lo, 4), rng.randint(1, 3))
                      for _ in range(3)] for _ in range(rng.randint(2, 6))]
            if any(all(c == 0 for c in v) for v in verts):
                continue
            poly = VertexPolytope(kind, verts, 3)
            queries = [[F(rng.randint(lo, 4), rng.randint(1, 2))
                        for _ in range(3)] for _ in range(3)]
            for y in queries[:]:
                norm = minkowski_norm(poly, y).value
                if norm:  # scaled to the boundary, inside and outside it,
                    # and outside within the float tolerance
                    queries += [[c / norm * t for c in y]
                                for t in (1, F(1, 3), F(99, 100), F(101, 100),
                                          1 + F(1, 10**12))]
            for x in queries:
                got, exact = classify_with_fallback(poly, x), minkowski_norm(poly, x)
                if got.numeric:
                    assert _label(got) == "exterior"
                    assert _label(exact) == "exterior"
                    assert got.value is None and got.combination is None
                    seen["numeric"] += 1
                    continue
                assert (got.value, got.face, got.combination, got.numeric) \
                    == (exact.value, exact.face, exact.combination, False)
                seen[_label(got)] += 1
        assert min(seen.values()) >= 10, seen


class TestVertexPolytopeFind:
    """`VertexPolytope.find` against a linear scan with exact
    subtraction, over Q and Q(sqrt2), with vertices appended between
    calls."""

    @staticmethod
    def _scan(poly, x):
        def equal(v, w):
            return all(_sign(a - b) == 0 for a, b in zip(v, w))

        for i, v in enumerate(poly.vertices):
            if equal(v, x) or (poly.kind is HullKind.R
                               and equal([-c for c in v], x)):
                return i
        return None

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
    @pytest.mark.parametrize("kind", [HullKind.P, HullKind.R, HullKind.C])
    def test_matches_linear_scan(self, kind, field):
        rng = random.Random(59)
        if field == "Q":
            def coord(lo):
                return F(rng.randint(lo, 2), rng.randint(1, 2))
        else:
            sqrt2 = isolate_real_roots(IntPolynomial.make([-2, 0, 1]))[1]
            ctx = NumberFieldContext.from_real_algebraic(sqrt2)
            r = ctx.generator()

            def coord(lo):
                return ctx.from_rational(F(rng.randint(lo, 2), 2)) \
                    + r * rng.randint(min(lo, 0), 1)
        lo = 0 if kind is HullKind.P else -2
        width = 3 if kind is HullKind.C else rng.choice([2, 3])
        for _ in range(30):
            verts = []
            for _ in range(rng.randint(1, 8)):
                v = [coord(lo) for _ in range(width)]
                if any(_sign(c) != 0 for c in v) and v not in verts:
                    verts.append(v)
            if not verts:
                continue
            cut = rng.randint(0, len(verts))
            poly = VertexPolytope(kind, verts[:cut], width)
            for step in (0, 1):
                if step:
                    poly.vertices.extend(verts[cut:])  # after the first call
                queries = [[coord(lo) for _ in range(width)] for _ in range(4)]
                for v in poly.vertices:
                    # equal values built by other arithmetic, and negations
                    queries.append([(c + 1) * 3 / 3 - 1 for c in v])
                    queries.append([-c for c in v])
                for x in queries:
                    want = self._scan(poly, x)
                    assert poly.find(x) == want, (kind, poly.vertices, x)
                if kind is HullKind.R:
                    assert all(poly.find([-c for c in v]) is not None
                               for v in poly.vertices)


class TestExactPreTests:
    """`dominating_vertex` and `outside_bound` against their definitions
    and against the exact LP, on random rational polytopes."""

    def _queries(self, rng, verts, cone):
        dim = len(verts[0])
        lo = 0 if cone else -4
        out = [[F(rng.randint(lo, 4), rng.randint(1, 2)) for _ in range(dim)]
               for _ in range(4)]
        # on the edge of each test: a vertex (dominated with equality and
        # reaching the bounds), a vertex with one coordinate lowered, and
        # a vertex with one coordinate raised
        for step in (0, F(-1, 2), F(1, 3)):
            x = list(rng.choice(verts))
            j = rng.randrange(dim)
            if not cone or x[j] + step >= 0:
                x[j] += step
            out.append(x)
        return out

    @pytest.mark.parametrize("kind", [HullKind.P, HullKind.R])
    def test_verdicts_match_definitions_and_exact_lp(self, kind):
        rng = random.Random(29)
        cone = kind is HullKind.P
        seen = {"dominated": 0, "not dominated": 0, "outside": 0,
                "no bound": 0}
        for _ in range(120):
            dim = rng.choice([2, 3])
            lo = 0 if cone else -4
            verts = [[F(rng.randint(lo, 4), rng.randint(1, 3))
                      for _ in range(dim)] for _ in range(rng.randint(1, 5))]
            if any(all(c == 0 for c in v) for v in verts):
                continue
            poly = VertexPolytope(kind, verts, dim)
            for x in self._queries(rng, verts, cone):
                if all(c == 0 for c in x):
                    continue
                norm = minkowski_norm(poly, x).value
                inside = norm is not None and norm <= 1
                if cone:
                    i = dominating_vertex(poly, x)
                    dominated = any(all(a >= b for a, b in zip(v, x))
                                    for v in verts)
                    assert (i is not None) == dominated, (verts, x)
                    if i is not None:
                        assert all(a >= b for a, b in zip(verts[i], x))
                        assert inside, (verts, x, norm)
                    seen["dominated" if dominated else "not dominated"] += 1
                    bounds = [[*v, sum(v)] for v in verts]
                    point = [*x, sum(x)]
                else:
                    bounds = [[abs(c) for c in v] for v in verts]
                    point = [abs(c) for c in x]
                violated = any(point[j] > max(b[j] for b in bounds)
                               for j in range(len(point)))
                assert outside_bound(poly, x) == violated, (verts, x)
                if violated:
                    assert not inside, (verts, x, norm)
                seen["outside" if violated else "no bound"] += 1
        assert min(v for k, v in seen.items()
                   if cone or "dominated" not in k) >= 50, seen

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
    def test_one_vertex_agrees_with_the_float_ordered_path(self, field):
        # the float-ordered path runs on [v, w], where w has w_0 < x_0 and
        # cannot dominate x, so its verdict is v's
        rng = random.Random(37)
        if field == "Q":
            def coord(a, b):
                return a + b
        else:
            sqrt2 = isolate_real_roots(IntPolynomial.make([-2, 0, 1]))[1]
            ctx = NumberFieldContext.from_real_algebraic(sqrt2)

            def coord(a, b):
                return ctx.from_rational(a) + b * ctx.generator()
        tiny = F(1, 10**30)  # below float resolution
        verdicts = set()
        for _ in range(150):
            dim = rng.choice([2, 3])
            v = [coord(F(rng.randint(0, 4), rng.randint(1, 3)),
                       F(rng.randint(0, 2), rng.randint(1, 2)))
                 for _ in range(dim)]
            if all(_sign(c) == 0 for c in v):
                continue
            xs = [[coord(F(rng.randint(0, 4), rng.randint(1, 3)), F(0))
                   for _ in range(dim)]]
            for step in (0, -tiny, tiny):
                x = list(v)
                j = rng.randrange(dim)
                x[j] = x[j] + step
                xs.append(x)
            for x in xs:
                if _sign(x[0]) <= 0 or any(_sign(c) < 0 for c in x):
                    continue
                w = [x[0] / 2] + [x[0] * 0] * (dim - 1)
                one = dominating_vertex(VertexPolytope(HullKind.P, [v], dim), x)
                two = dominating_vertex(VertexPolytope(HullKind.P, [v, w], dim), x)
                assert one == two, (v, x)
                assert (one == 0) == all(_sign(a - b) >= 0 for a, b in zip(v, x))
                verdicts.add(one)
        assert verdicts == {0, None}

    def test_field_coordinates(self):
        sqrt2 = isolate_real_roots(IntPolynomial.make([-2, 0, 1]))[1]
        ctx = NumberFieldContext.from_real_algebraic(sqrt2)
        r, q = ctx.generator(), ctx.from_rational
        cone = VertexPolytope(HullKind.P, [[q(1), r], [r, q(1)]], 2)
        assert dominating_vertex(cone, [q(1), q(F(7, 5))]) == 0
        assert dominating_vertex(cone, [r, q(1)]) == 1
        assert dominating_vertex(cone, [q(1), q(F(3, 2))]) is None
        # 1 + 3/2 exceeds every coordinate sum, 1 + sqrt2
        assert outside_bound(cone, [q(1), q(F(3, 2))])
        assert not outside_bound(cone, [q(F(6, 5)), q(F(6, 5))])
        sym = VertexPolytope(HullKind.R, [[r, q(0)], [q(0), q(1)]], 2)
        assert outside_bound(sym, [q(F(-3, 2)), q(0)])
        assert not outside_bound(sym, [-r, q(1)])


def _sign(v) -> int:
    return v.sign() if isinstance(v, FieldElement) else (v > 0) - (v < 0)


class TestTwoVertexCombination:
    """The planar tests against the exact LP (`minkowski_norm`), on random
    polygons over Q and Q(sqrt2).  In kind P the verdict of
    `two_vertex_combination` is checked only on queries that no vertex
    dominates, as in the polytope algorithm; every combination it returns
    is checked.  `interior_norm` must give the LP's norm exactly when it
    is below 1, and None otherwise: on the boundary (norm 1, among them
    vertices), outside, and at infinite norm (kind R: off the line of a
    hull whose vertices are all parallel)."""

    def _polygons(self, rng, kind, coord):
        lo = 0 if kind is HullKind.P else -4
        for _ in range(25):
            n = rng.randint(1, 5)
            if rng.random() < 0.25:
                # every vertex on one line through 0
                u = [coord(rng, lo) for _ in range(2)]
                verts = [[c * F(rng.randint(1, 4), rng.randint(1, 3)) for c in u]
                         for _ in range(n)]
            else:
                verts = [[coord(rng, lo) for _ in range(2)] for _ in range(n)]
            unique = []
            for v in verts:
                if any(c != 0 for c in v) and v not in unique:
                    unique.append(v)
            if unique:
                yield VertexPolytope(kind, unique, 2)

    def _queries(self, rng, poly, coord):
        cone = poly.kind is HullKind.P
        zero = poly.vertices[0][0] * 0
        out = [[coord(rng, 0 if cone else -4) for _ in range(2)]
               for _ in range(4)]
        out.append([zero, zero])
        for v in poly.vertices:
            out.append(list(v))
            if not cone:
                out.append([-c for c in v])
        # points of the boundary (y scaled by its norm, so norm exactly 1),
        # and just inside and just outside it
        for y in out[:4]:
            norm = minkowski_norm(poly, y).value
            if norm is not None and _sign(norm) != 0:
                out += [[c / norm * t for c in y] for t in (1, F(9, 10), F(11, 10))]
        return out

    def _check(self, poly, x, seen):
        norm = minkowski_norm(poly, x).value
        inside = norm is not None and _sign(norm - 1) <= 0
        planar = interior_norm(poly, x)
        if inside and _sign(norm - 1) < 0:
            assert planar == norm, (poly.vertices, x, norm, planar)
            seen["below_one"] += 1
        else:
            assert planar is None, (poly.vertices, x, norm, planar)
        if norm is None:
            seen["infinite"] += 1
        elif poly.find(x) is not None:
            seen["vertex"] += 1
        verdict = two_vertex_combination(poly, x)
        if poly.kind is HullKind.P and dominating_vertex(poly, x) is not None:
            # outside the test's contract, but a combination it returns
            # must still be valid
            seen["dominated"] += 1
            assert inside
        else:
            assert (verdict.combination is not None) == inside, \
                (poly.vertices, x, norm)
            seen["outside" if not inside else
                 "boundary" if _sign(norm - 1) == 0 else "inside"] += 1
        assert verdict.value is None
        if verdict.combination is None:
            return
        mu = verdict.combination
        assert len(mu) == len(poly.vertices) and 1 <= len(verdict.face) <= 2
        assert all(_sign(mu[i]) == 0 for i in range(len(mu))
                   if i not in verdict.face)
        comb = [sum((m * v[r] for m, v in zip(mu, poly.vertices)), x[0] * 0)
                for r in range(2)]
        weight = sum((m * _sign(m) for m in mu), x[0] * 0)
        assert _sign(weight - 1) <= 0
        if poly.kind is HullKind.R:
            assert all(_sign(c - y) == 0 for c, y in zip(comb, x))
        else:
            assert all(_sign(m) >= 0 for m in mu)
            assert all(_sign(c - y) >= 0 for c, y in zip(comb, x))

    @pytest.mark.parametrize("kind", [HullKind.P, HullKind.R])
    def test_agrees_with_exact_lp_on_rational_polygons(self, kind):
        rng = random.Random(41)

        def coord(rng, lo):
            return F(rng.randint(lo, 4), rng.randint(1, 3))

        seen = dict.fromkeys(("dominated", "inside", "boundary", "outside",
                              "below_one", "vertex", "infinite"), 0)
        for poly in self._polygons(rng, kind, coord):
            for x in self._queries(rng, poly, coord):
                self._check(poly, x, seen)
        assert min(v for k, v in seen.items() if k != "infinite" and
                   (k != "dominated" or kind is HullKind.P)) >= 10, seen
        assert seen["infinite"] >= 3, seen

    @pytest.mark.parametrize("kind", [HullKind.P, HullKind.R])
    def test_agrees_with_exact_lp_over_q_sqrt2(self, kind):
        sqrt2 = isolate_real_roots(IntPolynomial.make([-2, 0, 1]))[1]
        ctx = NumberFieldContext.from_real_algebraic(sqrt2)
        r = ctx.generator()
        rng = random.Random(43)

        def coord(rng, lo):
            return ctx.from_rational(F(rng.randint(lo, 3), rng.randint(1, 2))) \
                + r * F(rng.randint(0 if lo == 0 else -2, 2), 2)

        seen = dict.fromkeys(("dominated", "inside", "boundary", "outside",
                              "below_one", "vertex", "infinite"), 0)
        for poly in self._polygons(rng, kind, coord):
            for x in self._queries(rng, poly, coord):
                self._check(poly, x, seen)
        assert min(v for k, v in seen.items() if k != "infinite" and
                   (k != "dominated" or kind is HullKind.P)) >= 10, seen
        assert seen["infinite"] >= 3, seen

    @pytest.mark.parametrize("kind", [HullKind.P, HullKind.R])
    def test_separating_lines_only_for_outside_points(self, kind):
        # every pair's line that `_separated` accepts proves the point
        # outside; the line through the facet the point lies beyond is
        # accepted
        rng = random.Random(47)

        def coord(rng, lo):
            return F(rng.randint(lo, 4), rng.randint(1, 3))

        accepted = 0
        for poly in itertools.islice(self._polygons(rng, kind, coord), 15):
            n = len(poly.vertices)
            for x in self._queries(rng, poly, coord):
                norm = minkowski_norm(poly, x).value
                outside = norm is None or norm > 1
                seps = [(i, j) for i in range(n) for j in range(i + 1, n)
                        if _separated(poly, x, i, j)]
                assert outside or not seps, (poly.vertices, x, seps)
                accepted += bool(seps)
        assert accepted >= 20

    def test_interior_norm_on_small_hulls(self):
        line = VertexPolytope(HullKind.R, [[F(2), F(4)], [F(1), F(2)]], 2)
        assert interior_norm(line, [F(-1), F(-2)]) == F(1, 2)
        assert interior_norm(line, [F(-2), F(-4)]) is None  # a vertex
        assert interior_norm(line, [F(1), F(3)]) is None  # infinite norm
        sym = VertexPolytope(HullKind.R, [[F(1), F(0)], [F(0), F(1)]], 2)
        assert interior_norm(sym, [F(1, 3), F(-1, 3)]) == F(2, 3)
        assert interior_norm(sym, [F(1, 3), F(-2, 3)]) is None  # norm 1
        cone = VertexPolytope(HullKind.P, [[F(2), F(0)], [F(0), F(2)]], 2)
        assert interior_norm(cone, [F(1, 2), F(1, 2)]) == F(1, 2)
        assert interior_norm(cone, [F(1), F(1)]) is None
        # one vertex and a slack: the weight is max_r x_r / v_r, and a
        # zero coordinate of both adds no constraint
        one = VertexPolytope(HullKind.P, [[F(2), F(1)]], 2)
        assert interior_norm(one, [F(1), F(1, 4)]) == F(1, 2)
        assert interior_norm(one, [F(1), F(1)]) is None
        axis = VertexPolytope(HullKind.P, [[F(2), F(0)]], 2)
        assert interior_norm(axis, [F(1), F(0)]) == F(1, 2)
        assert interior_norm(axis, [F(0), F(1)]) is None
        with pytest.raises(ValueError):
            interior_norm(cone, [F(-1), F(0)])
        with pytest.raises(ValueError):
            interior_norm(VertexPolytope(HullKind.R, [[F(1)] * 3], 3),
                          [F(0)] * 3)

    def test_edge_point_single_vertex_and_parallel_hull(self):
        sym = VertexPolytope(HullKind.R, [[F(1), F(0)], [F(0), F(1)]], 2)
        v = two_vertex_combination(sym, [F(1, 3), F(-2, 3)])
        assert v.combination == [F(1, 3), F(-2, 3)] and v.face == [0, 1]
        assert two_vertex_combination(sym, [F(2, 3), F(2, 3)]).combination is None
        line = VertexPolytope(HullKind.R, [[F(2), F(4)], [F(1), F(2)]], 2)
        v = two_vertex_combination(line, [F(-2), F(-4)])
        assert v.combination == [F(-1), F(0)] and v.face == [0]
        # off the line: no single vertex is parallel, so the floats decide
        v = two_vertex_combination(line, [F(1), F(3)])
        assert v.combination is None and v.numeric
        cone = VertexPolytope(HullKind.P, [[F(2), F(0)], [F(0), F(2)]], 2)
        v = two_vertex_combination(cone, [F(1), F(1)])
        assert v.combination == [F(1, 2), F(1, 2)]
        # far outside: the float estimate decides
        assert two_vertex_combination(cone, [F(3), F(3)]).numeric
        with pytest.raises(ValueError):
            two_vertex_combination(VertexPolytope(HullKind.R, [[F(1)] * 3], 3),
                                   [F(0)] * 3)
