"""The invariant polytope algorithm with mixed numeric/symbolic containment.

Given candidate spectral-maximizing products with value lambda, the
algorithm scales the family by 1/lambda inside the exact field
Q(lambda), seeds a polytope with balanced leading eigenvectors, and
keeps adding images that cannot be proven inside the current hull.  An
empty frontier means every image lies in the closed hull; the run then
emits a self-contained certificate whose every claim is re-checkable by
pure exact arithmetic (verify_certificate), with no re-run of any
search: vertex reachability words, eigen-relations for the seeds, and
one piece of evidence for every (vertex, matrix) image, of one of three
types:

- "vertex": the image is a vertex (up to sign in kind R; in kind C, an
  ellipse with the same Gram form);
- "combination" (kinds P and R): coefficients whose absolute values sum
  to at most 1 and whose combination of the vertices equals the image
  (kind R) or, all nonnegative, dominates it entrywise (kind P);
- "arcs" (kind C): a counterclockwise chain of integer directions from
  (1, 0) to (-1, 0), each arc naming a vertex whose quadratic form is at
  least the image's on every direction of the arc.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from typing import Optional

from .algebraic import (
    AlgebraicError,
    FieldDegreeError,
    FieldElement,
    IntPolynomial,
    NumberFieldContext,
    Ordering,
    RealAlgebraic,
    compare,
    field_join,
    nth_root,
)
from .geometry import (
    NUMERIC_TOLERANCE,
    Classification,
    ComplexVertex,
    HullKind,
    Mode,
    VertexPolytope,
    arc_nonnegative,
    classify_with_fallback,
    gram_form,
    minkowski_norm,
    norm_ellipse,
)
from .matcore import (
    IntMatrix,
    MatrixFamily,
    Product,
    char_poly,
    evaluate,
    leading_eigenvector,
    spectral_radius,
)
from .smp import CandidateSet

SCHEMA = "jsr-certificate/1"
MAX_VERTICES = 512
MAX_ROUNDS = 64


class IpaStatus(enum.Enum):
    PROVED = "proved"
    VERTEX_CAP_EXCEEDED = "vertex_cap_exceeded"
    NO_SPECTRAL_GAP = "no_spectral_gap"
    MULTIPLE_LEADING_EIGENVECTOR = "multiple_leading_eigenvector"
    # a complex leading eigenvalue in dimension other than 2, or a field
    # of too high a degree (FieldDegreeError)
    CASE_C_UNKNOWN = "case_c_unknown"


@dataclass
class IpaOptions:
    augment: bool = False
    mode: Mode = Mode.NUMERIC_FIRST


@dataclass
class _Vertex:
    coords: list  # FieldElements; kind C: the real part
    imag: Optional[list]  # kind C only (None entries mean real vertex)
    word: tuple  # generating word, seed-first application order
    seed: int  # seed index


@dataclass
class IpaResult:
    status: IpaStatus
    lambda_: RealAlgebraic
    polytope: Optional[VertexPolytope]
    smps: list[Product]
    trace: list[dict]
    certificate: Optional[dict] = None
    diagnostics: dict = dfield(default_factory=dict)


@dataclass
class VerifyResult:
    accepted: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------


def balance(eigs: list, family: MatrixFamily, lam: RealAlgebraic,
            hull: HullKind = HullKind.R, bound: int = 16) -> list[Fraction]:
    """Rational scales making every seed non-interior to the others' hull.

    A seed strictly inside the hull of the remaining scaled seeds is
    scaled up just past its norm; the loop runs until stable or until
    the iteration bound, in which case the current scales are returned
    (the caller proceeds unbalanced and surfaces any non-termination).
    """
    n = len(eigs)
    if n <= 1:
        return [Fraction(1)] * n
    scales = [Fraction(1)] * n
    for _ in range(bound):
        changed = False
        for i in range(n):
            others = [_scale_vec(eigs[j], scales[j]) for j in range(n) if j != i]
            poly = VertexPolytope(hull, others, family.dim)
            me = _scale_vec(eigs[i], scales[i])
            try:
                res = minkowski_norm(poly, me)
            except ValueError:
                continue
            if res.value is None:
                continue  # infinitely far outside: fine
            s = _sgn_vs_one(res.value)
            if s < 0:
                # strictly inside: scale up by a rational above 1/norm
                lo = _positive_lower_bound(res.value)
                scales[i] = scales[i] / lo
                changed = True
        if not changed:
            return scales
    return scales


def _scale_vec(v, s: Fraction):
    return [c * s for c in v]


def _sgn_vs_one(value) -> int:
    if isinstance(value, FieldElement):
        return (value - 1).sign()
    return (value > 1) - (value < 1)


def _positive_lower_bound(value) -> Fraction:
    if isinstance(value, FieldElement):
        guard = 0
        while True:
            lo, hi = value.interval()
            if lo > 0:
                return lo
            value.context.refine_root()
            guard += 1
            if guard > 128:
                raise AlgebraicError("norm lower bound refinement stalled")
    return Fraction(value)


# ---------------------------------------------------------------------------
# limit matrices
# ---------------------------------------------------------------------------


def augment_limits(family: MatrixFamily, candidates: CandidateSet,
                   ctx: NumberFieldContext, lam_elem: FieldElement
                   ) -> list[tuple[int, list[list[FieldElement]]]]:
    """Spectral projectors of candidates with simple dominant real +rho.

    Each projector is the limit of the normalized candidate powers,
    exact over the field: L = v w^T / (w^T v) for right/left leading
    eigenvectors.  Candidates with a non-simple or negative/complex
    leading eigenvalue are skipped.
    """
    out = []
    for idx, cand in enumerate(candidates.candidates):
        L = _limit_matrix(cand.value, lam_elem ** cand.length, ctx)
        if L is not None:
            out.append((idx, L))
    return out


def _is_eigenvalue(A: IntMatrix, lam_elem: FieldElement) -> bool:
    ctx = lam_elem.context
    acc = ctx.zero()
    for c in reversed(char_poly(A).coeffs):
        acc = acc * lam_elem + ctx.from_rational(c)
    return acc.is_zero()


# ---------------------------------------------------------------------------
# the algorithm
# ---------------------------------------------------------------------------


def run_ipa(family: MatrixFamily, candidates: CandidateSet,
            opts: IpaOptions | None = None) -> IpaResult:
    opts = opts or IpaOptions()
    if not candidates.candidates:
        raise ValueError("need at least one candidate product")
    lam = candidates.lambda_
    if lam.sign() <= 0:
        raise ValueError("the polytope algorithm needs lambda > 0")

    try:
        setup = _build_field(family, candidates)
    except FieldDegreeError as exc:
        return IpaResult(IpaStatus.CASE_C_UNKNOWN, lam, None,
                         candidates.candidates, [],
                         diagnostics={"error": str(exc)})
    if isinstance(setup, IpaResult):
        return setup
    ctx, lam_elem, hull, seeds = setup

    scales = balance([s.coords for s in seeds], family, lam,
                     HullKind.R if hull is HullKind.C else hull)
    for s, sc in zip(seeds, scales):
        s.coords = _scale_vec(s.coords, sc)
        if s.imag is not None:
            s.imag = _scale_vec(s.imag, sc)

    inv_lam = lam_elem.inverse()
    # deduplicate seeds (ties may share an eigenvector up to sign)
    vertices: list[_Vertex] = []
    seed_map: list[int] = []
    for s in seeds:
        dup = _find_duplicate(vertices, s, hull)
        if dup is None:
            vertices.append(s)
            seed_map.append(len(vertices) - 1)
        else:
            seed_map.append(dup)
    trace: list[dict] = [
        {"round": 0, "vertex": i, "parent": None, "matrix": None}
        for i in range(len(vertices))]

    limits = []
    if opts.augment:
        limits = augment_limits(family, candidates, ctx, lam_elem)

    frontier = list(range(len(vertices)))
    rounds = 0
    while True:
        while frontier:
            rounds += 1
            if rounds > MAX_ROUNDS:
                return _cap_result(IpaStatus.NO_SPECTRAL_GAP, lam, hull,
                                   vertices, candidates, trace, family)
            new_frontier: list[int] = []
            images = []
            for vi in frontier:
                for j in range(1, len(family) + 1):
                    images.append((vi, j,
                                   _apply(family[j - 1], vertices[vi],
                                          inv_lam, j)))
                for li, L in limits:
                    images.append((vi, -(li + 1),
                                   _apply_elem(L, vertices[vi], -(li + 1))))
            for vi, j, img in images:
                if _find_duplicate(vertices, img, hull) is not None:
                    continue
                if _membership(vertices, img, hull, family.dim, opts):
                    continue
                vertices.append(img)
                trace.append({"round": rounds, "vertex": len(vertices) - 1,
                              "parent": vi, "matrix": j})
                new_frontier.append(len(vertices) - 1)
                if len(vertices) > MAX_VERTICES:
                    return _cap_result(IpaStatus.VERTEX_CAP_EXCEEDED, lam,
                                       hull, vertices, candidates, trace,
                                       family)
            frontier = new_frontier
        # frontier empty: certify exactly; any violation re-opens the loop
        evidence, offender = _certify_sweep(vertices, family, inv_lam, hull)
        if offender is None:
            poly = _as_polytope(vertices, hull, family.dim)
            cert = _emit_certificate(family, candidates, lam, ctx, lam_elem,
                                     hull, vertices, seed_map, scales,
                                     evidence, limits)
            return IpaResult(IpaStatus.PROVED, lam, poly,
                             candidates.candidates, trace, cert,
                             diagnostics={"vertices": len(vertices),
                                          "rounds": rounds})
        vi, j, img = offender
        vertices.append(img)
        trace.append({"round": rounds + 1, "vertex": len(vertices) - 1,
                      "parent": vi, "matrix": j})
        frontier = [len(vertices) - 1]
        if len(vertices) > MAX_VERTICES:
            return _cap_result(IpaStatus.VERTEX_CAP_EXCEEDED, lam, hull,
                               vertices, candidates, trace, family)


def _build_field(family: MatrixFamily, candidates: CandidateSet):
    """Context Q(lambda[, imag parts]), lambda embedding, hull kind, seeds."""
    lam = candidates.lambda_

    srs = [spectral_radius(c.value) for c in candidates.candidates]
    if all(m.is_nonnegative() for m in family.matrices):
        hull = HullKind.P
    elif any(sr.leading_complex for sr in srs):
        hull = HullKind.C
    else:
        hull = HullKind.R

    joins: list[RealAlgebraic] = [lam]
    complex_data: list[Optional[tuple]] = []
    if hull is HullKind.C:
        for cand, sr in zip(candidates.candidates, srs):
            if not sr.leading_complex:
                complex_data.append(None)
                continue
            if family.dim != 2:
                return IpaResult(
                    IpaStatus.CASE_C_UNKNOWN, lam, None,
                    candidates.candidates, [],
                    diagnostics={"error": "complex leading eigenvectors are "
                                          "constructed for dimension 2 only"})
            M = cand.value
            (a, b), (c, d) = M.rows
            tau, det = a + d, a * d - b * c
            disc = 4 * det - tau * tau  # positive for a complex pair
            s = nth_root(RealAlgebraic.from_rational(disc), 2)
            joins.append(s)
            complex_data.append((M, tau, s))
    ctx, embedded = field_join(joins)
    lam_elem = embedded[0]

    seeds: list[_Vertex] = []
    k = 1
    ci = 0
    for idx, (cand, sr) in enumerate(zip(candidates.candidates, srs)):
        rho_elem = lam_elem ** cand.length
        if hull is HullKind.C and sr.leading_complex:
            M, tau, _s = complex_data[idx]
            s_elem = embedded[1 + ci]
            ci += 1
            real, imag = _complex_eigvec_dim2(M, tau, s_elem, ctx)
            seeds.append(_Vertex(real, imag, (), idx))
            continue
        sign = 1
        if not _is_eigenvalue(cand.value, rho_elem):
            if _is_eigenvalue(cand.value, -rho_elem):
                sign = -1
            else:
                return IpaResult(
                    IpaStatus.MULTIPLE_LEADING_EIGENVECTOR, lam, None,
                    candidates.candidates, [],
                    diagnostics={"error": "neither +rho nor -rho is an "
                                          "eigenvalue in the field"})
        try:
            v = leading_eigenvector(cand.value, rho_elem, sign=sign)
        except AlgebraicError as exc:
            return IpaResult(
                IpaStatus.MULTIPLE_LEADING_EIGENVECTOR, lam, None,
                candidates.candidates, [], diagnostics={"error": str(exc)})
        if hull is HullKind.P:
            v = _resign_nonnegative(v)
            if v is None:
                return IpaResult(
                    IpaStatus.MULTIPLE_LEADING_EIGENVECTOR, lam, None,
                    candidates.candidates, [],
                    diagnostics={"error": "no nonnegative leading eigenvector"})
        seeds.append(_Vertex(v, [ctx.zero()] * family.dim
                             if hull is HullKind.C else None, (), idx))
    return ctx, lam_elem, hull, seeds


def _complex_eigvec_dim2(M: IntMatrix, tau: int, s_elem: FieldElement, ctx):
    """Real/imag parts of an eigenvector for mu = (tau + i*s)/2."""
    (a, b), (c, d) = M.rows
    half = Fraction(1, 2)
    if b != 0:
        # (b, mu - a)
        real = [ctx.from_rational(b), ctx.from_rational(Fraction(tau, 2) - a)]
        imag = [ctx.zero(), s_elem * half]
    else:
        # (mu - d, c)
        real = [ctx.from_rational(Fraction(tau, 2) - d), ctx.from_rational(c)]
        imag = [s_elem * half, ctx.zero()]
    return real, imag


def _resign_nonnegative(v):
    signs = [c.sign() for c in v]
    if all(s >= 0 for s in signs):
        return list(v)
    if all(s <= 0 for s in signs):
        return [-c for c in v]
    return None


def _apply(A: IntMatrix, vert: _Vertex, inv_lam: FieldElement,
           letter: int) -> _Vertex:
    coords = [c * inv_lam for c in A.apply(vert.coords)]
    imag = None
    if vert.imag is not None:
        imag = [c * inv_lam for c in A.apply(vert.imag)]
    return _Vertex(coords, imag, vert.word + (letter,), vert.seed)


def _apply_elem(L: list[list[FieldElement]], vert: _Vertex,
                letter: int) -> _Vertex:
    """Apply a limit matrix (already normalized: no lambda scaling)."""

    def mv(vec):
        return [sum((L[i][j] * vec[j] for j in range(len(vec))),
                    start=L[0][0] * 0) for i in range(len(L))]

    return _Vertex(mv(vert.coords),
                   mv(vert.imag) if vert.imag is not None else None,
                   vert.word + (letter,), vert.seed)


def _find_duplicate(vertices: list[_Vertex], img: _Vertex,
                    hull: HullKind) -> Optional[int]:
    for i, v in enumerate(vertices):
        if hull is HullKind.C:
            if _gram_equal(v, img):
                return i
        elif _vec_equal(v.coords, img.coords):
            return i
        elif hull is HullKind.R and _vec_equal(_neg(v.coords), img.coords):
            return i
    return None


def _vec_equal(a, b) -> bool:
    return all((x - y).is_zero() if isinstance(x, FieldElement) else x == y
               for x, y in zip(a, b))


def _neg(v):
    return [-c for c in v]


def _gram_equal(a: _Vertex, b: _Vertex) -> bool:
    """Ellipse equality: identical quadratic forms aa^T + bb^T."""
    n = len(a.coords)
    ai = a.imag or [a.coords[0] * 0] * n
    bi = b.imag or [b.coords[0] * 0] * n
    for i in range(n):
        for j in range(i, n):
            ga = a.coords[i] * a.coords[j] + ai[i] * ai[j]
            gb = b.coords[i] * b.coords[j] + bi[i] * bi[j]
            if not (ga - gb).is_zero():
                return False
    return True


def _membership(vertices: list[_Vertex], img: _Vertex, hull: HullKind,
                dim: int, opts: IpaOptions) -> bool:
    """True when the image is provably in the (closed) current hull."""
    poly = _as_polytope(vertices, hull, dim)
    if hull is HullKind.C:
        return norm_ellipse(poly, _complex(img)) is not None
    if hull is HullKind.P and any(c.sign() < 0 for c in img.coords):
        return False
    res = classify_with_fallback(poly, img.coords, opts.mode)
    return res.classification in (Classification.INTERIOR,
                                  Classification.BOUNDARY)


def _complex(v: _Vertex) -> ComplexVertex:
    return ComplexVertex(tuple(v.coords), tuple(v.imag))


def _as_polytope(vertices: list[_Vertex], hull: HullKind,
                 dim: int) -> VertexPolytope:
    if hull is HullKind.C:
        return VertexPolytope(HullKind.C, [_complex(v) for v in vertices], dim)
    return VertexPolytope(hull, [list(v.coords) for v in vertices], dim)


def _certify_sweep(vertices: list[_Vertex], family: MatrixFamily,
                   inv_lam: FieldElement, hull: HullKind):
    """Exact evidence for every (vertex, matrix) image, or the first
    offending image that is provably not coverable."""
    evidence = []
    poly = _as_polytope(vertices, hull, family.dim)
    for vi, vert in enumerate(vertices):
        for j in range(1, len(family) + 1):
            img = _apply(family[j - 1], vert, inv_lam, j)
            dup = _find_duplicate(vertices, img, hull)
            if dup is not None:
                evidence.append({"vertex": vi, "matrix": j,
                                 "type": "vertex", "index": dup})
                continue
            if hull is HullKind.C:
                cover = norm_ellipse(poly, _complex(img))
                if cover is None:
                    return None, (vi, j, img)
                evidence.append({"vertex": vi, "matrix": j, "type": "arcs",
                                 "arcs": [[list(d0), list(d1), k]
                                          for d0, d1, k in cover]})
                continue
            res = minkowski_norm(poly, img.coords)
            ok = res.value is not None and _sgn_vs_one(res.value) <= 0
            if not ok:
                return None, (vi, j, img)
            combo = res.combination()
            evidence.append({"vertex": vi, "matrix": j, "type": "combination",
                             "coeffs": [_ser_scalar(c) for c in combo],
                             "face": res.face})
    return evidence, None


def _cap_result(status: IpaStatus, lam, hull, vertices, candidates, trace,
                family) -> IpaResult:
    poly = _as_polytope(vertices, hull, family.dim) if vertices else None
    return IpaResult(status, lam, poly, candidates.candidates, trace,
                     diagnostics={"vertices": len(vertices)})


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _ser_scalar(x) -> object:
    if isinstance(x, FieldElement):
        return x.serialize()
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else \
        f"{f.numerator}/{f.denominator}"


def _emit_certificate(family, candidates, lam, ctx, lam_elem, hull, vertices,
                      seed_map, scales, evidence, limits) -> dict:
    cert = {
        "schema": SCHEMA,
        "dim": family.dim,
        "alphabet": family.alphabet,
        "family": [m.flat() for m in family.matrices],
        "lambda": lam.serialize(),
        "context": {
            "minpoly": [str(c) for c in ctx.minpoly.coeffs],
            "root_lo": _ser_scalar(ctx.root_interval()[0]),
            "root_hi": _ser_scalar(ctx.root_interval()[1]),
        },
        "lambda_element": [_ser_scalar(c) for c in lam_elem.coords],
        "hull": hull.value,
        "smp_words": [list(c.word) for c in candidates.candidates],
        "seed_map": list(seed_map),
        "balance": [_ser_scalar(s) for s in scales],
        "vertices": [
            {
                "seed": v.seed,
                "word": list(v.word),
                "coords": [_ser_scalar(c) for c in v.coords],
                "imag": [_ser_scalar(c) for c in v.imag]
                        if v.imag is not None else None,
            }
            for v in vertices
        ],
        "evidence": evidence,
        "augmented": [idx for idx, _ in limits],
        "options": {
            "tolerance": repr(NUMERIC_TOLERANCE),
            "search_depth": candidates.depth_reached,
            "search_exhausted": candidates.exhausted,
        },
        "toolchain": {"name": "jsrcert", "schema": SCHEMA},
    }
    return cert


def certificate_to_json(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, separators=(",", ":"))


def certificate_from_json(text: str) -> dict:
    return json.loads(text)


# ---------------------------------------------------------------------------
# the independent verifier
# ---------------------------------------------------------------------------


def verify_certificate(cert: dict) -> VerifyResult:
    """Re-check a Proved claim with exact arithmetic only.

    Checks, in order: the context and lambda parse and are consistent;
    every s.m.p. word attains lambda exactly; every claimed vertex is
    reachable from its seed by its recorded word; every seed satisfies
    its eigen-relation; and for every vertex and family matrix the
    recorded evidence places the scaled image inside the closed hull.
    The lower and upper bound then coincide, so JSR = lambda.
    """
    try:
        return _verify(cert)
    except (KeyError, ValueError, TypeError, AlgebraicError) as exc:
        return VerifyResult(False, f"malformed certificate: {exc}")


def _verify(cert: dict) -> VerifyResult:
    if cert.get("schema") != SCHEMA:
        return VerifyResult(False, "unknown schema")
    dim = int(cert["dim"])
    mats = [IntMatrix.make([row[i * dim:(i + 1) * dim] for i in range(dim)])
            for row in ([list(map(int, f)) for f in cert["family"]])]
    family = MatrixFamily.make(mats, cert.get("alphabet", "general"))
    hull = HullKind(cert["hull"])

    minpoly = IntPolynomial.make([int(c) for c in cert["context"]["minpoly"]])
    ctx = NumberFieldContext(minpoly, Fraction(cert["context"]["root_lo"]),
                             Fraction(cert["context"]["root_hi"]))
    lam_elem = _parse_elem(cert["lambda_element"], ctx)
    lam = RealAlgebraic.deserialize(cert["lambda"])
    # lambda element must match the serialized lambda value
    if compare(lam_elem.to_real_algebraic(), lam) != Ordering.EQUAL:
        return VerifyResult(False, "lambda element does not match lambda")
    if lam.sign() <= 0:
        return VerifyResult(False, "lambda must be positive")

    # (i) s.m.p. words attain lambda exactly: rho(word) == lambda^len
    smp_words = [tuple(int(j) for j in w) for w in cert["smp_words"]]
    if not smp_words:
        return VerifyResult(False, "no s.m.p. words")
    for w in smp_words:
        if not all(1 <= j <= len(family) for j in w):
            return VerifyResult(False, f"s.m.p. word {w} has a letter "
                                       "outside the family")
        rho = spectral_radius(evaluate(w, family).value).value
        if compare(rho, lam.pow(len(w))) != Ordering.EQUAL:
            return VerifyResult(
                False, f"s.m.p. word {w} does not attain lambda")

    verts = cert["vertices"]
    if not verts:
        return VerifyResult(False, "empty vertex list")
    coords = [[_parse_elem_or_scalar(c, ctx) for c in v["coords"]]
              for v in verts]
    imags = [[_parse_elem_or_scalar(c, ctx) for c in v["imag"]]
             if v.get("imag") is not None else None for v in verts]

    # (ii) seeds carry the eigen-relation; vertices are word-reachable
    inv_lam = lam_elem.inverse()
    seed_map = [int(i) for i in cert["seed_map"]]
    if len(seed_map) != len(smp_words):
        return VerifyResult(False, "seed map and s.m.p. list differ in length")
    for si, w in enumerate(smp_words):
        vi = seed_map[si]
        if not (0 <= vi < len(verts)) or verts[vi]["word"]:
            return VerifyResult(False, f"seed for candidate {si} missing")
        if not _check_eigen(evaluate(w, family).value, coords[vi], imags[vi],
                            lam_elem ** len(w), ctx):
            return VerifyResult(False, f"seed {si} eigen-relation fails")
    # limit matrices for augmented reachability letters
    limit_maps: dict[int, list] = {}
    for idx in cert.get("augmented", []):
        w = smp_words[int(idx)]
        L = _limit_matrix(evaluate(w, family).value, lam_elem ** len(w), ctx)
        if L is None:
            return VerifyResult(False, f"limit matrix for candidate {idx} "
                                       "cannot be constructed")
        limit_maps[-(int(idx) + 1)] = L
    for vi, v in enumerate(verts):
        word = tuple(int(j) for j in v["word"])
        if not word:
            continue
        si = int(v["seed"])
        if not (0 <= si < len(seed_map)):
            return VerifyResult(False, f"vertex {vi} references missing seed")
        base = seed_map[si]
        cur_r = list(coords[base])
        cur_i = list(imags[base]) if imags[base] is not None else None
        for j in word:
            if j < 0:
                L = limit_maps.get(j)
                if L is None:
                    return VerifyResult(
                        False, f"vertex {vi} uses undeclared limit matrix")
                cur_r = _apply_rows(L, cur_r, ctx)
                if cur_i is not None:
                    cur_i = _apply_rows(L, cur_i, ctx)
                continue
            if not 1 <= j <= len(family):
                return VerifyResult(
                    False, f"vertex {vi} word has letter {j} outside the family")
            A = family[j - 1]
            cur_r = [c * inv_lam for c in A.apply(cur_r)]
            if cur_i is not None:
                cur_i = [c * inv_lam for c in A.apply(cur_i)]
        if not _vec_equal(cur_r, coords[vi]) or \
                (cur_i is not None and imags[vi] is not None and
                 not _vec_equal(cur_i, imags[vi])):
            return VerifyResult(False, f"vertex {vi} not reachable by its word")

    # (iii) every (vertex, matrix) image is covered by recorded evidence
    evid = {(int(e["vertex"]), int(e["matrix"])): e for e in cert["evidence"]}
    for vi in range(len(verts)):
        for j in range(1, len(family) + 1):
            e = evid.get((vi, j))
            if e is None:
                return VerifyResult(
                    False, f"no evidence for vertex {vi} matrix {j}")
            ok, why = _check_evidence(e, vi, j, family, coords, imags,
                                      inv_lam, hull, ctx)
            if not ok:
                return VerifyResult(
                    False, f"evidence for vertex {vi} matrix {j}: {why}")
    return VerifyResult(True, "lambda certified: lower bound attained and "
                              "closed invariance verified")


def _parse_elem(serialized: list, ctx) -> FieldElement:
    return ctx.element([Fraction(c) for c in serialized])


def _apply_rows(L: list[list[FieldElement]], vec: list, ctx) -> list:
    return [sum((L[i][j] * vec[j] for j in range(len(vec))),
                start=ctx.zero()) for i in range(len(L))]


def _limit_matrix(M: IntMatrix, rho_elem: FieldElement, ctx):
    """The spectral projector of M at +rho, or None when undefined."""
    sr = spectral_radius(M)
    if not sr.leading_simple or sr.leading_complex:
        return None
    if not _is_eigenvalue(M, rho_elem):
        return None
    try:
        v = leading_eigenvector(M, rho_elem)
        w = leading_eigenvector(M.transpose(), rho_elem)
    except AlgebraicError:
        return None
    denom = sum((w[i] * v[i] for i in range(len(v))), start=ctx.zero())
    if denom.is_zero():
        return None
    inv = denom.inverse()
    return [[v[i] * w[j] * inv for j in range(len(v))] for i in range(len(v))]


def _parse_elem_or_scalar(c, ctx) -> FieldElement:
    if isinstance(c, list):
        return _parse_elem(c, ctx)
    return ctx.from_rational(Fraction(c))


def _check_eigen(M: IntMatrix, real, imag, rho_elem: FieldElement, ctx) -> bool:
    """M (real + i*imag) == mu (real + i*imag) for mu in {rho, -rho} or,
    for complex seeds, mu with |mu|^2 = rho^2 read off the Gram identity.

    For real seeds the check is exact sign-insensitive eigen-equation;
    for complex seeds it verifies M maps the ellipse onto itself:
    Gram(M v) == |rho|^2 Gram(v).
    """
    if imag is None or all(c.is_zero() for c in imag):
        img = M.apply(real)
        plus = all((a - rho_elem * b).is_zero() for a, b in zip(img, real))
        minus = all((a + rho_elem * b).is_zero() for a, b in zip(img, real))
        return plus or minus
    n = len(real)
    mi_r = M.apply(real)
    mi_i = M.apply(imag)
    rho_sq = rho_elem * rho_elem
    for i in range(n):
        for j in range(i, n):
            lhs = mi_r[i] * mi_r[j] + mi_i[i] * mi_i[j]
            rhs = (real[i] * real[j] + imag[i] * imag[j]) * rho_sq
            if not (lhs - rhs).is_zero():
                return False
    return True


def _check_evidence(e: dict, vi: int, j: int, family, coords, imags,
                    inv_lam, hull: HullKind, ctx) -> tuple[bool, str]:
    A = family[j - 1]
    img_r = [c * inv_lam for c in A.apply(coords[vi])]
    img_i = [c * inv_lam for c in A.apply(imags[vi])] \
        if imags[vi] is not None else None
    kind = e.get("type")
    if kind == "vertex":
        k = int(e["index"])
        if not 0 <= k < len(coords):
            return False, "vertex reference out of range"
        if hull is HullKind.C:
            tgt = _Vertex(coords[k], imags[k], (), 0)
            got = _Vertex(img_r, img_i, (), 0)
            return (_gram_equal(tgt, got), "ellipse mismatch")
        if _vec_equal(img_r, coords[k]):
            return True, ""
        if hull is HullKind.R and _vec_equal(_neg(img_r), coords[k]):
            return True, ""
        return False, "image does not equal referenced vertex"
    if kind == "combination":
        mu = [_parse_elem_or_scalar(c, ctx) for c in e["coeffs"]]
        if len(mu) != len(coords):
            return False, "combination width mismatch"
        comb = [sum((mu[i] * coords[i][r] for i in range(len(mu))),
                    start=ctx.zero()) for r in range(family.dim)]
        if hull is HullKind.R:
            if not _vec_equal(comb, img_r):
                return False, "combination does not reproduce the image"
            total = sum((_abs_elem(m) for m in mu), start=ctx.zero())
            if (total - 1).sign() > 0:
                return False, "combination weight exceeds 1"
            return True, ""
        if hull is HullKind.P:
            if any(m.sign() < 0 for m in mu):
                return False, "negative cone coefficient"
            for r in range(family.dim):
                if (comb[r] - img_r[r]).sign() < 0:
                    return False, "cone combination does not dominate image"
            total = sum(mu, start=ctx.zero())
            if (total - 1).sign() > 0:
                return False, "cone combination weight exceeds 1"
            return True, ""
        return False, "combination evidence invalid for this hull"
    if kind == "arcs":
        if hull is not HullKind.C or family.dim != 2:
            return False, "arc evidence for a non-elliptic hull"
        arcs = [((int(x0), int(y0)), (int(x1), int(y1)), int(k))
                for (x0, y0), (x1, y1), k in e["arcs"]]
        if not arcs or arcs[0][0] != (1, 0) or arcs[-1][1] != (-1, 0):
            return False, "arc chain does not run from (1, 0) to (-1, 0)"
        if any(a[1] != b[0] for a, b in zip(arcs, arcs[1:])):
            return False, "gap in the arc chain"
        qv = gram_form(ComplexVertex(img_r, img_i))
        for d0, d1, k in arcs:
            if not 0 <= k < len(coords):
                return False, "arc generator out of range"
            if d0[0] * d1[1] - d0[1] * d1[0] <= 0:
                return False, "arc is not counterclockwise"
            qk = gram_form(ComplexVertex(coords[k], imags[k]))
            if not arc_nonnegative([x - y for x, y in zip(qk, qv)], d0, d1):
                return False, f"generator {k} does not cover arc {d0}-{d1}"
        return True, ""
    return False, f"unknown evidence type {kind!r}"


def _abs_elem(x: FieldElement) -> FieldElement:
    return x if x.sign() >= 0 else -x
