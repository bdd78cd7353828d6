"""The invariant polytope algorithm with mixed numeric/symbolic containment.

Given candidate spectral-maximizing products with value lambda, the
algorithm scales the family by 1/lambda inside the exact field
Q(lambda), seeds a polytope with balanced leading eigenvectors, and
keeps adding images that cannot be proven inside the current hull.  An
empty frontier means every image lies in the closed hull; the run then
emits a self-contained certificate whose every claim is re-checkable by
pure exact arithmetic (verify_certificate), with no re-run of any
search.

In kinds P and R a vertex is a vector v and its image under A is
A v / lambda.  In kind C (dimension 2) a vertex is the Gram form
(q11, q12, q22) of its ellipse {a cos t + b sin t}, Q = a a^T + b b^T,
and its image is A Q A^T / lambda^2; a seed with the complex leading
eigenvector a + ib needs only b b^T, which is rational, so every hull
kind works in Q(lambda).  A certificate lists each vertex's "coords"
(the vector, or in kind C the Gram form), its reachability word from a
seed, the seeds' eigen-relations, and one piece of evidence for every
(vertex, matrix) image, of one of three types:

- "vertex": the image equals a vertex (up to sign in kind R);
- "combination" (kinds P and R): coefficients whose absolute values sum
  to at most 1 and whose combination of the vertices equals the image
  (kind R) or, all nonnegative, dominates it entrywise (kind P);
- "arcs" (kind C): a counterclockwise chain of integer directions from
  (1, 0) to (-1, 0), each arc naming a vertex whose quadratic form is at
  least the image's on every direction of the arc.

A run keeps one vertex store, a `VertexPolytope` grown in place, with
each vertex's word and seed alongside.  Each image is decided once, and
its evidence is recorded then (see `_membership` for the order of the
tests): an equal vertex (`VertexPolytope.find`); in kind C an arc cover;
in kind P a single dominating vertex; a coordinate bound that puts it
outside; in dimension 2 a combination of two vertices, exact and without
an LP (a two-row LP has basic solutions on two vertices); and only in
other dimensions the float LP, which may rule the image out, else the
exact LP, whose combination places it inside.  An image not shown
inside becomes a vertex.  Vertices are only ever appended, so a
combination over the vertices of its time stays valid; the certificate
pads it with zeros.

A run that closes on a hull without interior ends NOT_A_BODY, since
such a hull bounds no norm.  The certificate writes the root of
Q(lambda) as its widest isolating dyadic cell, as `RealAlgebraic.serialize`
does, so its text depends on lambda alone and not on how far the run
refined it.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from typing import Optional

from .algebraic import (
    AlgebraicError,
    FieldElement,
    IntPolynomial,
    NumberFieldContext,
    RealAlgebraic,
    integer_combinations,
    is_power,
    linear_combination,
    real_algebraic_root,
)
from .geometry import (
    NUMERIC_TOLERANCE,
    HullKind,
    VertexPolytope,
    arc_nonnegative,
    classify_with_fallback,
    dominating_vertex,
    interior_norm,
    minkowski_norm,
    norm_ellipse,
    outside_bound,
    two_vertex_combination,
)
from .linalg import add_to_basis
from .matcore import (
    IntMatrix,
    MatrixFamily,
    Product,
    evaluate,
    is_eigenvalue,
    leading_eigenvector,
    spectral_radius,
)
from .smp import CandidateSet

SCHEMA = "jsr-certificate/1"
MAX_VERTICES = 512
MAX_ROUNDS = 64
BALANCE_ROUNDS = 16
# how a membership query was decided; IpaResult.diagnostics["membership"]
# counts the queries of a proved run by these keys
MEMBERSHIP_WAYS = ("duplicate", "arc_cover", "domination", "bound",
                   "two_vertex", "numeric_exterior", "exact_lp")


class IpaStatus(enum.Enum):
    PROVED = "proved"
    VERTEX_CAP_EXCEEDED = "vertex_cap_exceeded"
    NO_SPECTRAL_GAP = "no_spectral_gap"
    MULTIPLE_LEADING_EIGENVECTOR = "multiple_leading_eigenvector"
    # the run closed on a hull without interior, which bounds no norm
    NOT_A_BODY = "not_a_body"
    # a complex leading eigenvalue in dimension other than 2
    CASE_C_UNKNOWN = "case_c_unknown"


@dataclass
class _Vertex:
    """Where a vertex of the store came from; its coordinates (kind C:
    the Gram form) are the polytope's vertex of the same index."""

    word: tuple  # generating word, seed-first application order
    seed: int  # seed index


@dataclass
class IpaResult:
    status: IpaStatus
    lambda_: RealAlgebraic
    polytope: Optional[VertexPolytope]
    smps: list[Product]
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


def balance(eigs: list, family: MatrixFamily,
            hull: HullKind = HullKind.R) -> list[Fraction]:
    """Rational scales making every seed non-interior to the others' hull.

    A seed strictly inside the hull of the remaining scaled seeds, at
    norm < 1, is scaled by 1/lo for a positive rational lo <= norm (the
    lower end of the norm's interval), which puts it on the boundary
    when the norm is rational (3/2 on the sign pair 16/47) and outside
    otherwise.  The loop runs until stable or for BALANCE_ROUNDS rounds,
    in which case the current scales are returned (the caller proceeds
    unbalanced and surfaces any non-termination).  In dimension 2 the
    norm of a seed strictly inside comes from two-vertex weights
    (`interior_norm`); other dimensions solve the exact LP
    (`minkowski_norm`).
    """
    n = len(eigs)
    if n <= 1:
        return [Fraction(1)] * n
    scales = [Fraction(1)] * n
    for _ in range(BALANCE_ROUNDS):
        changed = False
        for i in range(n):
            others = [_scale_vec(eigs[j], scales[j]) for j in range(n) if j != i]
            poly = VertexPolytope(hull, others, family.dim)
            me = _scale_vec(eigs[i], scales[i])
            if family.dim == 2:
                norm = interior_norm(poly, me)
            else:
                norm = minkowski_norm(poly, me).value
                if norm is not None and (norm - 1).sign() >= 0:
                    norm = None  # on the boundary or outside: fine
            if norm is not None:
                norm.sign()  # refines the root until 0 < lo
                scales[i] = scales[i] / norm.interval()[0]
                changed = True
        if not changed:
            return scales
    return scales


def _scale_vec(v, s: Fraction):
    return [c * s for c in v]


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


# ---------------------------------------------------------------------------
# the algorithm
# ---------------------------------------------------------------------------


def run_ipa(family: MatrixFamily, candidates: CandidateSet,
            augment: bool = False) -> IpaResult:
    """Run the polytope algorithm on the candidates' lambda; with
    `augment`, also map every vertex by the candidates' limit matrices
    (`augment_limits`)."""
    if not candidates.candidates:
        raise ValueError("need at least one candidate product")
    lam = candidates.lambda_
    if lam.sign() <= 0:
        raise ValueError("the polytope algorithm needs lambda > 0")

    setup = _build_field(family, candidates)
    if isinstance(setup, IpaResult):
        return setup
    ctx, lam_elem, hull, seeds, imag_sq = setup

    # balance the seeds (kind C: their real parts) as a kind-R hull; a
    # Gram form scales by the square of its seed's scale
    scales = balance(seeds, family, HullKind.R if hull is HullKind.C else hull)
    for k, (sc, d) in enumerate(zip(scales, imag_sq)):
        seeds[k] = _scale_vec(seeds[k], sc)
        if hull is HullKind.C:
            r0, r1 = seeds[k]
            seeds[k] = [r0 * r0, r0 * r1, r1 * r1 + d * sc * sc]

    inv_lam = lam_elem.inverse()
    scale = inv_lam * inv_lam if hull is HullKind.C else inv_lam
    # the one vertex store, grown in place: vertices are only ever
    # appended, so evidence recorded against a prefix stays valid;
    # `vertices[i]` says where `poly.vertices[i]` came from
    poly = VertexPolytope(hull, [], family.dim)
    vertices: list[_Vertex] = []
    # deduplicate seeds (ties may share an eigenvector up to sign)
    seed_map: list[int] = []
    for idx, coords in enumerate(seeds):
        dup = poly.find(coords)
        if dup is None:
            dup = len(vertices)
            poly.vertices.append(coords)
            vertices.append(_Vertex((), idx))
        seed_map.append(dup)

    limits = []
    if augment:
        limits = augment_limits(family, candidates, ctx, lam_elem)
    maps = [(j, family[j - 1], scale) for j in range(1, len(family) + 1)]
    maps += [(-(li + 1), L, None) for li, L in limits]

    evidence: dict[tuple[int, int], dict] = {}
    counts = dict.fromkeys(MEMBERSHIP_WAYS, 0)
    frontier = list(range(len(vertices)))
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > MAX_ROUNDS:
            return _cap_result(IpaStatus.NO_SPECTRAL_GAP, lam, poly, candidates)
        new_frontier: list[int] = []
        for vi in frontier:
            vert = vertices[vi]
            for j, A, sc in maps:
                img = _apply(A, poly.vertices[vi], hull, sc)
                ev = _membership(poly, img, counts)
                if ev is None:
                    poly.vertices.append(img)
                    vertices.append(_Vertex(vert.word + (j,), vert.seed))
                    new_frontier.append(len(vertices) - 1)
                    if len(vertices) > MAX_VERTICES:
                        return _cap_result(IpaStatus.VERTEX_CAP_EXCEEDED, lam,
                                           poly, candidates)
                    ev = {"type": "vertex", "index": len(vertices) - 1}
                if j > 0:  # the certificate covers the family's matrices
                    evidence[vi, j] = ev
        frontier = new_frontier
    if not _has_interior(poly.vertices, hull, family.dim):
        return _cap_result(IpaStatus.NOT_A_BODY, lam, poly, candidates)
    cert = _emit_certificate(family, candidates, lam, ctx, lam_elem, poly,
                             vertices, seed_map, scales, evidence, limits)
    return IpaResult(IpaStatus.PROVED, lam, poly, candidates.candidates, cert,
                     diagnostics={"vertices": len(vertices), "rounds": rounds,
                                  "membership": counts})


def _build_field(family: MatrixFamily, candidates: CandidateSet):
    """Context Q(lambda), lambda embedding, hull kind and seeds.

    Seed k belongs to candidate k.  Kind-C seeds are their eigenvector's
    real part; the last item lists, per seed,
    the square of the one nonzero entry of its imaginary part (0 for a
    real seed), which sits on the (2,2) entry of the Gram form.
    """
    lam = candidates.lambda_
    if lam.is_rational:
        ctx = NumberFieldContext.rational_context()
        lam_elem = ctx.from_rational(lam.as_rational())
    else:
        ctx = NumberFieldContext.from_real_algebraic(lam)
        lam_elem = ctx.generator()

    srs = [spectral_radius(c.value) for c in candidates.candidates]
    if all(min(m.entries) >= 0 for m in family.matrices):
        hull = HullKind.P
    elif any(sr.leading_complex for sr in srs):
        hull = HullKind.C
        if family.dim != 2:
            return IpaResult(
                IpaStatus.CASE_C_UNKNOWN, lam, None, candidates.candidates,
                diagnostics={"error": "elliptic hulls are built for "
                                      "dimension 2 only"})
    else:
        hull = HullKind.R

    seeds: list[list] = []
    imag_sq: list[Fraction] = []
    for cand, sr in zip(candidates.candidates, srs):
        if hull is HullKind.C and sr.leading_complex:
            # mu = (tau + i s)/2 with s^2 = 4 det - tau^2 has the eigenvector
            # (b, mu - a); b != 0, since a triangular matrix has real
            # eigenvalues
            (a, b), (c, d) = cand.value.rows
            tau, det = a + d, a * d - b * c
            seeds.append([ctx.from_rational(b),
                          ctx.from_rational(Fraction(tau, 2) - a)])
            imag_sq.append(det - Fraction(tau * tau, 4))
            continue
        rho_elem = lam_elem ** cand.length
        if not is_eigenvalue(cand.value, rho_elem):
            rho_elem = -rho_elem
            if not is_eigenvalue(cand.value, rho_elem):
                return IpaResult(
                    IpaStatus.MULTIPLE_LEADING_EIGENVECTOR, lam, None,
                    candidates.candidates,
                    diagnostics={"error": "neither +rho nor -rho is an "
                                          "eigenvalue in the field"})
        try:
            v = leading_eigenvector(cand.value, rho_elem)
        except AlgebraicError as exc:
            return IpaResult(
                IpaStatus.MULTIPLE_LEADING_EIGENVECTOR, lam, None,
                candidates.candidates, diagnostics={"error": str(exc)})
        if hull is HullKind.P:
            v = _resign_nonnegative(v)
            if v is None:
                return IpaResult(
                    IpaStatus.MULTIPLE_LEADING_EIGENVECTOR, lam, None,
                    candidates.candidates,
                    diagnostics={"error": "no nonnegative leading eigenvector"})
        seeds.append(v)
        imag_sq.append(Fraction(0))
    return ctx, lam_elem, hull, seeds, imag_sq


def _resign_nonnegative(v):
    signs = [c.sign() for c in v]
    if all(s >= 0 for s in signs):
        return list(v)
    if all(s <= 0 for s in signs):
        return [-c for c in v]
    return None


def _apply(A, coords: list, hull: HullKind, scale=None) -> list:
    """A v in kinds P and R, A Q A^T in kind C, times scale when given.

    A is a family matrix or a limit matrix given by its rows over the
    field (limit matrices are already normalized: no scale).  In kind C
    the congruence is linear in (q11, q12, q22), with the matrix
    `_congruence(A)`, so a family matrix maps every kind through the
    one integer-combination kernel (`algebraic.integer_combinations`),
    and a limit matrix through `algebraic.linear_combination`.
    """
    if isinstance(A, IntMatrix):
        rows = _congruence(A.rows) if hull is HullKind.C else A.rows
        coords = integer_combinations(rows, coords)
    else:
        # the combination of L's columns with the coordinates as weights
        rows = _congruence(A) if hull is HullKind.C else A
        coords = linear_combination(coords[0].context, coords, list(zip(*rows)))
    return coords if scale is None else [c * scale for c in coords]


def _congruence(rows) -> tuple:
    """The matrix of Q -> A Q A^T on Gram forms (q11, q12, q22), for
    A = [[a, b], [c, d]]."""
    (a, b), (c, d) = rows
    return ((a * a, 2 * a * b, b * b),
            (a * c, a * d + b * c, b * d),
            (c * c, 2 * c * d, d * d))


def _neg(v):
    return [-c for c in v]


def _membership(poly: VertexPolytope, x: list, counts: dict) -> Optional[dict]:
    """Certificate evidence placing the image x in the closed hull, or
    None when x must become a vertex.

    Tried in order, the first that decides wins and is counted in
    `counts`: an equal vertex ("duplicate"); kind C, one arc cover
    ("arc_cover"); kind P, a vertex dominating x ("domination"); a
    coordinate or sum bound x violates ("bound").  Then in dimension 2
    the two-vertex test, whose float weights put x far outside
    ("numeric_exterior") or whose exact pairs decide it ("two_vertex");
    in other dimensions the float LP, whose far-exterior verdict stands
    ("numeric_exterior"), or else the exact LP ("exact_lp").  A kind-P
    polytope of one vertex that does not dominate x counts as "bound"
    without `outside_bound`: some x_j exceeds that vertex's v_j.
    Combination coefficients cover the vertices as they are now; the
    certificate pads them with zeros.
    """
    dup = poly.find(x)
    if dup is not None:
        counts["duplicate"] += 1
        return {"type": "vertex", "index": dup}
    if poly.kind is HullKind.C:
        counts["arc_cover"] += 1
        cover = norm_ellipse(poly, x)
        if cover is None:
            return None
        return {"type": "arcs",
                "arcs": [[list(d0), list(d1), k] for d0, d1, k in cover]}
    # x in floats, once for every float test below; each conversion of a
    # Q(lambda) coordinate evaluates it at the root refined to 1e-17.  A
    # one-vertex kind-P polytope is decided exactly, without them.
    cone = poly.kind is HullKind.P
    xf = None if cone and len(poly.vertices) == 1 else [float(c) for c in x]
    if cone:
        i = dominating_vertex(poly, x, xf)
        if i is not None:
            counts["domination"] += 1
            zero = x[0] * 0
            coeffs = [zero] * len(poly.vertices)
            coeffs[i] = zero + 1
            return {"type": "combination", "coeffs": coeffs, "face": [i]}
        if xf is None:
            # some x_j exceeds the one vertex's v_j: the coordinate bound
            # `outside_bound` would find, without its floats
            counts["bound"] += 1
            return None
    if outside_bound(poly, x, xf):
        counts["bound"] += 1
        return None
    if poly.dim == 2:
        res, way = two_vertex_combination(poly, x, xf), "two_vertex"
    else:
        res, way = classify_with_fallback(poly, x, xf), "exact_lp"
    if res.numeric:
        counts["numeric_exterior"] += 1
        return None
    counts[way] += 1
    if res.combination is None:
        return None
    return {"type": "combination", "coeffs": res.combination,
            "face": res.face}


def _cap_result(status: IpaStatus, lam, poly: VertexPolytope,
                candidates) -> IpaResult:
    return IpaResult(status, lam, poly, candidates.candidates,
                     diagnostics={"vertices": len(poly.vertices)})


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _ser_scalar(x) -> object:
    if isinstance(x, FieldElement):
        return x.serialize()
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else \
        f"{f.numerator}/{f.denominator}"


def _emit_certificate(family, candidates, lam, ctx, lam_elem, poly, vertices,
                      seed_map, scales, evidence, limits) -> dict:
    """The certificate; `evidence` maps (vertex, matrix) to the evidence
    recorded when that image was decided."""
    zero = ctx.zero()
    root_lo, root_hi = ctx.root_cell()
    records = []
    for (vi, j), e in sorted(evidence.items()):
        rec = {"vertex": vi, "matrix": j, **e}
        if e["type"] == "combination":
            pad = [zero] * (len(vertices) - len(e["coeffs"]))
            rec["coeffs"] = [_ser_scalar(c) for c in e["coeffs"] + pad]
        records.append(rec)
    cert = {
        "schema": SCHEMA,
        "dim": family.dim,
        "alphabet": family.alphabet,
        "family": [m.flat() for m in family.matrices],
        "lambda": lam.serialize(),
        "context": {
            "minpoly": [str(c) for c in ctx.minpoly.coeffs],
            "root_lo": _ser_scalar(root_lo),
            "root_hi": _ser_scalar(root_hi),
        },
        "lambda_element": [_ser_scalar(c) for c in lam_elem.coords],
        "hull": poly.kind.value,
        "smp_words": [list(c.word) for c in candidates.candidates],
        "seed_map": list(seed_map),
        "balance": [_ser_scalar(s) for s in scales],
        "vertices": [
            {
                "seed": v.seed,
                "word": list(v.word),
                "coords": [_ser_scalar(c) for c in coords],
            }
            for v, coords in zip(vertices, poly.vertices)
        ],
        "evidence": records,
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

    Checks, in order: the context, lambda and vertices parse and are
    consistent; every s.m.p. word attains lambda exactly; every seed
    satisfies its eigen-relation (in kind C: its Gram form Q is positive
    semidefinite with M Q M^T = rho^2 Q); every claimed vertex is
    reachable from its seed by its recorded word; the hull has interior;
    and for every vertex and family matrix the recorded evidence places
    the scaled image inside the closed hull.  The lower and upper bound
    then coincide, so JSR = lambda.

    Each (vertex, family matrix) image is computed once, and both
    reachability and the evidence check read it.  Vertices are checked
    in index order, so an earlier vertex with the same seed and the word
    w already equals the seed's image under w, and a vertex with the
    word w + (j,) is compared with that vertex's image under j, which is
    the seed's image under w + (j,) (induction on the word length).
    With no such earlier vertex, or a last letter that is not a family
    letter, the word is walked from the seed, so every rejection keeps
    the reason a walk gives.
    """
    if not isinstance(cert, dict):
        return VerifyResult(False, "malformed certificate: not a JSON object")
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
    if hull is HullKind.C and dim != 2:
        return VerifyResult(False, "an elliptic hull needs dimension 2")

    minpoly = IntPolynomial.make([int(c) for c in cert["context"]["minpoly"]])
    root_lo = Fraction(cert["context"]["root_lo"])
    root_hi = Fraction(cert["context"]["root_hi"])
    if real_algebraic_root(minpoly, root_lo, root_hi).minpoly != minpoly:
        return VerifyResult(False, "context polynomial is not irreducible")
    ctx = NumberFieldContext(minpoly, root_lo, root_hi)
    lam_elem = ctx.element(cert["lambda_element"])
    lam = RealAlgebraic.deserialize(cert["lambda"])
    # lambda element must match the serialized lambda value
    if not is_power(lam_elem.to_real_algebraic(), lam, 1):
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
        if not is_power(rho, lam, len(w)):
            return VerifyResult(
                False, f"s.m.p. word {w} does not attain lambda")

    verts = cert["vertices"]
    if not verts:
        return VerifyResult(False, "empty vertex list")
    coords = [[_parse_elem_or_scalar(c, ctx) for c in v["coords"]]
              for v in verts]
    width = 3 if hull is HullKind.C else dim
    if any(len(c) != width for c in coords):
        return VerifyResult(False, "vertex coordinates have the wrong width")

    # (ii) seeds carry the eigen-relation; vertices are word-reachable
    inv_lam = lam_elem.inverse()
    scale = inv_lam * inv_lam if hull is HullKind.C else inv_lam
    seed_map = [int(i) for i in cert["seed_map"]]
    if len(seed_map) != len(smp_words):
        return VerifyResult(False, "seed map and s.m.p. list differ in length")
    for si, w in enumerate(smp_words):
        vi = seed_map[si]
        if not (0 <= vi < len(verts)) or verts[vi]["word"]:
            return VerifyResult(False, f"seed for candidate {si} missing")
        M, rho_elem = evaluate(w, family).value, lam_elem ** len(w)
        if hull is HullKind.C:
            if not _is_psd(coords[vi]):
                return VerifyResult(
                    False, f"seed {si} Gram form is not positive semidefinite")
            ok = _apply(M, coords[vi], hull) == \
                [c * rho_elem * rho_elem for c in coords[vi]]
        else:
            img = M.apply(coords[vi])
            ok = img == [c * rho_elem for c in coords[vi]] or \
                img == [-c * rho_elem for c in coords[vi]]
        if not ok:
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
    images: dict[tuple[int, int], list] = {}

    def image(vi: int, j: int) -> list:
        """The scaled image of vertex vi under family matrix j, computed
        once for reachability and evidence alike."""
        img = images.get((vi, j))
        if img is None:
            img = images[vi, j] = _apply(family[j - 1], coords[vi], hull, scale)
        return img

    # vertices checked so far, by (seed, word): each equals its seed's
    # image under its word, so a child's image is one step from it
    reached: dict[tuple[int, tuple], int] = {}
    for vi, v in enumerate(verts):
        word = tuple(int(j) for j in v["word"])
        if not word:
            continue
        si = int(v["seed"])
        if not (0 <= si < len(seed_map)):
            return VerifyResult(False, f"vertex {vi} references missing seed")
        *prefix, j = word
        parent = seed_map[si] if not prefix else reached.get((si, tuple(prefix)))
        if parent is not None and 1 <= j <= len(family):
            cur = image(parent, j)
        else:
            cur = coords[seed_map[si]]
            for j in word:
                if j < 0:
                    L = limit_maps.get(j)
                    if L is None:
                        return VerifyResult(
                            False, f"vertex {vi} uses undeclared limit matrix")
                    cur = _apply(L, cur, hull)
                    continue
                if not 1 <= j <= len(family):
                    return VerifyResult(
                        False, f"vertex {vi} word has letter {j} outside the family")
                cur = _apply(family[j - 1], cur, hull, scale)
        if cur != coords[vi]:
            return VerifyResult(False, f"vertex {vi} not reachable by its word")
        reached.setdefault((si, word), vi)

    # (iii) the hull is a body, so its gauge is a norm
    if not _has_interior(coords, hull, dim):
        return VerifyResult(False, "the hull has no interior: not a body")

    # (iv) every (vertex, matrix) image is covered by recorded evidence
    evid = {(int(e["vertex"]), int(e["matrix"])): e for e in cert["evidence"]}
    for vi in range(len(verts)):
        for j in range(1, len(family) + 1):
            e = evid.get((vi, j))
            if e is None:
                return VerifyResult(
                    False, f"no evidence for vertex {vi} matrix {j}")
            ok, why = _check_evidence(e, image(vi, j), coords, hull, ctx)
            if not ok:
                return VerifyResult(
                    False, f"evidence for vertex {vi} matrix {j}: {why}")
    return VerifyResult(True, "lambda certified: lower bound attained and "
                              "closed invariance verified")


def _limit_matrix(M: IntMatrix, rho_elem: FieldElement, ctx):
    """The spectral projector of M at +rho, or None when undefined."""
    sr = spectral_radius(M)
    if not sr.leading_simple or sr.leading_complex:
        return None
    if not is_eigenvalue(M, rho_elem):
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
        return ctx.element(c)
    return ctx.from_rational(Fraction(c))


def _is_psd(q: list) -> bool:
    q11, q12, q22 = q
    return q11.sign() >= 0 and q22.sign() >= 0 and \
        (q11 * q22 - q12 * q12).sign() >= 0


def _has_interior(coords: list, hull: HullKind, dim: int) -> bool:
    """Kind P: every coordinate is positive in some vertex.  Kind R: the
    vertices span R^dim.  Kind C: the sum of the Gram forms is positive
    definite."""
    if hull is HullKind.P:
        return all(any(c[r].sign() > 0 for c in coords) for r in range(dim))
    if hull is HullKind.R:
        basis: list = []
        for c in coords:
            add_to_basis(basis, c)
        return len(basis) == dim
    q11, q12, q22 = (sum(c[i] for c in coords) for i in range(3))
    return q11.sign() > 0 and (q11 * q22 - q12 * q12).sign() > 0


def _check_evidence(e: dict, img: list, coords: list, hull: HullKind,
                    ctx) -> tuple[bool, str]:
    kind = e.get("type")
    if kind == "vertex":
        k = int(e["index"])
        if not 0 <= k < len(coords):
            return False, "vertex reference out of range"
        if img == coords[k]:
            return True, ""
        if hull is HullKind.R and _neg(img) == coords[k]:
            return True, ""
        return False, "image does not equal referenced vertex"
    if kind == "combination":
        mu = [_parse_elem_or_scalar(c, ctx) for c in e["coeffs"]]
        if len(mu) != len(coords):
            return False, "combination width mismatch"
        comb = linear_combination(ctx, mu, coords)
        if hull is HullKind.R:
            if comb != img:
                return False, "combination does not reproduce the image"
            total = sum((_abs_elem(m) for m in mu), start=ctx.zero())
            if (total - 1).sign() > 0:
                return False, "combination weight exceeds 1"
            return True, ""
        if hull is HullKind.P:
            if any(m.sign() < 0 for m in mu):
                return False, "negative cone coefficient"
            for r in range(len(img)):
                if (comb[r] - img[r]).sign() < 0:
                    return False, "cone combination does not dominate image"
            total = sum(mu, start=ctx.zero())
            if (total - 1).sign() > 0:
                return False, "cone combination weight exceeds 1"
            return True, ""
        return False, "combination evidence invalid for this hull"
    if kind == "arcs":
        if hull is not HullKind.C:
            return False, "arc evidence for a non-elliptic hull"
        arcs = [((int(x0), int(y0)), (int(x1), int(y1)), int(k))
                for (x0, y0), (x1, y1), k in e["arcs"]]
        if not arcs or arcs[0][0] != (1, 0) or arcs[-1][1] != (-1, 0):
            return False, "arc chain does not run from (1, 0) to (-1, 0)"
        if any(a[1] != b[0] for a, b in zip(arcs, arcs[1:])):
            return False, "gap in the arc chain"
        for d0, d1, k in arcs:
            if not 0 <= k < len(coords):
                return False, "arc generator out of range"
            if d0[0] * d1[1] - d0[1] * d1[0] <= 0:
                return False, "arc is not counterclockwise"
            if not arc_nonnegative([x - y for x, y in zip(coords[k], img)],
                                   d0, d1):
                return False, f"generator {k} does not cover arc {d0}-{d1}"
        return True, ""
    return False, f"unknown evidence type {kind!r}"


def _abs_elem(x: FieldElement) -> FieldElement:
    return x if x.sign() >= 0 else -x
