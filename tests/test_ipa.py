import copy
import json
from fractions import Fraction

import pytest

from jsrcert import campaign, ipa
from jsrcert.algebraic import (
    IntPolynomial,
    NumberFieldContext,
    Ordering,
    RealAlgebraic,
    compare,
    isolate_real_roots,
    nth_root,
)
from jsrcert.geometry import HullKind
from jsrcert.ipa import (
    MEMBERSHIP_WAYS,
    IpaStatus,
    _apply,
    augment_limits,
    balance,
    certificate_from_json,
    certificate_to_json,
    run_ipa,
    verify_certificate,
)
from jsrcert.matcore import IntMatrix, MatrixFamily, evaluate
from jsrcert.reduce import PairCode, decode
from jsrcert.smp import gripenberg_search

M = IntMatrix.make

# the 2x2 mixed-sign demo family
T_FAMILY = MatrixFamily.make([[[0, 1], [0, 1]], [[1, 0], [1, -1]]])

# F2s pair 4/43: the s.m.p. A2 has eigenvalues 1 +- i (kind C)
C_FAMILY = MatrixFamily.make([[[0, 1], [0, 1]], [[1, -1], [1, 1]]])

# sqrt2-scaled 3x3 showcase family
B_FAMILY = MatrixFamily.make([
    [[0, 0, -1], [0, 0, 0], [0, 1, 0]],
    [[1, 0, -1], [0, 0, -1], [-1, 0, -1]],
])


def _run(family, depth=8, augment=False):
    cs = gripenberg_search(family, max_depth=depth)
    return run_ipa(family, cs, augment=augment), cs


class TestDemoFamily2x2:
    def test_proved_with_three_vertices(self):
        res, cs = _run(T_FAMILY)
        assert res.status is IpaStatus.PROVED
        assert res.lambda_.as_rational() == 1
        assert [c.word for c in res.smps] == [(1,), (2,)]
        assert res.polytope.kind is HullKind.R
        assert len(res.polytope.vertices) == 3

    def test_certificate_verifies(self):
        res, _ = _run(T_FAMILY)
        assert verify_certificate(res.certificate)

    def test_certificate_json_round_trip(self):
        res, _ = _run(T_FAMILY)
        text = certificate_to_json(res.certificate)
        back = certificate_from_json(text)
        assert back == res.certificate
        assert verify_certificate(back)
        # canonical form: sorted keys, no whitespace
        assert text == json.dumps(back, sort_keys=True, separators=(",", ":"))

    def test_deterministic_certificates(self):
        r1, _ = _run(T_FAMILY)
        r2, _ = _run(T_FAMILY)
        assert certificate_to_json(r1.certificate) == \
            certificate_to_json(r2.certificate)


class TestShowcaseFamily3x3:
    def test_proved_sqrt2(self):
        res, cs = _run(B_FAMILY)
        assert res.status is IpaStatus.PROVED
        sqrt2 = nth_root(RealAlgebraic.from_rational(2), 2)
        assert compare(res.lambda_, sqrt2) == Ordering.EQUAL
        assert [c.word for c in res.smps] == [(2,)]
        assert res.polytope.kind is HullKind.R
        assert verify_certificate(res.certificate)

    def test_expected_vertex_count(self):
        # seed + images: v0, A1v0, A1A1v0, A2A1v0, A2A2A1v0
        res, _ = _run(B_FAMILY)
        assert len(res.polytope.vertices) == 5


class TestEllipticFamily2x2:
    def test_proved_with_an_elliptic_hull(self):
        res, _ = _run(C_FAMILY)
        assert res.status is IpaStatus.PROVED
        assert res.polytope.kind is HullKind.C
        sqrt2 = nth_root(RealAlgebraic.from_rational(2), 2)
        assert compare(res.lambda_, sqrt2) == Ordering.EQUAL
        assert verify_certificate(res.certificate)
        kinds = {e["type"] for e in res.certificate["evidence"]}
        assert kinds == {"vertex", "arcs"}

    def test_image_of_a_gram_form_is_the_congruence(self):
        ctx = NumberFieldContext.rational_context()
        A, Q = M([[1, -1], [2, 3]]), M([[2, -1], [-1, 5]])
        q = [ctx.from_rational(x) for x in (2, -1, 5)]
        (want11, want12), (_, want22) = (A @ Q @ A.transpose()).rows
        assert _apply(A, q, HullKind.C) == [want11, want12, want22]
        half = ctx.from_rational(Fraction(1, 2))
        assert _apply(A, q, HullKind.C, half) == \
            [Fraction(x, 2) for x in (want11, want12, want22)]

    def test_context_is_q_of_lambda(self):
        res, _ = _run(C_FAMILY)
        cert = res.certificate
        assert cert["context"]["minpoly"] == ["-2", "0", "1"]
        assert all(len(v["coords"]) == 3 and "imag" not in v
                   for v in cert["vertices"])

    def test_sampled_ellipse_type_is_rejected(self):
        res, _ = _run(C_FAMILY)
        cert = copy.deepcopy(res.certificate)
        arcs = next(e for e in cert["evidence"] if e["type"] == "arcs")
        arcs["type"] = "ellipse"
        check = verify_certificate(cert)
        assert not check and "unknown evidence type 'ellipse'" in check.reason


class TestHandBuiltCertificate:
    def test_showcase_polytope_from_listed_vertices(self):
        """A certificate written by hand from the known invariant polytope
        (eigenvector seed and its four images) must be accepted."""
        res, _ = _run(B_FAMILY)
        cert = res.certificate
        # rebuild the same certificate content by hand from the vertex words
        # words list application order: (1, 2, 2) applies A1 then A2 twice,
        # the vertex usually written A2 A2 A1 v0
        words = [tuple(v["word"]) for v in cert["vertices"]]
        assert () in words
        assert {w for w in words} == {(), (1,), (1, 1), (1, 2), (1, 2, 2)}
        assert verify_certificate(cert)

    def test_tampered_lambda_rejected(self):
        res, _ = _run(T_FAMILY)
        cert = copy.deepcopy(res.certificate)
        cert["lambda"] = RealAlgebraic.from_rational(2).serialize()
        cert["lambda_element"] = ["2"]
        assert not verify_certificate(cert)


class TestMutationTesting:
    def _proved_cert(self, family):
        res, _ = _run(family)
        assert res.status is IpaStatus.PROVED
        return res.certificate

    def _delete_vertex(self, cert, k):
        mut = copy.deepcopy(cert)
        mut["vertices"] = [v for i, v in enumerate(mut["vertices"]) if i != k]
        # reindex evidence rows the way an attacker plausibly would
        keep = []
        for e in mut["evidence"]:
            if int(e["vertex"]) == k:
                continue
            e2 = dict(e)
            if int(e2["vertex"]) > k:
                e2["vertex"] = int(e2["vertex"]) - 1
            if e2.get("type") == "vertex":
                idx = int(e2["index"])
                if idx == k:
                    pass  # dangling reference stays dangling after shift
                elif idx > k:
                    e2["index"] = idx - 1
            keep.append(e2)
        mut["evidence"] = keep
        mut["seed_map"] = [s - 1 if s > k else s for s in mut["seed_map"]]
        return mut

    def test_deleting_any_vertex_rejects(self):
        for family in (T_FAMILY, B_FAMILY, C_FAMILY):
            cert = self._proved_cert(family)
            for k in range(len(cert["vertices"])):
                assert not verify_certificate(self._delete_vertex(cert, k)), \
                    f"deleting vertex {k} was not caught"

    def test_perturbing_any_coordinate_rejects(self):
        for family in (T_FAMILY, B_FAMILY, C_FAMILY):
            cert = self._proved_cert(family)
            for k, v in enumerate(cert["vertices"]):
                for ci in range(len(v["coords"])):
                    mut = copy.deepcopy(cert)
                    coord = mut["vertices"][k]["coords"][ci]
                    if isinstance(coord, list):
                        coord = list(coord)
                        coord[0] = str(Fraction(coord[0]) + Fraction(1, 7))
                        mut["vertices"][k]["coords"][ci] = coord
                    else:
                        mut["vertices"][k]["coords"][ci] = \
                            str(Fraction(coord) + Fraction(1, 7))
                    assert not verify_certificate(mut), \
                        f"perturbing vertex {k} coord {ci} was not caught"


    def test_letter_past_the_family_rejects(self):
        for family in (T_FAMILY, B_FAMILY):
            cert = self._proved_cert(family)
            k = next(i for i, v in enumerate(cert["vertices"]) if v["word"])
            mut = copy.deepcopy(cert)
            mut["vertices"][k]["word"][-1] = len(family) + 1
            assert not verify_certificate(mut)

    def test_letter_zero_rejects(self):
        # letter 0 must not be read as the last matrix of the family
        for family in (T_FAMILY, B_FAMILY):
            cert = self._proved_cert(family)
            last = len(family)
            words = [("vertices", k, v["word"])
                     for k, v in enumerate(cert["vertices"])]
            words += [("smp_words", k, w)
                      for k, w in enumerate(cert["smp_words"])]
            sites = [(key, k, i) for key, k, w in words
                     for i, j in enumerate(w) if j == last]
            assert sites
            for key, k, i in sites:
                mut = copy.deepcopy(cert)
                word = mut[key][k]["word"] if key == "vertices" else mut[key][k]
                word[i] = 0
                assert not verify_certificate(mut), f"{key} {k} letter {i}"

    def test_negative_vertex_index_rejects(self):
        # index -1 must not be read as the last vertex
        for family in (T_FAMILY, B_FAMILY):
            cert = self._proved_cert(family)
            last = len(cert["vertices"]) - 1
            sites = [n for n, e in enumerate(cert["evidence"])
                     if e["type"] == "vertex" and int(e["index"]) == last]
            assert sites
            for n in sites:
                mut = copy.deepcopy(cert)
                mut["evidence"][n]["index"] = -1
                assert not verify_certificate(mut)


    def test_negated_gram_form_rejects(self):
        # F2s 3/43 proves with one vertex; its negated Gram form keeps the
        # eigen-relation, the reachability and the "vertex" evidence, so
        # only the semidefinite seed check can reject it
        fam = MatrixFamily.make(
            list(decode(PairCode.parse("3/43", 2, "sign"))), "sign")
        cert = self._proved_cert(fam)
        assert cert["hull"] == "C" and len(cert["vertices"]) == 1
        mut = copy.deepcopy(cert)
        v = mut["vertices"][0]
        v["coords"] = [[str(-Fraction(x)) for x in c] for c in v["coords"]]
        check = verify_certificate(mut)
        assert not check and "positive semidefinite" in check.reason

    def _arc_mutation(self, change):
        cert = self._proved_cert(C_FAMILY)
        mut = copy.deepcopy(cert)
        e = next(e for e in mut["evidence"] if e["type"] == "arcs")
        change(e["arcs"], len(mut["vertices"]))
        assert verify_certificate(cert)
        return verify_certificate(mut)

    def test_gap_in_arc_chain_rejects(self):
        check = self._arc_mutation(lambda arcs, n: arcs.pop(1))
        assert not check and "gap" in check.reason

    def test_clockwise_arc_rejects(self):
        def detour(arcs, n):
            # a continuous chain whose first arc turns clockwise
            d0, d1, k = arcs[0]
            arcs[0:1] = [[d0, [1, -1], k], [[1, -1], d1, k]]
        check = self._arc_mutation(detour)
        assert not check and "counterclockwise" in check.reason

    def test_arc_generator_out_of_range_rejects(self):
        def past_the_end(arcs, n):
            arcs[0][2] = n
        check = self._arc_mutation(past_the_end)
        assert not check and "out of range" in check.reason

    def test_arc_generator_below_the_image_rejects(self):
        def one_generator(arcs, n):
            # vertex 1 alone does not dominate this image on the half turn
            arcs[:] = [[[1, 0], [0, 1], 1], [[0, 1], [-1, 0], 1]]
        check = self._arc_mutation(one_generator)
        assert not check and "does not cover" in check.reason

    def test_arc_chain_stopping_short_rejects(self):
        check = self._arc_mutation(lambda arcs, n: arcs.pop())
        assert not check and "(-1, 0)" in check.reason


# a binary pair proved with a kind-P polytope of five vertices
CONE_FAMILY = MatrixFamily.make([[[0, 1], [0, 0]], [[1, 0], [1, 1]]],
                                alphabet="binary")


class TestVerifierReusesImages:
    """Reachability takes a vertex's image from its parent, the vertex
    with the same seed and the word one letter shorter, and the evidence
    check reuses it; every tampering is still caught, with the reason a
    letter-by-letter walk from the seed gives."""

    def _cert(self, family):
        res, _ = _run(family)
        assert res.status is IpaStatus.PROVED
        return res.certificate

    def _reason(self, cert) -> str:
        res = verify_certificate(cert)
        assert not res
        return res.reason

    def test_each_image_is_computed_once(self, monkeypatch):
        real = ipa._apply
        for family in (T_FAMILY, B_FAMILY, C_FAMILY):
            cert = self._cert(family)
            steps = []

            def counting(A, coords, hull, scale=None):
                if scale is not None:  # a family letter, scaled by lambda
                    steps.append(1)
                return real(A, coords, hull, scale)

            monkeypatch.setattr(ipa, "_apply", counting)
            assert verify_certificate(cert)
            monkeypatch.setattr(ipa, "_apply", real)
            assert len(steps) == len(cert["vertices"]) * len(family)

    def test_altered_child_of_an_existing_parent_rejects(self):
        # B_FAMILY vertex 4 has the word (1, 2, 2); vertex 3 has (1, 2)
        cert = self._cert(B_FAMILY)
        assert [cert["vertices"][k]["word"] for k in (3, 4)] == [[1, 2], [1, 2, 2]]
        mut = copy.deepcopy(cert)
        mut["vertices"][4]["coords"][0] = str(Fraction(
            mut["vertices"][4]["coords"][0][0]) + 1)
        assert self._reason(mut) == "vertex 4 not reachable by its word"

    def test_altered_parent_is_named_before_its_child(self):
        cert = self._cert(B_FAMILY)
        mut = copy.deepcopy(cert)
        coords = mut["vertices"][3]["coords"]
        coords[1] = [str(Fraction(c) * 3) for c in coords[1]]
        assert self._reason(mut) == "vertex 3 not reachable by its word"

    def test_word_whose_prefix_names_no_vertex_rejects(self):
        cert = self._cert(B_FAMILY)
        mut = copy.deepcopy(cert)
        mut["vertices"][4]["word"] = [2, 2, 2]  # no vertex has (2, 2)
        assert self._reason(mut) == "vertex 4 not reachable by its word"

    def test_letter_outside_the_family_rejects(self):
        cert = self._cert(B_FAMILY)
        for word, letter in (([1, 2, 3], 3), ([1, 3, 2], 3), ([1, 2, 0], 0)):
            mut = copy.deepcopy(cert)
            mut["vertices"][4]["word"] = word
            assert self._reason(mut) == \
                f"vertex 4 word has letter {letter} outside the family"

    def test_undeclared_limit_letter_rejects(self):
        cert = self._cert(B_FAMILY)
        for word in ([1, 2, -1], [1, -1, 2], [-1]):
            mut = copy.deepcopy(cert)
            mut["vertices"][4]["word"] = word
            assert self._reason(mut) == "vertex 4 uses undeclared limit matrix"


class TestEvidenceRecordedWhenDecided:
    @pytest.mark.parametrize("family, hull, way", [
        (CONE_FAMILY, HullKind.P, "domination"),
        (B_FAMILY, HullKind.R, "exact_lp")])
    def test_combination_from_a_smaller_hull_verifies(self, monkeypatch,
                                                      family, hull, way):
        widths = []

        def spy(*args):
            ev = membership(*args)
            if ev is not None and ev["type"] == "combination":
                widths.append(len(ev["coeffs"]))
            return ev

        membership = ipa._membership
        monkeypatch.setattr(ipa, "_membership", spy)
        res, _ = _run(family, depth=14)
        assert res.status is IpaStatus.PROVED and res.polytope.kind is hull
        n = len(res.polytope.vertices)
        # evidence recorded while later vertices were still to come
        assert widths and min(widths) < n
        assert res.diagnostics["membership"][way] > 0
        combos = [e for e in res.certificate["evidence"]
                  if e["type"] == "combination"]
        assert len(combos) == len(widths)
        assert all(len(e["coeffs"]) == n for e in combos)
        assert verify_certificate(res.certificate)

    @pytest.mark.parametrize("family", [CONE_FAMILY, B_FAMILY, C_FAMILY,
                                        T_FAMILY])
    def test_membership_counts_every_query_once(self, family):
        res, _ = _run(family, depth=14)
        counts = res.diagnostics["membership"]
        assert tuple(counts) == MEMBERSHIP_WAYS
        # each vertex has its image under each matrix decided once
        assert sum(counts.values()) == \
            len(res.polytope.vertices) * len(family)
        assert _run(family, depth=14)[0].diagnostics["membership"] == counts


# the F2s orbit representatives with first code 1, 4 or 5 whose invariant
# body is a polytope: kind P (1/44, 4/10, 4/16) or kind R
POLYGON_F2S = ["1/44", "4/10", "4/14", "4/16", "4/37", "4/38", "4/39", "4/41",
               "4/45", "4/46", "4/47", "4/48", "4/50", "4/51", "4/53", "5/11",
               "5/13", "5/14", "5/17", "5/37", "5/38", "5/39", "5/41", "5/42",
               "5/44", "5/46", "5/47", "5/51", "5/53"]


class TestPlanarMembershipWithoutLP:
    """Dimension-2 queries never reach the LP prefilter: with it made to
    raise, every polygon campaign still proves and its certificates
    verify (`recheck`)."""

    @pytest.fixture
    def no_prefilter(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dimension-2 query reached the LP prefilter")

        monkeypatch.setattr(ipa, "classify_with_fallback", refuse)
        campaign._block_record.cache_clear()
        yield
        campaign._block_record.cache_clear()

    def _membership(self, store_path):
        records = list(campaign.Store(store_path).records.values())
        proved = [r for r in records if r["status"] == "proved"]
        assert all(r["membership"]["exact_lp"] == 0 for r in proved)
        return records, sum(r["membership"]["two_vertex"] for r in proved)

    def test_f2s_polygon_representatives(self, tmp_path, no_prefilter):
        store_path = tmp_path / "f2s.jsonl"
        summary = campaign.run_campaign("sign", 2, store_path,
                                        codes=POLYGON_F2S, recheck=True)
        assert summary["counts"] == {"proved": len(POLYGON_F2S)}
        records, two_vertex = self._membership(store_path)
        assert sorted(r["hull"] for r in records) == ["P"] * 3 + ["R"] * 26
        assert two_vertex > 0

    def test_full_f2(self, tmp_path, no_prefilter):
        store_path = tmp_path / "f2.jsonl"
        summary = campaign.run_campaign("binary", 2, store_path, recheck=True)
        assert summary["counts"] == {"settled": 52, "proved": 6,
                                     "duplicate": 198}
        self._membership(store_path)


class TestCertificateContext:
    @pytest.mark.parametrize("family", [C_FAMILY, B_FAMILY],
                             ids=["kind_C", "kind_R"])
    def test_text_does_not_depend_on_refinement(self, monkeypatch, family):
        # emit twice, the second time after refining the context root
        # far past any interval the run used
        emitted = []

        def emit_twice(fam, candidates, lam, ctx, *rest):
            first = emit(fam, candidates, lam, ctx, *rest)
            for _ in range(64):
                ctx.refine_root()
            second = emit(fam, candidates, lam, ctx, *rest)
            emitted.append((certificate_to_json(first),
                            certificate_to_json(second)))
            return first

        emit = ipa._emit_certificate
        monkeypatch.setattr(ipa, "_emit_certificate", emit_twice)
        res, _ = _run(family)
        assert res.status is IpaStatus.PROVED and verify_certificate(res.certificate)
        [(first, second)] = emitted
        assert first == second
        # the widest dyadic cell [k/2^j, (k+1)/2^j] isolating lambda
        context = res.certificate["context"]
        lo, hi = Fraction(context["root_lo"]), Fraction(context["root_hi"])
        width = hi - lo
        assert width.numerator == 1 and width.denominator & (width.denominator - 1) == 0
        assert (lo / width).denominator == 1
        assert not res.lambda_.is_rational

    def test_rational_context_is_a_point(self):
        res, _ = _run(T_FAMILY)
        context = res.certificate["context"]
        assert context["root_lo"] == context["root_hi"]


class TestSingletonFamily:
    def test_single_matrix_hull_without_interior_not_proved(self):
        # the run closes on the one vertex e1, but the polytope is the
        # segment [0, e1] of a reducible family: it has no interior, so
        # it bounds no norm and the run must not claim a proof
        fam = MatrixFamily.make([[[2, 1], [0, 1]]])
        res, cs = _run(fam, depth=4)
        assert res.status is IpaStatus.NOT_A_BODY
        assert res.status.value == "not_a_body"
        assert res.certificate is None
        assert res.lambda_.as_rational() == 2
        assert len(res.polytope.vertices) == 1

    def test_campaign_stores_it_unresolved(self):
        rec = campaign.resolve_family(MatrixFamily.make([[[2, 1], [0, 1]]]))
        assert (rec["status"], rec["reason"]) == ("unresolved", "not_a_body")


class TestRejectedInputs:
    # {[1 1; 0 1], [1 0; 1 1]} has JSR the golden ratio; a certificate
    # claiming 1 with the single seed 0 passes every check but the body
    FAMILY = MatrixFamily.make([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])

    def _zero_seed_certificate(self, hull):
        return {
            "schema": "jsr-certificate/1", "dim": 2, "alphabet": "general",
            "family": [m.flat() for m in self.FAMILY.matrices],
            "lambda": RealAlgebraic.from_rational(1).serialize(),
            "context": {"minpoly": ["0", "1"], "root_lo": "0", "root_hi": "0"},
            "lambda_element": ["1"], "hull": hull, "smp_words": [[1]],
            "seed_map": [0], "balance": ["1"],
            "vertices": [{"seed": 0, "word": [], "coords": ["0", "0"]}],
            "evidence": [{"vertex": 0, "matrix": j, "type": "vertex",
                          "index": 0} for j in (1, 2)],
            "augmented": [],
        }

    @pytest.mark.parametrize("hull", ["R", "P"])
    def test_zero_seed_rejected(self, hull):
        check = verify_certificate(self._zero_seed_certificate(hull))
        assert not check and "not a body" in check.reason

    def test_reducible_context_rejected(self):
        res, _ = _run(C_FAMILY)
        cert = copy.deepcopy(res.certificate)
        assert cert["context"]["minpoly"] == ["-2", "0", "1"]
        # x^4 - 4 = (x^2 - 2)(x^2 + 2) has the same root sqrt2
        cert["context"]["minpoly"] = ["-4", "0", "0", "0", "1"]
        check = verify_certificate(cert)
        assert not check and "not irreducible" in check.reason

    def test_generator_at_another_root_of_lambda_rejected(self):
        # the context interval isolates -sqrt2, a root of lambda's minimal
        # polynomial, so the generator is not lambda
        res, _ = _run(C_FAMILY)
        cert = copy.deepcopy(res.certificate)
        assert cert["lambda_element"] == ["0", "1"]
        assert cert["context"]["minpoly"] == ["-2", "0", "1"]
        cert["context"]["root_lo"], cert["context"]["root_hi"] = "-2", "-1"
        check = verify_certificate(cert)
        assert not check
        assert check.reason == "lambda element does not match lambda"

    def test_interval_isolating_no_root_rejected(self):
        res, _ = _run(C_FAMILY)
        cert = copy.deepcopy(res.certificate)
        cert["context"]["root_lo"], cert["context"]["root_hi"] = "2", "3"
        check = verify_certificate(cert)
        assert not check and "does not isolate" in check.reason


class TestConeHull:
    def test_nonnegative_family_uses_cone(self):
        fam = MatrixFamily.make([[[0, 1], [0, 0]], [[1, 0], [1, 1]]],
                                alphabet="binary")
        cs = gripenberg_search(fam, max_depth=14)
        assert cs.exhausted
        res = run_ipa(fam, cs)
        assert res.status is IpaStatus.PROVED
        assert res.polytope.kind is HullKind.P
        assert compare(res.lambda_.pow(5),
                       RealAlgebraic.from_rational(4)) == Ordering.EQUAL
        assert verify_certificate(res.certificate)


class TestBalance:
    def test_single_candidate(self):
        sqrt2 = isolate_real_roots(IntPolynomial.make([-2, 0, 1]))[1]
        ctx = NumberFieldContext.from_real_algebraic(sqrt2)
        out = balance([[ctx.one(), ctx.one()]], T_FAMILY)
        assert out == [1]

    def test_identical_seeds_up_to_sign(self):
        ctx = NumberFieldContext.rational_context()
        v = [ctx.one(), ctx.one()]
        w = [-ctx.one(), -ctx.one()]
        out = balance([v, w], T_FAMILY)
        assert out == [1, 1]

    def test_demo_family_seeds_mutually_non_interior(self):
        from jsrcert.geometry import VertexPolytope, minkowski_norm

        res, _ = _run(T_FAMILY)
        cert = res.certificate
        seeds = [v for v in cert["vertices"] if not v["word"]]
        assert len(seeds) == 2
        # rational context: each coordinate serializes as a 1-element list
        vecs = [[Fraction(c[0] if isinstance(c, list) else c)
                 for c in s["coords"]] for s in seeds]
        for i in (0, 1):
            poly = VertexPolytope(HullKind.R, [vecs[1 - i]], 2)
            r = minkowski_norm(poly, vecs[i])
            assert r.value is None or r.value >= 1


class TestAugmentLimits:
    def test_diagonal_projector(self):
        fam = MatrixFamily.make([[[2, 0], [0, 1]]])
        cs = gripenberg_search(fam, max_depth=3)
        ctx = NumberFieldContext.rational_context()
        lam_elem = ctx.from_rational(2)
        out = augment_limits(fam, cs, ctx, lam_elem)
        assert len(out) == 1
        idx, L = out[0]
        vals = [[c.as_rational() for c in row] for row in L]
        assert vals == [[1, 0], [0, 0]]

    def test_fibonacci_projector_idempotent(self):
        fam = MatrixFamily.make([[[1, 1], [1, 0]]])
        cs = gripenberg_search(fam, max_depth=3)
        phi = cs.lambda_
        ctx = NumberFieldContext.from_real_algebraic(phi)
        out = augment_limits(fam, cs, ctx, ctx.generator())
        assert len(out) == 1
        _, L = out[0]
        # L^2 == L exactly
        n = len(L)
        sq = [[sum((L[i][k] * L[k][j] for k in range(n)), start=ctx.zero())
               for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert (sq[i][j] - L[i][j]).is_zero()

    def test_plus_minus_leading_skipped(self):
        # second showcase matrix has leading eigenvalues +-sqrt2
        cs = gripenberg_search(B_FAMILY, max_depth=8)
        lam = cs.lambda_
        ctx = NumberFieldContext.from_real_algebraic(lam)
        out = augment_limits(B_FAMILY, cs, ctx, ctx.generator())
        assert out == []

    def test_augmented_run_still_verifies(self):
        fam = MatrixFamily.make([[[0, 1], [0, 0]], [[1, 0], [1, 1]]],
                                alphabet="binary")
        cs = gripenberg_search(fam, max_depth=14)
        res = run_ipa(fam, cs, augment=True)
        assert res.status is IpaStatus.PROVED
        assert verify_certificate(res.certificate)
