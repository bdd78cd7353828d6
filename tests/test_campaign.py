import gc
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from jsrcert import campaign, geometry, matcore
from jsrcert.algebraic import RealAlgebraic
from jsrcert.campaign import (
    Store,
    _word_str,
    diff_expected,
    load_expected_csv,
    parse_smp_word,
    resolve_code,
    run_campaign,
)
from jsrcert.matcore import MatrixFamily, evaluate
from jsrcert.reduce import PairCode, decode
from jsrcert.smp import gripenberg_search

DATA = Path(__file__).resolve().parent.parent / "data"


class TestWordNotation:
    @pytest.mark.parametrize("table", ["expected_f2.csv",
                                       "expected_f3_blocks.csv"])
    def test_parse_inverts_word_str_on_table_rows(self, table):
        rows = load_expected_csv(DATA / table)
        assert rows
        for row in rows:
            assert _word_str(parse_smp_word(row.smp_word)) == row.smp_word

    def test_parse_returns_application_order(self):
        # A1 A2^2 applies A2 twice, then A1
        assert parse_smp_word("A1A2^2") == [2, 2, 1]
        fam = MatrixFamily.make([[[0, 1], [0, 0]], [[1, 0], [1, 1]]])
        value = evaluate(parse_smp_word("A1A2^2"), fam).value
        assert value == fam[0] @ fam[1] @ fam[1]


class TestF2Campaign:
    def test_full_f2_campaign_matches_expected_table(self, tmp_path):
        store_path = tmp_path / "f2.jsonl"
        summary = run_campaign("binary", 2, store_path)
        assert summary["total"] == 256
        result = diff_expected(Store(store_path),
                               load_expected_csv(DATA / "expected_f2.csv"))
        assert (result["pass"], result["fail"], result["missing"]) == (6, 0, 0)


# the F2s orbit representatives whose invariant body is an elliptic hull
KIND_C_F2S = ["1/16", "1/42", "3/16", "3/17", "3/43", "3/49", "4/15", "4/17",
              "4/42", "4/43", "4/49", "5/15", "5/16", "5/43", "5/48", "5/49",
              "12/16", "12/32", "16/32", "16/47", "16/50", "32/47"]


class TestF2sEllipticCases:
    def test_every_kind_c_representative_is_proved(self, tmp_path):
        store_path = tmp_path / "f2s.jsonl"
        summary = run_campaign("sign", 2, store_path, codes=KIND_C_F2S,
                               recheck=True)
        assert summary["counts"] == {"proved": 22}
        store = Store(store_path)
        assert {store.get(c)["hull"] for c in KIND_C_F2S} == {"C"}
        # the certificates work in Q(lambda), whatever the discriminants
        for c in KIND_C_F2S:
            rec = store.get(c)
            lam = RealAlgebraic.deserialize(rec["jsr"])
            assert len(rec["certificate"]["context"]["minpoly"]) == \
                lam.degree + 1, c


def _records(path):
    return {code: {k: v for k, v in rec.items() if k != "seconds"}
            for code, rec in Store(path).records.items()}


class TestStoreRecovery:
    # canonical and duplicate F2 codes: 2/1 links to 1/2
    CODES = ["1/2", "2/1", "3/5", "6/9", "11/13"]

    def test_resume_after_a_torn_last_line(self, tmp_path):
        whole, torn = tmp_path / "whole.jsonl", tmp_path / "torn.jsonl"
        run_campaign("binary", 2, whole, codes=self.CODES)
        data = whole.read_bytes()
        torn.write_bytes(data[:-20])
        run_campaign("binary", 2, torn, codes=self.CODES)
        assert _records(torn) == _records(whole)
        for line in torn.read_text().splitlines():
            json.loads(line)

    def test_complete_last_line_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_campaign("binary", 2, path, codes=self.CODES)
        before = _records(path)
        path.write_bytes(path.read_bytes()[:-1])
        assert _records(path) == before
        assert path.read_bytes().endswith(b"}\n")

    def test_torn_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_campaign("binary", 2, path, codes=self.CODES)
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:-20]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(json.JSONDecodeError):
            Store(path)


    def test_each_appended_line_is_on_disk_before_close(self, tmp_path):
        # one handle for the run, flushed per line: a kill loses at most
        # the line being written
        path = tmp_path / "s.jsonl"
        store = Store(path, "binary", 2)
        try:
            for code in ("1/2", "3/5"):
                store.append({"code": code, "status": "settled"})
                assert path.read_text().splitlines()[-1] == json.dumps(
                    {"code": code, "status": "settled"})
        finally:
            store.close()
        store.append({"code": "6/9", "status": "settled"})  # opens again
        store.close()
        assert list(Store(path).records) == ["1/2", "3/5", "6/9"]


class TestHeapFreeze:
    def test_the_run_freezes_the_heap_and_thaws_it(self, tmp_path):
        assert gc.get_freeze_count() == 0
        during = []
        run_campaign("binary", 2, tmp_path / "s.jsonl", codes=["1/2"],
                     progress=lambda rec: during.append(gc.get_freeze_count()))
        assert during and all(n > 0 for n in during)
        assert gc.get_freeze_count() == 0

    def test_a_callers_freeze_is_left_as_it_was(self, tmp_path):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_campaign("binary", 2, tmp_path / "s.jsonl", codes=["1/2"])
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()


def _lines_without_seconds(path):
    out = []
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        rec.pop("seconds", None)
        out.append(json.dumps(rec, sort_keys=True))
    return out


class TestDeterministicRecords:
    # proved, settled, reducible, unresolved and duplicate F3 cases
    CODES = ["3/374", "3/378", "3/440", "3/66", "3/1", "3/2", "3/5", "3/9"]

    def test_case_order_and_warm_caches_do_not_change_the_store(self, tmp_path):
        matcore._spectral_radius_of.cache_clear()
        campaign._block_record.cache_clear()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_campaign("binary", 3, first, codes=self.CODES)
        # the second run finds every spectral radius and block in the cache
        run_campaign("binary", 3, second, codes=self.CODES[::-1])
        assert matcore._spectral_radius_of.cache_info().hits > 0
        assert campaign._block_record.cache_info().hits > 0
        assert _lines_without_seconds(first) == _lines_without_seconds(second)


class TestGoldenRecords:
    """The stored records of two whole dimension-2 sets, of half the F3
    A1=3 slice, of the F3 A1=1 slice (quick lemmas only) and of the F3
    records that take the exact dimension-3 LP, pinned by the sha256 of
    their lines with `seconds` dropped (the header included, each line
    `json.dumps(..., sort_keys=True)`, joined by newlines).  The
    dimension-2 sets do not reach the float LP prefilter, so their pins
    do not depend on the scipy build; the F3 records do, and their
    membership counts show its verdicts.  A change that is meant to alter
    records must update the pin here and say which records changed and
    why."""

    F2 = "5fc7b8ee7094544b91a053fc391b8860cb91526ab9d0acd37ae917e9931cb663"
    # the F2s orbit representatives with first code 1, 4 or 5: every
    # kind-R and kind-C hull of the benchmark's f2s-hulls workload
    F2S_HULLS = "8436da07d33b0557263451c86ecbab30f4655e225267ecfcdb769ac13306a858"
    # the F3 A1=3 records proved with one exact LP each: kind-P polytopes
    # in dimension 3, so the simplex's pivots are among what they pin
    F3_LP_CODES = ("3/116", "3/117", "3/372", "3/373", "3/380", "3/381")
    F3_LP = "b85e9eaed48cd6ead14c4eb4191c010ce4d78745dc6435fceb585c96f9de1df3"

    # half of the F3 A1=3 slice, drawn once with seed 0: the benchmark's
    # f3-search sample, whose 3x3 radii take the characteristic cubic's
    # closed form
    F3_SEARCH = "29ebf8615c7c27b8132349d6b437ab1ded3c002a2c6e5d868883d27ee1341254"

    # the F3 A1=1 slice, codes 1/0 to 1/511, every one settled by a quick
    # lemma or a duplicate: the zero record is the out-of-slice 0/1
    F3_A1_1 = "4b80592e9eb57f0115a6fa9583335c2cae5cf31238038e79e04dd686f5cf981b"

    def _digest(self, path) -> str:
        text = "\n".join(_lines_without_seconds(path))
        return hashlib.sha256(text.encode()).hexdigest()

    def _check(self, path, pin: str, what: str) -> None:
        got = self._digest(path)
        assert got == pin, (
            f"the {what} records changed (sha256 {got}); if the change is "
            f"intended, set the pin to it and name the changed records in "
            f"CHANGES.md")

    def test_full_f2(self, tmp_path):
        store_path = tmp_path / "f2.jsonl"
        run_campaign("binary", 2, store_path)
        self._check(store_path, self.F2, "full-F2")

    def test_f2s_hull_representatives(self, f2s_hulls_store):
        self._check(f2s_hulls_store, self.F2S_HULLS, "f2s-hulls")

    def test_f3_search_sample(self, f3_search_store):
        store_path, summary = f3_search_store
        assert summary["counts"] == {"settled": 207, "proved": 46,
                                     "duplicate": 7, "unresolved": 1}
        self._check(store_path, self.F3_SEARCH, "f3-search sample")

    def test_f3_quick_lemma_slice(self, tmp_path):
        store_path = tmp_path / "f3a1.jsonl"
        run_campaign("binary", 3, store_path, only_a1=1)
        kinds = Counter(
            "duplicate" if rec["status"] == "duplicate"
            else (rec["status"], *rec["witness"])
            for rec in Store(store_path).records.values())
        assert kinds == {("settled", "zero_member"): 1,
                         ("settled", "dominating"): 53,
                         ("settled", "product_order"): 58,
                         ("settled", "sub_identity"): 56,
                         "duplicate": 345}
        self._check(store_path, self.F3_A1_1, "F3 A1=1")

    def test_f3_exact_lp_records(self, tmp_path):
        store_path = tmp_path / "f3.jsonl"
        run_campaign("binary", 3, store_path, codes=list(self.F3_LP_CODES))
        store = Store(store_path)
        for code in self.F3_LP_CODES:
            assert store.get(code)["membership"]["exact_lp"] >= 1
        self._check(store_path, self.F3_LP, "F3 exact-LP")


class TestNoTableauInThePlane:
    """Dimension-2 pairs build no simplex tableau: their seeds are
    balanced by two-vertex weights and their images decided without an
    LP.  With `geometry.simplex_solve` refusing, these records keep the
    sha256 (of `json.dumps(..., sort_keys=True)`, `seconds` dropped) they
    had when balancing solved an exact LP: five kind-C seeds (1/16),
    three kind-R seeds (4/53), and a kind-C certificate whose fifth seed
    is scaled by 3/2 (16/47)."""

    PINS = {
        "1/16": ("C", 5, "1954a4b29674786559cd79f793a9d91dbba925387b8fd069c34cc79a27125dd8"),
        "4/53": ("R", 3, "e9bed54d215b78e5dd2ecef96a2bdb55ef7a79a68dd5abf4dc8c2d04d5add28f"),
        "16/47": ("C", 8, "38701bc1d47c4e7799f465a1f8524338f8eb5f889dd81232e94f6a11d339e931"),
    }

    def test_records_without_the_simplex(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a simplex tableau in dimension 2")

        monkeypatch.setattr(geometry, "simplex_solve", refuse)
        for code, (hull, seeds, pin) in self.PINS.items():
            rec = resolve_code(PairCode.parse(code, 2, "sign"))
            rec.pop("seconds")
            balance = rec["certificate"]["balance"]
            assert (rec["hull"], len(balance)) == (hull, seeds), code
            got = hashlib.sha256(json.dumps(rec, sort_keys=True).encode())
            assert got.hexdigest() == pin, code
        assert balance == ["1", "1", "1", "1", "3/2", "1", "1", "1"]


class TestBlockMemo:
    def test_each_caller_gets_block_records_of_its_own(self):
        campaign._block_record.cache_clear()
        code = PairCode.parse("3/72", 3, "binary")  # a proved and a settled block
        first = resolve_code(code)["witness"]["block_records"]
        expected = json.dumps(first, sort_keys=True)
        first[0]["status"] = first[1]["status"] = "tampered"
        second = resolve_code(code)["witness"]["block_records"]
        assert campaign._block_record.cache_info().hits >= 2
        assert json.dumps(second, sort_keys=True) == expected


class TestSearchTelemetry:
    @staticmethod
    def _tree(family, depth):
        cs = gripenberg_search(family, max_depth=depth)
        return {"nodes": cs.nodes_visited,
                "frobenius_prunes": cs.frobenius_prunes,
                "two_norm_prunes": cs.two_norm_prunes,
                "two_norm_checks": cs.two_norm_checks,
                "radius_checks": cs.radius_checks,
                "depth": cs.depth_reached, "exhausted": cs.exhausted}

    @pytest.mark.parametrize("text", ["3/108", "3/374"])
    def test_proved_record_carries_its_search_tree(self, text):
        code = PairCode.parse(text, 3, "binary")
        rec = resolve_code(code)
        family = MatrixFamily.make(list(decode(code)), "binary")
        assert rec["status"] == "proved"
        assert rec["search"] == self._tree(family, rec["gripenberg_depth"])

    def test_only_the_searched_block_carries_a_tree(self):
        # 3/72 splits into a proved and a settled block; the pair itself
        # is never searched
        rec = resolve_code(PairCode.parse("3/72", 3, "binary"))
        proved, settled = rec["witness"]["block_records"]
        assert "search" not in rec and "search" not in settled
        assert proved["search"]["nodes"] > 0


class TestDepthLadder:
    def test_an_exhausted_search_is_not_deepened(self, monkeypatch):
        # F2s 16/16: the search closes at depth 3 and the IPA ends
        # multiple_leading_eigenvector, so no deeper rung can change either
        code = PairCode.parse("16/16", 2, "sign")
        search, ipa = campaign.gripenberg_search, campaign.run_ipa
        depths, ipa_runs = [], []

        def counted_search(family, max_depth):
            depths.append(max_depth)
            return search(family, max_depth=max_depth)

        def counted_ipa(family, cs):
            ipa_runs.append(cs)
            return ipa(family, cs)

        monkeypatch.setattr(campaign, "gripenberg_search", counted_search)
        monkeypatch.setattr(campaign, "run_ipa", counted_ipa)
        rec = resolve_code(code)
        assert depths == [10] and len(ipa_runs) == 1
        assert rec["status"] == "unresolved" and rec["search"]["exhausted"]
        # a ladder that kept climbing ended on its last rung, and stored
        # that rung's search and IPA run
        monkeypatch.setattr(campaign, "DEPTH_LADDER", campaign.DEPTH_LADDER[-1:])
        last_rung = resolve_code(code)
        del rec["seconds"], last_rung["seconds"]
        assert rec == last_rung
