"""Self-tests for the benchmark's oracle, case cap and tracing.

    python3 -m pytest perfbench
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
from jsrcert.campaign import run_campaign  # noqa: E402
from jsrcert.ipa import verify_certificate  # noqa: E402
from jsrcert.reduce import PairCode, decode  # noqa: E402


def test_decode_matches_pipeline():
    for alphabet, dim, codes in (("binary", 2, ["2/9", "11/13", "15/0"]),
                                 ("sign", 2, ["3/16", "80/41", "4/42"]),
                                 ("binary", 3, ["3/66", "273/511", "0/1"])):
        for code in codes:
            ours = oracle.decode(code, dim, alphabet)
            theirs = decode(PairCode.parse(code, dim, alphabet))
            assert ours.tolist() == [[list(row) for row in m.rows]
                                     for m in theirs], code


def test_upper_value_narrows_the_stored_interval():
    # the golden ratio, stored with a wide isolating interval
    assert abs(oracle.upper_value("minpoly=[-1,-1,1];interval=[3/2,2]")
               - (1 + 5 ** 0.5) / 2) < 1e-12
    assert oracle.upper_value("minpoly=[0,1];interval=[0,0]") == 0.0


def test_percentile_estimates():
    values = list(range(1, 102))
    assert abs(run.percentile(values, 50) - 51) < 1e-6
    assert abs(run.percentile(values, 90) - 91) < 0.5
    assert run.percentile([7.0] * 30, 90) == 7.0


def test_oracle_flags_only_the_f2_record_2_9(tmp_path):
    # 2/9 pairs a nilpotent matrix with the identity: the pipeline stores
    # JSR 0 today, but the identity alone has spectral radius 1
    store = tmp_path / "f2.jsonl"
    run_campaign("binary", 2, store)
    records = run.load_store(store)
    assert records["2/9"]["jsr"] == "minpoly=[0,1];interval=[0,0]"
    assert oracle.audit(records, 2, "binary", verify_certificate) == {
        "below_bound": ["2/9"], "rejected": []}


def test_killed_case_is_counted(tmp_path, monkeypatch):
    # 3/16 runs for more than 8 s; 1/1 settles in milliseconds
    monkeypatch.setattr(run, "CAP_S", 0.5)
    wl = run.Workload("sign", 2, [["3/16", "1/1"]], True)
    p = run.run_pass(wl, random.Random(0), tmp_path / "s.jsonl", False)
    assert p.over_cap == ["3/16"]
    assert p.outcome["3/16"] == ("over_cap",)
    assert p.outcome["1/1"][0] == "settled"
    assert "3/16" not in p.records
    assert 0.5 <= p.wall_s < 3.0
    assert sorted(p.case_s)[-1] == 0.5
    assert run.missing_records(wl, p) == []


def test_tracing_leaves_records_unchanged(tmp_path):
    # proved, settled, unresolved and duplicate cases of the A1=3 slice
    codes = ["3/374", "3/378", "3/440", "3/66", "3/1", "3/2", "3/5", "3/9"]
    wl = run.Workload("binary", 3, [codes], False)
    plain = run.run_pass(wl, random.Random(1), tmp_path / "p.jsonl", False)
    traced = run.run_pass(wl, random.Random(2), tmp_path / "t.jsonl", True)
    assert traced.outcome == plain.outcome
    assert {rec["status"] for rec in plain.records.values()} == {
        "proved", "settled", "unresolved", "duplicate"}
    (summary,) = traced.trace
    assert summary["calls"]["campaign.resolve_code"] == len(plain.case_s)
    assert summary["calls"]["smp.gripenberg_search"] >= 3
    # blocks of a reducible pair may be proved too, without a record
    assert summary["counts"]["ipa.run_ipa.proved"] >= 3
    spans = summary["spans"]
    assert all(end >= start for _, _, start, end, _ in spans)
    assert all(spans[parent][2] <= start
               for _, _, start, _, parent in spans if parent >= 0)
