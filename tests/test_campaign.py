from pathlib import Path

import pytest

from jsrcert.campaign import (
    Store,
    _word_str,
    diff_expected,
    load_expected_csv,
    parse_smp_word,
    run_campaign,
)
from jsrcert.matcore import MatrixFamily, evaluate

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
