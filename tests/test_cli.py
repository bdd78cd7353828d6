import json

import pytest

from jsrcert.campaign import Store
from jsrcert.cli import main


def test_certify_report_and_verify(tmp_path, capsys):
    store = tmp_path / "c.jsonl"
    assert main(["certify", "--alphabet", "sign", "--dim", "2",
                 "--codes", "3/16,4/43", "--store", str(store),
                 "--strict", "--recheck", "--quiet"]) == 0
    assert main(["report", "--store", str(store), "--strict"]) == 0

    cert = Store(store).get("3/16")["certificate"]
    good = tmp_path / "cert.json"
    good.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", "--certificate", str(good)]) == 0
    assert capsys.readouterr().out.startswith("ACCEPT")

    arcs = next(e for e in cert["evidence"] if e["type"] == "arcs")
    arcs["arcs"].pop()  # the chain now stops short of (-1, 0)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert main(["verify", "--certificate", str(bad)]) == 1
    assert capsys.readouterr().out.startswith("REJECT")


def test_solve_writes_a_certificate_that_verifies(tmp_path, capsys):
    # F2s pair 4/43, proved with an elliptic hull
    family = tmp_path / "c.json"
    family.write_text(json.dumps([[[0, 1], [0, 1]], [[1, -1], [1, 1]]]))
    assert main(["solve", "--matrices", str(family)]) == 0
    cert = tmp_path / "c.certificate.json"
    assert cert.is_file()
    capsys.readouterr()
    assert main(["verify", "--certificate", str(cert)]) == 0
    assert capsys.readouterr().out.startswith("ACCEPT")


def test_solve_reports_an_unsupported_pair_as_an_error(tmp_path, capsys):
    # a 4x4 binary pair whose spectral radius meets the complex pair of a
    # degree-4 factor, which the exact kernels do not handle
    family = tmp_path / "q.json"
    family.write_text(json.dumps(
        [[[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 1, 0], [0, 1, 0, 1]],
         [[1, 0, 1, 0], [1, 1, 1, 1], [1, 0, 1, 1], [0, 0, 1, 0]]]))
    assert main(["solve", "--matrices", str(family)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "degree 4" in err
    assert not (tmp_path / "q.certificate.json").exists()


def test_solve_settles_pairs_with_entries_beyond_a_float(tmp_path, capsys):
    # the companion matrix C of x^3 - N x^2 - 1 has a radius just above N:
    # paired with N I, the commuting-order lemma compares it with N, and
    # paired with the zero matrix it is rendered from an interval about
    # 2N wide
    from jsrcert.algebraic import RealAlgebraic

    for N, other, reason in [
            (2**1100 + 1, [[2**1100 + 1 if i == j else 0 for j in range(3)]
                           for i in range(3)], "commuting_order"),
            (2**60 + 7, [[0] * 3] * 3, "zero")]:
        family = tmp_path / "big.json"
        family.write_text(json.dumps([[[N, 0, 1], [1, 0, 0], [0, 1, 0]], other]))
        capsys.readouterr()
        assert main(["solve", "--matrices", str(family)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["status"], rec["reason"]) == ("settled", reason)
        assert rec["jsr"] == f"minpoly=[-1,0,{-N},1];interval=[{N},{N + 1}]"
        assert RealAlgebraic.deserialize(rec["jsr"]).serialize() == rec["jsr"]


def test_solve_proves_a_pair_whose_radii_are_closer_than_a_fixed_guard(
        tmp_path, capsys):
    # with N = 2^100 + 1, the companion matrix of x^3 - N x^2 - 1 and the
    # transpose of that of x^3 - N x^2 - 2 have radii about 1/N^2 apart,
    # from intervals about N wide: the search orders them only with more
    # than 256 halvings, within their root-separation bound
    N = 2**100 + 1
    family = tmp_path / "close.json"
    family.write_text(json.dumps([[[N, 0, 1], [1, 0, 0], [0, 1, 0]],
                                  [[N, 1, 0], [0, 0, 1], [2, 0, 0]]]))
    assert main(["solve", "--matrices", str(family)]) == 0
    rec = json.JSONDecoder().raw_decode(capsys.readouterr().out)[0]
    assert rec["status"] == "proved"
    assert main(["verify", "--certificate",
                 str(tmp_path / "close.certificate.json")]) == 0


@pytest.mark.parametrize("data", [
    [[[1.5, 0], [0, 1]], [[1, 0], [0, 1]]],  # a float, not truncated to 1
    [[[1.0, 0], [0, 1]], [[1, 0], [0, 1]]],
    [[[True, 0], [0, 1]], [[1, 0], [0, 1]]],  # a JSON boolean
    [[["1", 0], [0, 1]], [[1, 0], [0, 1]]],
    [[[None, 0], [0, 1]], [[1, 0], [0, 1]]],
    [1, 2],  # members that are not matrices
    [[1, 2], [3, 4]],  # rows that are not lists
    [[[1, 0], [0]], [[1, 0], [0, 1]]],  # rows of different lengths
    [[[1, 0], [0, 1]], []],  # a matrix without rows
    [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1]]],  # not square
    [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],  # two dimensions
    [],
    {"matrices": [[[1]]]},
])
def test_solve_rejects_invalid_input(tmp_path, capsys, data):
    family = tmp_path / "bad.json"
    family.write_text(json.dumps(data))
    assert main(["solve", "--matrices", str(family)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert not (tmp_path / "bad.certificate.json").exists()


@pytest.mark.parametrize("text", ["[]", "3", "null", '"certificate"'])
def test_verify_rejects_a_certificate_that_is_not_an_object(
        tmp_path, capsys, text):
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    assert main(["verify", "--certificate", str(cert)]) == 1
    assert capsys.readouterr().out.startswith("REJECT: malformed certificate")


def test_a_missing_store_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    for argv in (["report", "--store", str(missing)],
                 ["report", "--store", str(missing), "--strict"],
                 ["diff", "--store", str(missing), "--expected",
                  str(tmp_path / "table.csv")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no campaign store")
        assert not captured.out
    assert not missing.exists()
    # an empty file has no header either
    missing.touch()
    with pytest.raises(ValueError, match="no campaign store"):
        Store(missing)
    assert missing.read_bytes() == b""
