import json

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
