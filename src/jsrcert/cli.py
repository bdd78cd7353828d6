"""Command-line interface.

    jsr certify --alphabet binary --dim 2 --store run.jsonl
    jsr diff    --store run.jsonl --expected table.csv
    jsr verify  --certificate cert.json
    jsr solve   --matrices family.json

Exit codes: 0 all resolved / verified, 1 unresolved cases or rejected
certificate, 2 invalid input or input beyond the exact kernels (such
as a complex eigenvalue pair of a degree-4 factor).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebraic import AlgebraicError
from .campaign import (
    Store,
    diff_expected,
    load_expected_csv,
    report,
    resolve_family,
    run_campaign,
    summarize,
)
from .ipa import certificate_from_json, verify_certificate
from .matcore import MatrixFamily


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jsr",
        description="Exact joint spectral radius certification for small "
                    "integer matrix families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run a campaign over coded pairs")
    p.add_argument("--alphabet", choices=("binary", "sign"), required=True)
    p.add_argument("--dim", type=int, choices=(2, 3), required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--only", help="restrict to pairs with A1=K (e.g. A1=3)")
    p.add_argument("--codes", help="comma-separated pair codes a1/a2")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--strict", action="store_true",
                   help="nonzero exit if any case is unresolved")
    p.add_argument("--recheck", action="store_true",
                   help="re-verify every stored certificate")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("diff", help="compare a store against an expected table")
    p.add_argument("--store", required=True)
    p.add_argument("--expected", required=True)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("--certificate", required=True)

    p = sub.add_parser("solve", help="certify an ad-hoc family")
    p.add_argument("--matrices", required=True,
                   help="JSON file: list of row-major integer matrices")

    p = sub.add_parser("report", help="summarize a store")
    p.add_argument("--store", required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--strict", action="store_true")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError, AlgebraicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "certify":
        only_a1 = None
        if args.only:
            key, _, val = args.only.partition("=")
            if key.strip().upper() != "A1":
                raise ValueError("--only supports the form A1=K")
            only_a1 = int(val)
        codes = args.codes.split(",") if args.codes else None

        def progress(rec):
            if not args.quiet:
                print(f"  {rec['code']}: {rec['status']}"
                      f"{' (' + rec.get('reason', '') + ')' if rec.get('reason') else ''}",
                      flush=True)

        summary = run_campaign(args.alphabet, args.dim, args.store,
                               only_a1=only_a1, codes=codes,
                               workers=args.workers, recheck=args.recheck,
                               progress=progress)
        print(json.dumps(summary, sort_keys=True))
        if args.strict and summary["unresolved"]:
            return 1
        return 0

    if args.command == "diff":
        store = Store(args.store)
        rows = load_expected_csv(args.expected)
        result = diff_expected(store, rows)
        for r in result["rows"]:
            print(f"{r['row']:>12}  {r.get('word', ''):<16} {r['verdict']}")
        print(f"total {result['total']}: {result['pass']} pass, "
              f"{result['fail']} fail, {result['missing']} missing")
        return 0 if result["fail"] == 0 and result["missing"] == 0 else 1

    if args.command == "verify":
        text = Path(args.certificate).read_text()
        res = verify_certificate(certificate_from_json(text))
        print(("ACCEPT: " if res.accepted else "REJECT: ") + res.reason)
        return 0 if res.accepted else 1

    if args.command == "solve":
        family = _read_family(json.loads(Path(args.matrices).read_text()))
        rec = resolve_family(family)
        printable = {k: v for k, v in rec.items() if k != "certificate"}
        print(json.dumps(printable, indent=2, sort_keys=True, default=str))
        if rec.get("certificate"):
            out = Path(args.matrices).with_suffix(".certificate.json")
            from .ipa import certificate_to_json

            out.write_text(certificate_to_json(rec["certificate"]))
            print(f"certificate written to {out}")
        return 0 if rec["status"] in ("settled", "proved") else 1

    if args.command == "report":
        store = Store(args.store)
        print(report(store, args.format))
        summary = summarize(store)
        if args.strict and summary["unresolved"]:
            return 1
        return 0

    raise ValueError(f"unknown command {args.command}")


def _read_family(data) -> MatrixFamily:
    """The family of a `solve` input: a nonempty list of matrices, each a
    nonempty list of equal-length rows of JSON integers.  A float, a
    boolean or a malformed shape raises ValueError, an invalid input."""
    if not isinstance(data, list) or not data:
        raise ValueError("the input must be a nonempty list of matrices")
    for k, m in enumerate(data, 1):
        if not (isinstance(m, list) and m
                and all(isinstance(row, list) for row in m)
                and len({len(row) for row in m}) == 1):
            raise ValueError(f"matrix {k} is not a list of equal-length rows")
        if not all(type(v) is int for row in m for v in row):
            raise ValueError(f"matrix {k} has an entry that is not an integer")
    return MatrixFamily.make(data)


if __name__ == "__main__":
    sys.exit(main())
