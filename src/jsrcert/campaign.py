"""Campaign runner and persistence.

Runs reduction + search + polytope certification over an enumerated
family of matrix pairs, stores one record per case in an append-only
JSON-lines store, resumes interrupted runs, reports summaries, and
diffs stored results against expected-results tables.
"""

from __future__ import annotations

import concurrent.futures as cf
import gc
import json
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional

from .algebraic import (
    MEMO_SIZE,
    Ordering,
    RealAlgebraic,
    compare,
    is_power,
)
from .ipa import IpaStatus, run_ipa, verify_certificate
from .matcore import MatrixFamily, evaluate, spectral_radius
from .reduce import (
    Outcome,
    PairCode,
    canonical_key,
    decode,
    enumerate_campaign,
    irreducible,
    quick_decide,
)
from .smp import gripenberg_search

STORE_SCHEMA = "jsr-campaign/1"
DEPTH_LADDER = (10, 14, 18, 22)
# codes per task when a process pool canonicalizes a campaign
CANON_CHUNK = 256


def resolve_family(family: MatrixFamily) -> dict:
    """Full pipeline for one matrix family: quick lemmas, reducibility
    splitting, candidate search with depth escalation, polytope run.

    Returns a plain-dict record fragment (status/reason/jsr/smp/...).
    """
    pair = tuple(family.matrices)
    if len(pair) == 2:
        verdict = quick_decide(pair)
        if verdict.outcome is Outcome.SETTLED:
            return {
                "status": "settled",
                "reason": verdict.reason.value,
                "jsr": verdict.jsr.serialize(),
                "smp_words": [list(verdict.smp_word)],
                "witness": verdict.witness,
            }
        irr, dec = irreducible(pair)
        if not irr and dec is not None:
            return _resolve_blocks(family, dec)
    return _resolve_ipa(family)


def _resolve_blocks(family: MatrixFamily, dec) -> dict:
    parts = []
    for blocks, scale in ((dec.sub_blocks, dec.sub_scale),
                          (dec.quot_blocks, dec.quot_scale)):
        rec = json.loads(_block_record(tuple(m.rows for m in blocks)))
        if rec["status"] not in ("settled", "proved"):
            return {"status": "unresolved", "reason": "block_unresolved",
                    "detail": rec}
        jsr = RealAlgebraic.deserialize(rec["jsr"]).scale(Fraction(1, scale))
        parts.append((jsr, rec))
    # full-pair JSR is the larger block value (block 0 on a tie); the
    # same index word attains it
    best = int(compare(parts[0][0], parts[1][0]) == Ordering.LESS)
    jsr, rec = parts[best]
    word = tuple(rec["smp_words"][0])
    # re-verify on the full pair: rho(word)^(1/len) == jsr exactly
    rho = spectral_radius(evaluate(word, family).value).value
    if not is_power(rho, jsr, len(word)):
        return {"status": "unresolved", "reason": "block_witness_mismatch"}
    return {
        "status": "settled",
        "reason": "reducible",
        "jsr": jsr.serialize(),
        "smp_words": [list(word)],
        "witness": {"invariant_subspace": dec.basis,
                    "block_records": [parts[0][1], parts[1][1]]},
    }


@lru_cache(maxsize=MEMO_SIZE)
def _block_record(rows: tuple) -> str:
    """The record of the block family with these matrix rows, as JSON
    text, so that every caller decodes a dict of its own."""
    return json.dumps(resolve_family(MatrixFamily.make(rows, "general")))


def _resolve_ipa(family: MatrixFamily) -> dict:
    res = None  # the last polytope run
    for depth in DEPTH_LADDER:
        cs = gripenberg_search(family, max_depth=depth)
        if cs.lambda_.sign() == 0:
            # nilpotent semigroup: radius zero with any letter as witness
            if cs.exhausted:
                return {
                    "status": "settled",
                    "reason": "integer_leq_one",
                    "jsr": RealAlgebraic.from_rational(0).serialize(),
                    "smp_words": [[1]],
                    "witness": {"nilpotent": True},
                    "search": _search_stats(cs),
                }
            continue
        res = run_ipa(family, cs)
        if res.status is IpaStatus.PROVED:
            check = verify_certificate(res.certificate)
            if not check:
                return {"status": "unresolved",
                        "reason": f"certificate rejected: {check.reason}",
                        "search": _search_stats(cs)}
            return {
                "status": "proved",
                "jsr": res.lambda_.serialize(),
                "smp_words": [list(c.word) for c in res.smps],
                "hull": res.polytope.kind.value,
                "gripenberg_depth": depth,
                "gripenberg_exhausted": cs.exhausted,
                "vertices": len(res.polytope.vertices),
                "membership": res.diagnostics["membership"],
                "search": _search_stats(cs),
                "certificate": res.certificate,
            }
        if cs.exhausted:
            break  # a deeper search would grow the same closed tree
    return {
        "status": "unresolved",
        "reason": res.status.value if res else "search_failed",
        "diagnostics": res.diagnostics if res else {},
        "search": _search_stats(cs),
    }


def _search_stats(cs) -> dict:
    """The size of a Gripenberg search tree; it depends on the family
    alone."""
    return {"nodes": cs.nodes_visited,
            "frobenius_prunes": cs.frobenius_prunes,
            "two_norm_prunes": cs.two_norm_prunes,
            "two_norm_checks": cs.two_norm_checks,
            "radius_checks": cs.radius_checks,
            "depth": cs.depth_reached,
            "exhausted": cs.exhausted}


def resolve_code(code: PairCode) -> dict:
    # decoded members are square and of one dimension: no checks to make
    family = MatrixFamily(decode(code), code.alphabet)
    t0 = time.monotonic()
    rec = resolve_family(family)
    rec["code"] = str(code)
    rec["seconds"] = round(time.monotonic() - t0, 3)
    return rec


# ---------------------------------------------------------------------------
# the JSONL store
# ---------------------------------------------------------------------------


class Store:
    """Append-only JSON-lines store with a schema header line.

    `append` writes through one handle, opened by the first append and
    kept until `close` (`run_campaign` closes its store when it ends),
    and flushes each line as it is written, so a killed run leaves at
    most one torn last line, which `_load` drops.
    """

    def __init__(self, path: str | Path, alphabet: str = "", dim: int = 0):
        """Open the store at path.  With an alphabet a missing or empty
        file becomes a new store of that campaign; without one the store
        must exist, and a ValueError says it does not."""
        self.path = Path(path)
        self.alphabet = alphabet
        self.dim = dim
        self.records: dict[str, dict] = {}
        self._fh = None  # the append handle, open from the first append
        if self.path.exists() and self.path.stat().st_size:
            self._load()
        elif alphabet:
            self._write_header()
        else:
            raise ValueError(f"no campaign store at {self.path}")

    def _load(self) -> None:
        """Read the store.  A last line that does not decode is a write
        cut short: it is dropped and the file truncated to the end of the
        last complete line, so later appends stay valid JSON lines."""
        data = self.path.read_bytes()
        first, *lines = data.split(b"\n")
        header = json.loads(first)
        if header.get("schema") != STORE_SCHEMA:
            raise ValueError(f"store schema mismatch: {header.get('schema')}")
        if self.alphabet and header.get("alphabet") != self.alphabet:
            raise ValueError("store belongs to a different campaign")
        self.alphabet = header["alphabet"]
        self.dim = int(header["dim"])
        end = len(first) + 1  # where the line being read starts
        for n, line in enumerate(lines):
            if line.strip():
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    if any(rest.strip() for rest in lines[n + 1:]):
                        raise
                    with self.path.open("r+b") as fh:
                        fh.truncate(end)
                    return
                self.records[rec["code"]] = rec
            end += len(line) + 1
        if not data.endswith(b"\n"):  # a complete last record, newline lost
            with self.path.open("ab") as fh:
                fh.write(b"\n")

    def _write_header(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w") as fh:
            fh.write(json.dumps({"schema": STORE_SCHEMA,
                                 "alphabet": self.alphabet,
                                 "dim": self.dim}, sort_keys=True) + "\n")

    def append(self, rec: dict) -> None:
        self.records[rec["code"]] = rec
        if self._fh is None:
            self._fh = self.path.open("a")
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the append handle; a later append opens it again."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __contains__(self, code: str) -> bool:
        return code in self.records

    def get(self, code: str) -> Optional[dict]:
        return self.records.get(code)


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------


def run_campaign(alphabet: str, dim: int, store_path: str | Path,
                 only_a1: Optional[int] = None,
                 codes: Optional[list[str]] = None,
                 workers: int = 1,
                 recheck: bool = False,
                 progress=None) -> dict:
    """Resolve every requested case, persisting one record per code.

    Non-canonical codes record a duplicate link to their orbit
    representative, whose own record is computed even when it falls
    outside the requested slice.  Resumable: existing records are kept.
    With workers > 1 one process pool canonicalizes the new codes, in
    chunks, and then resolves the representatives.

    The heap the process holds on entry is frozen for the run
    (`gc.freeze`), so a full collection here or in a forked worker walks
    only the objects the campaign makes.  A caller that has frozen
    objects of its own keeps its freeze as it is.
    """
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    store = None
    try:
        store = Store(store_path, alphabet, dim)
        todo = [code for code in _requested_codes(alphabet, dim, only_a1, codes)
                if str(code) not in store]
        if workers > 1 and len(todo) > 1:
            with cf.ProcessPoolExecutor(max_workers=workers) as pool:
                canons = pool.map(_canonical, todo, chunksize=CANON_CHUNK)
                _solve_codes(store, todo, canons, pool.map, progress)
        else:
            _solve_codes(store, todo, map(_canonical, todo), map, progress)

        if recheck:
            for rec in store.records.values():
                if rec.get("status") == "proved":
                    chk = verify_certificate(rec["certificate"])
                    if not chk:
                        raise RuntimeError(
                            f"stored certificate for {rec['code']} rejected: "
                            f"{chk.reason}")
        return summarize(store)
    finally:
        if store is not None:
            store.close()
        if freeze:
            gc.unfreeze()


def _canonical(code: PairCode) -> PairCode:
    return canonical_key(decode(code), code.alphabet)


def _solve_codes(store: Store, todo: list[PairCode],
                 canons: Iterable[PairCode], mapper, progress) -> None:
    """Resolve the orbit representatives of `todo` (whose canonical keys
    `canons` lists in the same order) by `mapper(resolve_code, codes)`, a
    process pool's `map` or the builtin one, and append their records and
    the duplicate links to `store`, in code order either way."""
    pending: list[tuple[str, Optional[str]]] = []  # (code, canonical or None)
    canon_to_solve: list[PairCode] = []
    seen_canon: set[str] = set()
    for code, canon in zip(todo, canons):
        text = str(code)
        if (canon.a1, canon.a2) == (code.a1, code.a2):
            pending.append((text, None))
            if text not in seen_canon:
                seen_canon.add(text)
                canon_to_solve.append(code)
        else:
            pending.append((text, str(canon)))
            if str(canon) not in store and str(canon) not in seen_canon:
                seen_canon.add(str(canon))
                canon_to_solve.append(canon)

    solved: dict[str, dict] = {}
    for rec in mapper(resolve_code, canon_to_solve):
        solved[rec["code"]] = rec
        if progress:
            progress(rec)

    # canonical records first (in code order), then duplicate links
    for c in sorted(solved, key=_code_sort_key):
        store.append(solved[c])
    for text, canon in sorted(pending, key=lambda tc: _code_sort_key(tc[0])):
        if canon is not None and text not in store:
            store.append({"code": text, "status": "duplicate",
                          "canonical": canon})


def _requested_codes(alphabet, dim, only_a1, codes) -> Iterable[PairCode]:
    if codes:
        return [PairCode.parse(c, dim, alphabet) for c in codes]
    out = enumerate_campaign(alphabet, dim)
    if only_a1 is not None:
        return (c for c in out if c.a1 == only_a1)
    return out


def _code_sort_key(text: str):
    a1, a2 = text.split("/")
    return (int(a1), int(a2))


def summarize(store: Store) -> dict:
    counts: dict[str, int] = {}
    for rec in store.records.values():
        counts[rec["status"]] = counts.get(rec["status"], 0) + 1
    total_seconds = sum(rec.get("seconds", 0) for rec in store.records.values())
    return {
        "alphabet": store.alphabet,
        "dim": store.dim,
        "total": len(store.records),
        "counts": counts,
        "unresolved": counts.get("unresolved", 0),
        "seconds": round(total_seconds, 3),
    }


# ---------------------------------------------------------------------------
# expected tables and diffing
# ---------------------------------------------------------------------------


@dataclass
class ExpectedRow:
    a1: int
    a2: int
    smp_word: str  # e.g. "A1A2^4"
    case_tag: str = ""


def load_expected_csv(path: str | Path) -> list[ExpectedRow]:
    rows = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if parts[0] == "a1":
                continue  # header
            rows.append(ExpectedRow(int(parts[0]), int(parts[1]), parts[2],
                                    parts[3] if len(parts) > 3 else ""))
    return rows


def parse_smp_word(text: str) -> list[int]:
    """Application-order indices from product notation like 'A1A2^4'
    (rightmost letter applied first), the inverse of `_word_str`."""
    out: list[int] = []
    for m in re.finditer(r"A(\d+)(?:\^(\d+))?", text):
        idx, exp = int(m.group(1)), int(m.group(2) or 1)
        out.extend([idx] * exp)
    if not out:
        raise ValueError(f"cannot parse product word {text!r}")
    return out[::-1]


def diff_expected(store: Store, rows: list[ExpectedRow]) -> dict:
    """PASS iff the averaged spectral radius of the listed product equals
    the stored JSR for the row's case (transported through duplicate
    links); the listed word itself need not match the stored one."""
    results = []
    for row in rows:
        code = PairCode(row.a1, row.a2, store.dim, store.alphabet)
        rec = store.get(str(code))
        hops = 0
        while rec is not None and rec.get("status") == "duplicate" and hops < 3:
            rec = store.get(rec["canonical"])
            hops += 1
        if rec is None:
            canon = canonical_key(decode(code), store.alphabet)
            rec = store.get(str(canon))
        if rec is None or rec.get("status") == "unresolved":
            results.append({"row": f"{row.a1}/{row.a2}", "verdict": "MISSING"})
            continue
        family = MatrixFamily.make(list(decode(code)), store.alphabet)
        word = parse_smp_word(row.smp_word)
        rho = spectral_radius(evaluate(word, family).value).value
        stored = RealAlgebraic.deserialize(rec["jsr"])
        ok = is_power(rho, stored, len(word))
        results.append({
            "row": f"{row.a1}/{row.a2}",
            "word": row.smp_word,
            "case": row.case_tag,
            "canonical": rec["code"],
            "verdict": "PASS" if ok else "FAIL",
        })
    summary = {
        "total": len(results),
        "pass": sum(1 for r in results if r["verdict"] == "PASS"),
        "fail": sum(1 for r in results if r["verdict"] == "FAIL"),
        "missing": sum(1 for r in results if r["verdict"] == "MISSING"),
        "rows": results,
    }
    return summary


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def report(store: Store, fmt: str = "text") -> str:
    summary = summarize(store)
    lines = []
    cases = []
    for code in sorted(store.records, key=_code_sort_key):
        rec = store.records[code]
        if rec.get("status") == "duplicate":
            cases.append({"code": code, "status": "duplicate",
                          "canonical": rec["canonical"]})
        else:
            words = rec.get("smp_words") or []
            cases.append({
                "code": code,
                "status": rec.get("status"),
                "reason": rec.get("reason", ""),
                "smp": _word_str(words[0]) if words else "",
            })
    if fmt == "json":
        return json.dumps({"summary": summary, "cases": cases}, indent=2,
                          sort_keys=True)
    if fmt == "csv":
        out = ["code,status,reason,smp"]
        for c in cases:
            out.append(f"{c['code']},{c['status']},"
                       f"{c.get('reason', c.get('canonical', ''))},"
                       f"{c.get('smp', '')}")
        return "\n".join(out)
    lines.append(f"campaign {summary['alphabet']} dim {summary['dim']}: "
                 f"{summary['total']} cases")
    for k, v in sorted(summary["counts"].items()):
        lines.append(f"  {k}: {v}")
    lines.append(f"  compute time: {summary['seconds']}s")
    for c in cases:
        if c["status"] == "duplicate":
            lines.append(f"  {c['code']} -> duplicate of {c['canonical']}")
        else:
            smp = f" -> {c['smp']}" if c.get("smp") else ""
            lines.append(f"  {c['code']} [{c['status']}"
                         f"{':' + c['reason'] if c.get('reason') else ''}]{smp}")
    return "\n".join(lines)


def _word_str(word: list[int]) -> str:
    """Application-order word rendered in product notation (rightmost
    letter applied first)."""
    if not word:
        return ""
    out = []
    for j in reversed(word):
        if out and out[-1][0] == j:
            out[-1][1] += 1
        else:
            out.append([j, 1])
    return "".join(f"A{j}" + (f"^{k}" if k > 1 else "") for j, k in out)
