"""Spans and counters around the pipeline's layers, for the traced run.

`install` replaces each function in TARGETS by a wrapper at every name a
caller looks it up under: the defining module, each `jsrcert` module that
imported it with `from .x import f`, and the class for methods.  The
wrappers are never removed, so install them only in a worker process
that exits when its work is done.

A span records the case it belongs to (the code passed to
`resolve_code`, or "" for campaign-level work), the layer name, start and
end times, and the index of the span that called it.  Spans stay in
memory until the run writes them out.  A layer's self time is its
duration minus the time covered by its child spans; its inclusive time
counts only the outermost of nested calls to the same layer, so
recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

TARGETS = (
    "campaign.resolve_code",
    "campaign.Store.append",
    "campaign.Store._load",
    "reduce.canonical_key",
    "reduce.quick_decide",
    "reduce.irreducible",
    "smp.gripenberg_search",
    "algebraic.nth_root",
    "algebraic.compare",
    "algebraic.RealAlgebraic.pow",
    "algebraic.factor_int_poly",
    "algebraic.isolate_real_roots",
    "matcore.spectral_radius",
    "ipa.run_ipa",
    "ipa.verify_certificate",
    "geometry.classify_with_fallback",
    "geometry.minkowski_norm",
    "geometry.simplex_solve",
    "geometry.norm_ellipse",
)


def _count_quick(counts, result):
    counts["reduce.quick_decide.settled"] += result.outcome.name == "SETTLED"


def _count_irreducible(counts, result):
    irreducible, decomposition = result
    counts["reduce.irreducible.split"] += (
        not irreducible and decomposition is not None)


def _count_search(counts, result):
    counts["smp.gripenberg_search.nodes"] += result.nodes_visited
    counts["smp.gripenberg_search.frobenius_prunes"] += result.frobenius_prunes
    counts["smp.gripenberg_search.two_norm_prunes"] += result.two_norm_prunes
    counts["smp.gripenberg_search.exhausted"] += bool(result.exhausted)


def _count_ipa(counts, result):
    counts["ipa.run_ipa.proved"] += result.status.value == "proved"
    if result.polytope is not None:
        counts["ipa.run_ipa.vertices"] += len(result.polytope.vertices)


def _count_classify(counts, result):
    counts["geometry.classify_with_fallback.numeric"] += bool(result.numeric)


COUNTERS = {
    "reduce.quick_decide": _count_quick,
    "reduce.irreducible": _count_irreducible,
    "smp.gripenberg_search": _count_search,
    "ipa.run_ipa": _count_ipa,
    "geometry.classify_with_fallback": _count_classify,
}


class Recorder:
    """In-memory spans plus per-layer call counts and times."""

    def __init__(self):
        self.spans: list[list] = []  # [case, name, start, end, parent]
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()  # inclusive
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.cases: dict[str, set] = {}
        self.root_seconds = 0.0  # time inside spans that have no parent
        self._stack: list[list] = []  # [span index, seconds in children]
        self._active: Counter = Counter()
        self._case = ""

    def wrap(self, name: str, fn, count=None, opens_case: bool = False):
        def traced(*args, **kwargs):
            stack = self._stack
            outer_case = self._case
            if opens_case:
                self._case = str(args[0])
            span = [self._case, name, 0.0, 0.0, stack[-1][0] if stack else -1]
            frame = [len(self.spans), 0.0]
            self.spans.append(span)
            stack.append(frame)
            self._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._active[name] -= 1
                elapsed = end - start
                span[2], span[3] = start, end
                self.calls[name] += 1
                self.self_seconds[name] += elapsed - frame[1]
                if not self._active[name]:
                    self.seconds[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_seconds += elapsed
                self.cases.setdefault(name, set()).add(self._case)
                self._case = outer_case
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    def summary(self) -> dict:
        """Plain-data totals, mergeable across workers with `merge`."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counts": dict(self.counts),
            "cases": {k: len(v) for k, v in self.cases.items()},
            "root_seconds": self.root_seconds,
            "spans": self.spans,
        }


def install(recorder: Recorder, package: str = "jsrcert") -> None:
    """Wrap every TARGETS function of `package` for `recorder`."""
    for target in TARGETS:
        importlib.import_module(f"{package}.{target.split('.')[0]}")
    modules = [m for n, m in sys.modules.items()
               if n == package or n.startswith(package + ".")]
    for target in TARGETS:
        module_name, *owner_path, attr = target.split(".")
        owner = sys.modules[f"{package}.{module_name}"]
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = recorder.wrap(target, original, COUNTERS.get(target),
                                opens_case=target == "campaign.resolve_code")
        if owner_path:
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def time_cases(campaign_module, sink: list) -> None:
    """Append the seconds of each `resolve_code` call to `sink`; the one
    wrapper the untraced run installs."""
    original = campaign_module.resolve_code

    def timed(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        sink.append(perf_counter() - start)
        return result

    campaign_module.resolve_code = timed


def merge(summaries: list[dict]) -> dict:
    """Totals over the summaries of several workers."""
    out = {"calls": Counter(), "seconds": Counter(), "self_seconds": Counter(),
           "counts": Counter(), "cases": Counter(), "root_seconds": 0.0,
           "spans": []}
    for s in summaries:
        for key in ("calls", "seconds", "self_seconds", "counts", "cases"):
            out[key].update(s[key])
        out["root_seconds"] += s["root_seconds"]
        out["spans"].extend(s["spans"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(total: dict, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by name, as (value, unit).  `wall_s` is the
    traced time the spans could have covered; the rest of it is
    reported as campaign.other_s."""
    calls, counts = total["calls"], total["counts"]
    out: dict[str, tuple[float, str]] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.s"] = (total["seconds"].get(name, 0.0), "s")
        out[f"{name}.self_s"] = (total["self_seconds"].get(name, 0.0), "s")
    search = "smp.gripenberg_search"
    for key in ("nodes", "frobenius_prunes", "two_norm_prunes"):
        out[f"{search}.{key}"] = (counts.get(f"{search}.{key}", 0), "count")
    fractions = {
        "reduce.quick_decide.settled_frac": ("reduce.quick_decide.settled",
                                             "reduce.quick_decide"),
        "reduce.irreducible.split_frac": ("reduce.irreducible.split",
                                          "reduce.irreducible"),
        f"{search}.exhausted_frac": (f"{search}.exhausted", search),
        "ipa.run_ipa.proved_frac": ("ipa.run_ipa.proved", "ipa.run_ipa"),
        "geometry.classify_with_fallback.numeric_frac": (
            "geometry.classify_with_fallback.numeric",
            "geometry.classify_with_fallback"),
    }
    for metric, (num, den) in fractions.items():
        out[metric] = (_ratio(counts.get(num, 0), calls.get(den, 0)), "ratio")
    out[f"{search}.calls_per_case"] = (
        _ratio(calls.get(search, 0), total["cases"].get(search, 0)),
        "calls/case")
    out["ipa.run_ipa.vertices"] = (counts.get("ipa.run_ipa.vertices", 0),
                                   "count")
    out["campaign.other_s"] = (wall_s - total["root_seconds"], "s")
    out["trace.spans"] = (len(total["spans"]), "count")
    return out
