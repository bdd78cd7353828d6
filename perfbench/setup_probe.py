"""Set-up cost of a fresh interpreter: import jsrcert and resolve one
fixed warm-up case, which finishes the lazy sympy and scipy imports.

Run as a script it prints the seconds taken.  The benchmark also calls
`set_up` in its own process, first, before anything else imports numpy.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# an F2 pair proved with a kind-P polytope: it factors with sympy and
# runs the scipy LP prefilter; no workload contains it
WARM_UP = ("binary", 2, "3/5")
LAZY_IMPORTS = ("sympy", "scipy.optimize")


def set_up() -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from jsrcert.campaign import resolve_code
    from jsrcert.reduce import PairCode

    alphabet, dim, code = WARM_UP
    rec = resolve_code(PairCode.parse(code, dim, alphabet))
    elapsed = time.perf_counter() - start
    missing = [m for m in LAZY_IMPORTS if m not in sys.modules]
    if rec["status"] != "proved" or missing:
        raise RuntimeError(f"warm-up case {code} ended {rec['status']} "
                           f"without importing {missing}")
    return elapsed


if __name__ == "__main__":
    print(repr(set_up()))
