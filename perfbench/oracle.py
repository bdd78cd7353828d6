"""An audit of stored records that shares no code with the pipeline.

For each settled or proved record it computes a float lower bound on
the joint spectral radius, the largest rho(W)^(1/|W|) over all words W
of length at most WORD_LENGTH[dim], and compares it with the stored
exact value.  The stored `minpoly=[...];interval=[...]` text is parsed
and narrowed here by bisection with Fractions, without `RealAlgebraic`.
The matrices are decoded from the pair code by the scheme documented in
`jsrcert.reduce`: base-|alphabet| digits, most significant first, listing
the entries column by column.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

WORD_LENGTH = {2: 8, 3: 7}
DIGITS = {"binary": (0, 1), "sign": (0, 1, -1)}
# relative slack for float eigenvalues of small integer products: their
# error is below 1e-12, far under the gaps between distinct radii
TOLERANCE = 1e-9
_VALUE = re.compile(r"minpoly=\[([-\d,]+)\];interval=\[([-\d/]+),([-\d/]+)\]")


def decode(code: str, dim: int, alphabet: str) -> np.ndarray:
    """The pair a1/a2 as a (2, dim, dim) integer array."""
    digits = DIGITS[alphabet]
    pair = []
    for num in map(int, code.split("/")):
        cells = []
        for _ in range(dim * dim):
            num, d = divmod(num, len(digits))
            cells.append(digits[d])
        cells.reverse()
        pair.append(np.array(cells, dtype=float).reshape(dim, dim).T)
    return np.stack(pair)


def lower_bounds(pairs: np.ndarray, max_length: int) -> np.ndarray:
    """max over words W, |W| <= max_length, of rho(W)^(1/|W|), per pair.

    `pairs` has shape (n, 2, dim, dim)."""
    best = np.zeros(len(pairs))
    level = pairs  # (n, words, dim, dim): all products of one length
    for length in range(1, max_length + 1):
        radius = np.abs(np.linalg.eigvals(level)).max(axis=(1, 2))
        best = np.maximum(best, radius ** (1.0 / length))
        if length < max_length:
            level = np.concatenate(
                [pairs[:, j:j + 1] @ level for j in range(2)], axis=1)
    return best


def upper_value(text: str) -> float:
    """An upper bound, within 1e-15, on the value a stored JSR names."""
    match = _VALUE.fullmatch(text)
    if match is None:
        raise ValueError(f"unparseable stored value {text!r}")
    coeffs = [int(c) for c in match.group(1).split(",")]
    lo, hi = Fraction(match.group(2)), Fraction(match.group(3))

    def sign(x: Fraction) -> int:
        value = sum(c * x**i for i, c in enumerate(coeffs))
        return (value > 0) - (value < 0)

    s_lo = sign(lo)
    if s_lo == 0:
        return float(lo)
    if sign(hi) == s_lo:  # no sign change to bisect on: keep the interval
        return float(hi)
    while hi - lo > Fraction(1, 10**15):
        mid = (lo + hi) / 2
        s_mid = sign(mid)
        if s_mid == 0:
            return float(mid)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return float(hi)


def audit(records: dict[str, dict], dim: int, alphabet: str,
          verify) -> dict[str, list[str]]:
    """Codes of the records the oracle rejects.

    "below_bound": the stored JSR is below the lower bound.
    "rejected": a proved record whose certificate `verify` rejects.
    """
    valued = sorted(code for code, rec in records.items()
                    if rec.get("status") in ("settled", "proved"))
    below = []
    if valued:
        bounds = lower_bounds(np.stack([decode(c, dim, alphabet)
                                        for c in valued]), WORD_LENGTH[dim])
        for code, bound in zip(valued, bounds):
            stored = upper_value(records[code]["jsr"])
            if stored < bound - TOLERANCE * max(1.0, bound):
                below.append(code)
    rejected = [code for code in valued
                if records[code]["status"] == "proved"
                and not verify(records[code]["certificate"])]
    return {"below_bound": below, "rejected": rejected}
