"""Summary statistics for the benchmark's timing samples."""

from __future__ import annotations

import statistics

# Candidate tail percentiles. The ladder is coarse on purpose: a small change
# in the sample count of a run must not move the tail to another percentile.
TAIL_LADDER = (50, 75, 90, 99)
MIN_BEYOND = 10


def _rank(pct: int, n: int) -> int:
    """Nearest-rank position (1-based) of a percentile among n samples."""
    return -(-pct * n // 100)


def tail_percentile(n: int):
    """Highest ladder percentile with at least MIN_BEYOND of the n samples
    beyond it, or None when n is too small for any of them."""
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile of `values`."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(_rank(pct, len(ordered)), 1) - 1]


def median(values) -> float:
    return float(statistics.median(values))
