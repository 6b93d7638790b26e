"""Pure helpers for the benchmark's numbers: percentiles and chain depth."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile(values: Sequence[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly beyond it.

    The p-th percentile of n sorted samples is the ceil(p * n)-th smallest, so
    p90 of 100 samples is the 90th value with 10 samples beyond it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def chain_depth(intervals: Iterable[tuple[float, float]]) -> int:
    """Length of the longest chain of non-overlapping intervals.

    Two intervals chain when one ends no later than the other starts. Calls
    that overlap in time run side by side, so they add one to the depth, not
    two. Greedy by end time is exact for this (interval scheduling).
    """
    depth = 0
    last_end = -math.inf
    for start, end in sorted(intervals, key=lambda iv: (iv[1], iv[0])):
        if end < start:
            raise ValueError(f"interval ends before it starts: {(start, end)}")
        if start >= last_end:
            depth += 1
            last_end = end
    return depth

