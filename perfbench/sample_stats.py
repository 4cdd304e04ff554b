"""Order statistics the benchmark reports.

A tail percentile is reported only when at least ``MIN_BEYOND``
samples lie beyond it (p99 needs 1000 samples, p95 needs 200), so a
tail figure is never the single largest sample in disguise.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def samples_needed(percentile: float) -> int:
    """Smallest sample count that supports ``percentile`` (0-100)."""
    if not 50.0 <= percentile < 100.0:
        raise ValueError(f"tail percentile must be in [50, 100), got {percentile}")
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - percentile) - 1e-9)


def tail(samples: Sequence[float], percentile: float) -> float:
    """The ``percentile``-th value of ``samples`` (linear interpolation
    between closest ranks).

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples
    would lie beyond it.
    """
    n = len(samples)
    need = samples_needed(percentile)
    if n < need:
        raise ValueError(
            f"p{percentile:g} needs >= {need} samples "
            f"({MIN_BEYOND} beyond it), got {n}"
        )
    ordered = sorted(samples)
    rank = (n - 1) * percentile / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        value = float(samples[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(samples)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)
