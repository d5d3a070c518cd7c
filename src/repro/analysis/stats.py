"""Measurement statistics: histograms, probability densities, summaries.

Pure-Python implementations (no numpy dependency in the library proper)
of the small statistical toolkit the evaluation needs — the probability
density function of Figure 5, percentiles, and linear drift fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Compute the standard summary used in experiment reports."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    variance = sum((v - mean) ** 2 for v in ordered) / n
    return Summary(
        count=n,
        mean=mean,
        std=math.sqrt(variance),
        minimum=ordered[0],
        p50=percentile(ordered, 50.0, presorted=True),
        p90=percentile(ordered, 90.0, presorted=True),
        p99=percentile(ordered, 99.0, presorted=True),
        maximum=ordered[-1],
    )


def percentile(values: Sequence[float], q: float, *, presorted: bool = False) -> float:
    """The q-th percentile (linear interpolation between ranks)."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = list(values) if presorted else sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(ordered[low])
    fraction = rank - low
    value = ordered[low] * (1.0 - fraction) + ordered[high] * fraction
    # Clamp away floating-point ulp drift: the interpolated value must
    # lie between its neighbouring order statistics.
    return min(max(value, ordered[low]), ordered[high])


def histogram(
    values: Sequence[float],
    *,
    bin_width: float,
    lo: float = None,
    hi: float = None,
) -> List[Tuple[float, int]]:
    """Fixed-width histogram: list of (bin_left_edge, count)."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if not values:
        return []
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    bins = max(1, int(math.ceil((hi - lo) / bin_width)) + 1)
    counts = [0] * bins
    for value in values:
        index = int((value - lo) / bin_width)
        if 0 <= index < bins:
            counts[index] += 1
    return [(lo + i * bin_width, counts[i]) for i in range(bins)]


def probability_density(
    values: Sequence[float], *, bin_width: float, lo: float = None, hi: float = None
) -> List[Tuple[float, float]]:
    """The empirical PDF used in Figure 5: (bin_left_edge, density) with
    density normalized so the bin areas sum to 1."""
    bins = histogram(values, bin_width=bin_width, lo=lo, hi=hi)
    total = sum(count for _, count in bins)
    if total == 0:
        return []
    return [(edge, count / (total * bin_width)) for edge, count in bins]


def mode_bin(values: Sequence[float], *, bin_width: float) -> float:
    """Left edge of the most populated bin (the PDF peak location)."""
    bins = histogram(values, bin_width=bin_width)
    if not bins:
        raise ValueError("cannot take the mode of an empty sample")
    return max(bins, key=lambda pair: pair[1])[0]

