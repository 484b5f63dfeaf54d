"""Summaries of timing samples."""

from __future__ import annotations

import math
import statistics


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile: the smallest sample with at least
    ``q * n`` samples at or below it.

    With ``n >= 10 / (1 - q)`` distinct samples at least ten lie above the
    returned value (exactly ten for ``q = 0.9`` and ``n = 100``), which is
    the least tail a percentile may be reported from.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def summarize(samples) -> dict:
    """Sample count, median and quartiles (exclusive method, as
    ``statistics.quantiles`` gives them)."""
    values = list(samples)
    if not values:
        raise ValueError("summary of no samples")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}
