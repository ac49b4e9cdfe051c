"""Order statistics shared by run.py and compare.py."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first; below p90 the maximum is used
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def nearest_rank(sorted_values: list, pct: float) -> float:
    k = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def tail(values) -> tuple[float, str]:
    """The highest percentile from p90 up with at least ten values beyond it,
    and its label; the maximum when there are too few values for p90."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return nearest_rank(ordered, pct), f"p{pct:g}"
    return ordered[-1], "max"
