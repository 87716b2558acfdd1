"""Small statistics helpers shared by the runner and the comparer."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    first, second, third = statistics.quantiles(values, n=4)
    return first, second, third


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, middle, third = quartiles(values)
    return (third - first) / middle if middle else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
