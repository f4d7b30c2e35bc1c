"""Summary arithmetic: medians, quartile spreads and the tail-percentile rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# Percentiles a tail is reported at; the highest one that still has
# MIN_BEYOND samples above it is chosen.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """``(p, value)`` for the highest ladder percentile with at least
    MIN_BEYOND samples beyond it, by the nearest-rank definition; None
    when even the median has fewer than MIN_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in reversed(TAIL_LADDER):
        # the epsilon keeps float error (99.9 / 100 * 10000 > 9990) from
        # moving the rank up by one
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 when the layer did no work."""
    return numerator / denominator if denominator else 0.0
