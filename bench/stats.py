"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p) -> float:
    """Nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(str(p)) * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``n`` samples ranked above it; the median
    when ``n`` is too small for any of them."""
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(Fraction(str(p)) * n / 100))
        if n - rank >= MIN_BEYOND:
            return p
    return 50


def tail(values, guaranteed: int | None = None) -> tuple:
    """``(value, percentile, samples)`` of the reported tail; the
    median when there are too few samples for a higher percentile.

    The percentile is chosen for ``guaranteed`` samples (default: all
    of them), so a run that fits one more pass reports the same one.
    """
    p = tail_percentile(min(guaranteed or len(values), len(values)))
    value = statistics.median(values) if p == 50 else percentile(values, p)
    return value, p, len(values)


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
