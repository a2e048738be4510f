"""Statistics helpers for the campaign benchmark.

Quartiles use Python's ``statistics.quantiles(values, n=4)`` (its default
"exclusive" method), the same call the spread check on the benchmark's
output uses, so a spread computed here matches it digit for digit.
"""

import math
import statistics


def median(values):
    """The median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them.

    Needs at least two values.
    """
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    m = median(values)
    if m == 0:
        raise ValueError("spread of values whose median is 0")
    return (q3 - q1) / m


def tail_percentile(values, beyond=10):
    """The highest whole percentile with at least ``beyond`` samples above it.

    Uses nearest-rank percentiles: the p-th percentile of n sorted samples
    is the one at rank ceil(p * n / 100), and n - rank samples lie beyond
    it. Returns ``(p, value)``, or ``None`` when fewer than ``beyond``
    samples would lie beyond the median (too few samples for a tail).
    """
    n = len(values)
    ordered = sorted(values)
    for p in range(99, 49, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return None


def percentile(values, p):
    """Nearest-rank p-th percentile of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def geomean(values):
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
