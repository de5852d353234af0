"""Statistics for comparing two sets of benchmark runs.

Quartiles follow Python's statistics module (statistics.quantiles(values,
n=4)); the spread of a metric is the distance between its first and third
quartile as a share of its median. In-run medians and the tail rule are
computed by the benchmark program itself (src/stats.cpp).
"""

import statistics


def quartiles(values):
    """(q1, median, q3) of at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
