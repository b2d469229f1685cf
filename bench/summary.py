"""Order statistics used to turn per-job and per-pass timings into metrics."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values) -> tuple[float, str]:
    """The value at the highest percentile with at least ``TAIL_BEYOND``
    values beyond it, and a label naming the percentile used.

    With n values sorted ascending that is the (n - 10)-th smallest, the
    100 * (n - 10) / n percentile.  With fewer than 11 values no percentile
    qualifies, and the largest value is returned instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} (fewer than {TAIL_BEYOND + 1} jobs)"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{pct:.1f} of {n} ({TAIL_BEYOND} jobs beyond)"


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
