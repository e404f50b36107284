"""Order statistics used by every report of the benchmark."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples a tail percentile must leave above it


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Highest percentile that still has `beyond` samples above it.

    Returns (value, percentile). With n sorted samples the value is the
    one at 1-based rank n - beyond, which is the percentile
    100 * (n - beyond) / n. Fewer than beyond + 1 samples have no such
    percentile and raise ValueError.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def tail_over_kinds(by_kind: dict, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Tail latency that every kind of operation feeds, as (value, percentile).

    Each latency is divided by the median of its kind, the tail of those
    ratios is taken over all kinds pooled, and it is scaled back by the
    slowest kind's median. A slow kind thus never hides behind the
    many samples of a fast one, and with one kind this is tail().
    """
    medians = {kind: statistics.median(values) for kind, values in by_kind.items()}
    ratio, percentile = tail([t / medians[kind] for kind, values in by_kind.items() for t in values], beyond)
    return ratio * max(medians.values()), percentile


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
