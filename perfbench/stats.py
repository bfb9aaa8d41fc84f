"""Small arithmetic helpers shared by the benchmark and its spread check."""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, and 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones: skipped negatives over negatives
    requested in training, rankings that raised over axioms ranked."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted}")
    return ratio(failed, attempted)


def accept_ratio(emitted: int, entailed_rejects: int) -> float:
    """Share of closure-checked draws the filtered sampler kept: every draw it
    checks is either emitted or rejected as entailed."""
    return ratio(emitted, emitted + entailed_rejects)
