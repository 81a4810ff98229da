"""Aggregation of per-process samples into the benchmark's reported figures."""

from __future__ import annotations

import math
import statistics


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(p, value)`` using the nearest-rank definition, or ``None``
    when there are fewer than eleven samples.
    """
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def fail_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("fail ratio of no attempts")
    return failed / attempted


def summary_line(name: str, values: list[float], unit: str) -> str:
    """One human-readable line: sample count, median and tail percentile."""
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]}={tail[1]:.4f}{unit}" if tail else "tail: n<11"
    return f"{name}: n={len(values)} median={median(values):.4f}{unit} {tail_text}"
