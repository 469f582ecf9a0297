"""Latency statistics shared by every workload.

The tail rule: the highest percentile on a fixed ladder that still has at
least :data:`MIN_BEYOND` samples above it (nearest-rank definition). A
run's ops are cut into up to :data:`MAX_CHUNKS` consecutive chunks and the
reported tail is the median of the chunks' values (:func:`chunked_tail`),
so the rule is applied to one chunk. Each workload applies it once, to a
chunk of its baseline run, and then reports that percentile on every run
(see ``tail_percentile`` on the workload classes): a percentile that moved
with the op count would make a faster program report a higher percentile
and look slower. Every record states the percentile, the chunk count, the
sample count and how many samples lie beyond the percentile, so a run
where the fixed percentile has thinned below the rule shows.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "MIN_BEYOND",
    "TAIL_LADDER",
    "Tail",
    "nearest_rank",
    "rule_percentile",
    "tail_latency",
    "min_chunk",
    "chunked_tail",
    "failed_frac",
    "median",
]

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


#: Most consecutive chunks a tail reading is split into.
MAX_CHUNKS = 5


@dataclass(frozen=True)
class Tail:
    """One tail reading: the percentile, its value and its support.

    ``beyond`` counts the samples above the percentile in each chunk (the
    smallest chunk's count when there are several).
    """

    percentile: float
    value: float
    samples: int
    beyond: int
    chunks: int = 1


def _rank(percentile: float, n: int) -> int:
    """1-based nearest rank; rounding first keeps p99.9 of 10000 at 9990."""
    return max(1, math.ceil(round(percentile * n / 100.0, 9)))


def nearest_rank(ordered: Sequence[float], percentile: float) -> tuple[float, int]:
    """``(value, samples beyond it)`` at ``percentile`` of sorted data."""
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = _rank(percentile, n)
    return ordered[rank - 1], n - rank


def rule_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` beyond it.

    With fewer than ``2 * MIN_BEYOND`` samples no percentile qualifies
    and the median is returned.
    """
    chosen = TAIL_LADDER[0]
    for percentile in TAIL_LADDER:
        if n - _rank(percentile, n) >= MIN_BEYOND:
            chosen = percentile
    return chosen


def tail_latency(samples: Sequence[float], percentile: float | None = None) -> Tail:
    """The latency at ``percentile`` (default: :func:`rule_percentile`)."""
    ordered = sorted(samples)
    if percentile is None:
        percentile = rule_percentile(len(ordered))
    value, beyond = nearest_rank(ordered, percentile)
    return Tail(percentile, value, len(ordered), beyond)


def min_chunk(percentile: float) -> int:
    """Fewest samples that put :data:`MIN_BEYOND` beyond ``percentile``."""
    n = MIN_BEYOND + 1
    while n - _rank(percentile, n) < MIN_BEYOND:
        n += 1
    return n


def chunked_tail(samples: Sequence[float], percentile: float) -> Tail:
    """Median over consecutive chunks of the ``percentile`` latency.

    ``samples`` are in completion order. They are split into as many
    chunks as keep at least ten samples beyond the percentile in each, up
    to :data:`MAX_CHUNKS`; each chunk gives its nearest-rank value and the
    median of those is reported. A burst of host noise that spoils one
    chunk then moves the reading far less than it moves a single
    percentile over the whole run. With fewer samples than one full
    chunk, this is :func:`tail_latency` at ``percentile``.
    """
    n = len(samples)
    k = max(1, min(MAX_CHUNKS, n // min_chunk(percentile)))
    bounds = [round(i * n / k) for i in range(k + 1)]
    readings = [
        tail_latency(samples[lo:hi], percentile)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return Tail(
        percentile,
        median([r.value for r in readings]),
        n,
        min(r.beyond for r in readings),
        k,
    )


def failed_frac(attempted: int, failed: int) -> float:
    """Failed ops over attempted ops (a failed output gate counts)."""
    if attempted < 1:
        raise ValueError(f"attempted must be at least 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
