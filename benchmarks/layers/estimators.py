"""Noise-robust estimators for the layered benchmark.

Every workload runs the *same* seeded op stream ``R`` times, each time
on a fresh database/server, and records one wall time per fixed-size
block of ops.  The estimators below turn those repetitions into one
number without ever taking a mean or a whole-run wall clock.

The box's noise is one-sided: bursts of 5-50 s during which everything
runs 15-35% slower, never faster.  So the estimators take the **best**
repetition, not the middle one (measured over ten seeded runs, best-of-3
halves the spread of median-of-3; see README):

* throughput uses the **pointwise block minimum** — block *j* is the
  same work in every repetition, so the fastest of its wall times drops
  a burst unless it hit that block in every repetition, while a
  slowdown the program itself causes (a lazy migration's timeline)
  shows in all of them and stays;
* latency percentiles and CPU per op are the **minimum of the
  per-repetition values**; set-up time is their median.
"""

from __future__ import annotations

import statistics
from typing import Sequence

# choosing-metrics §1: report the highest percentile that still has at
# least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def block_best_rate(
    block_times: Sequence[Sequence[float]], ops_per_block: int
) -> tuple[float, int]:
    """``(ops_per_s, blocks_used)`` from per-repetition block wall times.

    Repetitions are time-bounded, so they may finish different numbers
    of blocks; only the blocks every repetition completed are used.
    """
    blocks = min(len(times) for times in block_times)
    if blocks == 0:
        raise ValueError("a repetition completed no block")
    seconds = sum(
        min(times[j] for times in block_times) for j in range(blocks)
    )
    return blocks * ops_per_block / seconds, blocks


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted samples (``pct`` in 0-100)."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def supports_percentile(count: int, pct: float) -> bool:
    """True when ``count`` samples leave >= MIN_TAIL_SAMPLES beyond ``pct``."""
    return count * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the spread
    the benchmark's bounds are judged against."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
