"""Small statistics helpers shared by the workloads and the spread check."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct`` % at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` nearest-rank samples lie above the ``pct`` percentile."""
    return count - math.ceil(pct / 100.0 * count)


def tail_supported(count: int, pct: float) -> bool:
    """True when ``count`` samples leave ``MIN_TAIL_SAMPLES`` beyond ``pct``."""
    return samples_beyond(count, pct) >= MIN_TAIL_SAMPLES


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def op_latencies(
    outcomes: Sequence[Optional[Tuple[float, float, bytes]]],
    start: float,
    end: float,
) -> List[float]:
    """Latency of every attempted op, in seconds.

    ``outcomes[i]`` is ``(started, accepted, reply)`` or ``None`` when op
    ``i`` never completed.  An op that did not complete counts from the
    start of the run to ``end``, so it misses any latency limit.
    """
    return [end - start if o is None else o[1] - o[0] for o in outcomes]


def failure_counts(
    outcomes: Sequence[Optional[Tuple[float, float, bytes]]], expected: bytes
) -> Dict[str, int]:
    """Attempted, completed, wrong-reply and failed op counts.

    An op fails when it did not complete by the end of the run or when
    its accepted reply differs from ``expected``.
    """
    attempted = len(outcomes)
    completed = sum(1 for o in outcomes if o is not None)
    wrong = sum(1 for o in outcomes if o is not None and o[2] != expected)
    return {
        "attempted": attempted,
        "completed": completed,
        "wrong_replies": wrong,
        "failed": attempted - completed + wrong,
    }
