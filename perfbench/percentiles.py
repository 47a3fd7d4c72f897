"""Order statistics for latency samples.

A timing is reported as its median and as the highest percentile of a
fixed ladder that still has at least ten samples beyond it.  The ladder
keeps the chosen percentile stable when the sample count moves a little
between runs; the record states which percentile was used and how many
samples it rests on.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default ``linear`` rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    A percentile ``p`` of ``count`` samples has ``count * (1 - p/100)``
    samples beyond it.  Returns None when even the median has fewer.
    """
    chosen = None
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9:
            chosen = pct
    return chosen


def summarize(values: Sequence[float]) -> dict:
    """Median, tail percentile and tail value of one latency sample.

    With fewer than twenty samples no ladder percentile qualifies; the
    tail is then the maximum and ``tail_pct`` is 100.
    """
    if not values:
        return {"n": 0, "p50": None, "tail_pct": None, "tail": None}
    pct = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "tail_pct": pct if pct is not None else 100.0,
        "tail": percentile(values, pct) if pct is not None else max(values),
    }

