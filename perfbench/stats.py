"""Order statistics for per-cell timings.

The tail of a timing is reported at the highest percentile of a fixed
ladder that still leaves at least ``MIN_BEYOND`` samples strictly above
it, so a tail is never read off one or two outliers.  Each workload caps
the ladder, so a faster program is not pushed to a harsher percentile
than its parent was measured at.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

PERCENTILES = (50, 75, 90, 95, 99)
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]


def cells_needed(pct: float) -> int:
    """Fewest samples for which ``pct`` leaves ``MIN_BEYOND`` samples beyond."""
    n = MIN_BEYOND
    while n - math.ceil(n * pct / 100.0) < MIN_BEYOND:
        n += 1
    return n


def tail(values: Sequence[float], cap: float = PERCENTILES[-1]) -> Optional[Tuple[int, float]]:
    """(percentile, value) of the highest ladder step <= ``cap`` with at
    least ``MIN_BEYOND`` samples strictly above the value, or None when
    there are too few samples for any step."""
    if len(values) <= MIN_BEYOND:
        return None
    for pct in reversed(PERCENTILES):
        if pct > cap:
            continue
        value = nearest_rank(values, pct)
        if sum(1 for v in values if v > value) >= MIN_BEYOND:
            return pct, value
    return None
