"""The one percentile every report and benchmark in the repo uses."""

from __future__ import annotations

import math
from typing import Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-quantile (0 < q <= 1); None with no data.

    Nearest rank returns a value that was measured, never an
    interpolated one: the smallest sample with at least ``q`` of the
    samples at or below it.  The loadgen report, the simulator campaign
    table and the benchmark harness all call this, so "p99" means one
    thing (``benchmarks/ledger`` uses the same rule).
    """
    if not samples:
        return None
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]
