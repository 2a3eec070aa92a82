"""Order statistics and the per-window reduction the time metrics use.

Interference on a shared host only ever slows a window down, never
speeds it up, so a time-based metric is reported at the **fast-side
decile** of its phase's windows: the 90th percentile of the window
throughputs, the 10th percentile of the window costs.  It moves one for
one with a real speed-up.  Nothing is ever divided by a calibration.
"""

import math
from typing import List, Sequence

#: The fast side: this share of the windows were slower.
FAST_DECILE = 0.9


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def fast_rate(rates: Sequence[float]) -> float:
    """The window throughput only a tenth of the windows beat."""
    return quantile(rates, FAST_DECILE)


def fast_cost(costs: Sequence[float]) -> float:
    """The window time or CPU cost only a tenth of the windows beat."""
    return quantile(costs, 1.0 - FAST_DECILE)


class Windows:
    """Cuts a phase into windows of at least ``width_s``; one row each."""

    def __init__(self, width_s: float, start_s: float, start_cpu_s: float) -> None:
        self.width_s = width_s
        self._t = start_s
        self._cpu = start_cpu_s
        self._ops = 0
        self.next_cut_s = start_s + width_s
        #: (start, seconds, operations, cpu seconds) of every closed window.
        self.closed: List[tuple] = []

    def cut(self, now_s: float, ops_done: int, cpu_s: float) -> None:
        """Close the current window at ``now_s`` and open the next."""
        ops = ops_done - self._ops
        if ops > 0:
            self.closed.append((self._t, now_s - self._t, ops,
                                cpu_s - self._cpu))
        self._t, self._ops, self._cpu = now_s, ops_done, cpu_s
        self.next_cut_s = now_s + self.width_s


def rates(rows: Sequence[tuple]) -> List[float]:
    """Operations per second of each window row."""
    return [row[2] / row[1] for row in rows]


def cpu_ms_per_op(rows: Sequence[tuple]) -> List[float]:
    return [row[3] * 1000.0 / row[2] for row in rows]


def whole_rate(rows: Sequence[tuple]) -> float:
    return sum(row[2] for row in rows) / sum(row[1] for row in rows)


def whole_cpu_ms_per_op(rows: Sequence[tuple]) -> float:
    return sum(row[3] for row in rows) * 1000.0 / sum(row[2] for row in rows)
