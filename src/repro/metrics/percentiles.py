"""Exact percentile and CDF computation over recorded latencies."""

import math
from array import array
from typing import List, Sequence, Tuple

from repro.errors import ConfigError


def percentile(values: Sequence[float], q: float) -> float:
    """Exact percentile via linear interpolation (numpy 'linear' method).

    ``q`` is in percent, e.g. ``99.9`` for P99.9.
    """
    if not values:
        raise ConfigError("cannot take a percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ConfigError(f"q must be in [0,100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[low] == ordered[high]:
        # Also guards against 1-ulp drift when interpolating equal values.
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def cdf_points(values: Sequence[float], points: int = 200) -> List[Tuple[float, float]]:
    """(latency, cumulative fraction) pairs for plotting a CDF."""
    if not values:
        raise ConfigError("cannot build a CDF of no samples")
    if points < 2:
        raise ConfigError(f"need at least 2 CDF points, got {points}")
    ordered = sorted(values)
    n = len(ordered)
    out = []
    for i in range(points):
        frac = i / (points - 1)
        idx = min(n - 1, int(round(frac * (n - 1))))
        out.append((ordered[idx], (idx + 1) / n))
    return out


class LatencyRecorder:
    """Collects latencies for one operation class, every sample exactly
    (packed as C doubles: 8 bytes a sample, the same values)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values = array("d")
        self.first_at: float = math.inf
        self.last_at: float = -math.inf

    def record(self, latency_us: float, at: float = 0.0) -> None:
        if latency_us < 0:
            raise ConfigError(f"negative latency {latency_us}")
        self._values.append(latency_us)
        if at < self.first_at:
            self.first_at = at
        if at > self.last_at:
            self.last_at = at

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> List[float]:
        return self._values.tolist()

    def mean(self) -> float:
        if not self._values:
            raise ConfigError(f"no samples recorded in {self.name!r}")
        return sum(self._values) / len(self._values)

    def p(self, q: float) -> float:
        return percentile(self._values, q)

    def p50(self) -> float:
        return self.p(50.0)

    def p99(self) -> float:
        return self.p(99.0)

    def p999(self) -> float:
        return self.p(99.9)

    def throughput_kiops(self) -> float:
        """Completions per millisecond == kIOPS, over the recording span."""
        span = self.last_at - self.first_at
        if span <= 0:
            return 0.0
        return self.count / (span / 1000.0)

    def cdf(self, points: int = 200) -> List[Tuple[float, float]]:
        return cdf_points(self._values, points)
