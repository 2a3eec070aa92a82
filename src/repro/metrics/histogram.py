"""Log-bucketed latency histograms: bounded memory, mergeable, within 1 %.

:class:`LatencyRecorder` keeps every sample, which the batch experiments
need (figures, CDFs, the pins) and a long-lived service cannot afford:
its memory grows with every request served and every percentile sorts
them all.  A :class:`LogHistogram` keeps one counter per bucket instead.
Bucket ``i >= 1`` holds latencies in ``[RATIO**(i-1), RATIO**i)``
sim-µs and bucket 0 everything below 1 µs, so a percentile read off the
geometric middle of its bucket is within 1 % of the sample it stands
for.  Count, sum, min, max and the recording span are exact.

Histograms of the same quantity merge exactly (bucket counts add), which
is what lets a fleet report one percentile for all its racks instead of
the worst rack's.  :meth:`LogHistogram.to_wire` is the compact form a
``stats`` payload carries.
"""

import math
from array import array
from typing import Any, Dict, Mapping

from repro.errors import ConfigError

#: Each bucket's upper edge over its lower edge.  The geometric middle of
#: ``[L, RATIO * L)`` is within ``sqrt(RATIO) - 1`` (0.995 %) of anything
#: in it.
RATIO = 1.02
_LOG_RATIO = math.log(RATIO)
#: The most buckets a histogram holds: the last one also takes everything
#: above ``RATIO**(MAX_BUCKETS - 2)`` sim-µs (~88 simulated days).
MAX_BUCKETS = 1500


def bucket_of(latency_us: float) -> int:
    """The bucket a latency falls in."""
    if latency_us < 1.0:
        return 0
    return min(int(math.log(latency_us) / _LOG_RATIO) + 1, MAX_BUCKETS - 1)


class LogHistogram:
    """The latencies of one operation class, as log-spaced bucket counts.

    Reads like :class:`LatencyRecorder` (``count``, ``mean``, ``p``,
    ``p99``, ``p999``, ``throughput_kiops``, ``first_at``/``last_at``),
    so :class:`ExperimentMetrics` summarises either; it holds no sample.
    """

    __slots__ = ("name", "_counts", "count", "sum", "min", "max",
                 "first_at", "last_at")

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: One count per bucket, up to the highest bucket seen (whose
        #: count is never 0).
        self._counts = array("q")
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.first_at = math.inf
        self.last_at = -math.inf

    def record(self, latency_us: float, at: float = 0.0) -> None:
        if latency_us < 0:
            raise ConfigError(f"negative latency {latency_us}")
        index = bucket_of(latency_us)
        counts = self._counts
        if index >= len(counts):
            counts.frombytes(bytes(8 * (index + 1 - len(counts))))
        counts[index] += 1
        self.count += 1
        self.sum += latency_us
        if latency_us < self.min:
            self.min = latency_us
        if latency_us > self.max:
            self.max = latency_us
        if at < self.first_at:
            self.first_at = at
        if at > self.last_at:
            self.last_at = at

    def mean(self) -> float:
        if not self.count:
            raise ConfigError(f"no samples recorded in {self.name!r}")
        return self.sum / self.count

    def _estimate(self, index: int) -> float:
        """Bucket ``index``'s stand-in value, clamped to what was seen."""
        middle = 0.5 if index == 0 else RATIO ** (index - 0.5)
        return min(max(middle, self.min), self.max)

    def p(self, q: float) -> float:
        """The ``q``-th percentile, interpolated between ranks the way
        :func:`repro.metrics.percentiles.percentile` does; each rank's
        sample is read off its bucket, so the result is within 1 % of the
        exact percentile (within 1 µs below 1 µs)."""
        if not self.count:
            raise ConfigError(f"no samples recorded in {self.name!r}")
        if not 0.0 <= q <= 100.0:
            raise ConfigError(f"q must be in [0,100], got {q}")
        rank = (q / 100.0) * (self.count - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        seen = 0
        low_value = None
        for index, count in enumerate(self._counts):
            if not count:
                continue
            seen += count
            if low_value is None and seen > low:
                low_value = self._estimate(index)
            if seen > high:
                high_value = self._estimate(index)
                break
        if low == high or low_value == high_value:
            return low_value
        frac = rank - low
        return low_value * (1.0 - frac) + high_value * frac

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

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Add ``other``'s samples to this histogram; returns ``self``."""
        counts, theirs = self._counts, other._counts
        if len(theirs) > len(counts):
            counts.frombytes(bytes(8 * (len(theirs) - len(counts))))
        for index, count in enumerate(theirs):
            if count:
                counts[index] += count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.first_at = min(self.first_at, other.first_at)
        self.last_at = max(self.last_at, other.last_at)
        return self

    def to_wire(self) -> Dict[str, Any]:
        """A JSON-safe form: the exact fields, and the bucket counts from
        the lowest occupied bucket (``lo``) up."""
        if not self.count:
            return {"count": 0}
        counts = self._counts
        lo = next(index for index, count in enumerate(counts) if count)
        return {
            "count": self.count, "sum": self.sum,
            "min": self.min, "max": self.max,
            "first_at": self.first_at, "last_at": self.last_at,
            "lo": lo, "counts": counts[lo:].tolist(),
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any],
                  name: str = "") -> "LogHistogram":
        """The histogram :meth:`to_wire` described; a form that does not
        add up raises :class:`ConfigError`."""
        out = cls(name)
        try:
            count = int(wire.get("count", 0))
            if not count:
                return out
            lo = int(wire["lo"])
            counts = [int(c) for c in wire["counts"]]
            exact = [float(wire[field]) for field in
                     ("sum", "min", "max", "first_at", "last_at")]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed histogram {name!r}: {exc!r}") from None
        if (lo < 0 or not counts or lo + len(counts) > MAX_BUCKETS
                or min(counts) < 0 or counts[-1] == 0
                or sum(counts) != count):
            raise ConfigError(f"malformed histogram {name!r}: bucket counts "
                              f"do not add up to {count}")
        out._counts = array("q", bytes(8 * lo))
        out._counts.extend(counts)
        out.count = count
        out.sum, out.min, out.max, out.first_at, out.last_at = exact
        return out
