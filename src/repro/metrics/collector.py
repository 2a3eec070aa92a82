"""Aggregated experiment metrics: per-op-class latency plus breakdowns.

Figure 15 reports latency *breakdowns* (storage-stack time vs end-to-end),
so the collector keeps parallel recorders for the total and for the
storage-only component of each request.

Batch runs keep every sample (:class:`LatencyRecorder`, exact); the live
service, which runs for as long as it is up, builds the same collector
from :class:`LogHistogram` recorders, whose memory does not grow with the
requests served and which merge across racks.
"""

from typing import Any, Callable, Dict, Mapping, Optional

from repro.errors import ConfigError
from repro.metrics.histogram import LogHistogram
from repro.metrics.percentiles import LatencyRecorder

#: The collector's recorders, by attribute name (also the names their
#: histograms travel under in a ``stats`` payload).
RECORDERS = ("read_total", "write_total", "read_storage", "write_storage")


class ExperimentMetrics:
    """End-to-end and storage-component latencies for reads and writes."""

    def __init__(self, recorder: Callable[[str], Any] = LatencyRecorder,
                 ) -> None:
        self.read_total = recorder("read-total")
        self.write_total = recorder("write-total")
        self.read_storage = recorder("read-storage")
        self.write_storage = recorder("write-storage")
        self.redirected_reads = 0
        self.gc_blocked_reads = 0
        #: Fault-injection counters (filled by the chaos runner; empty
        #: when the experiment ran without a fault schedule).
        self.chaos: Dict[str, float] = {}

    def record(
        self,
        kind: str,
        total_us: float,
        at: float,
        storage_us: Optional[float] = None,
    ) -> None:
        if kind == "read":
            self.read_total.record(total_us, at)
            if storage_us is not None:
                self.read_storage.record(storage_us, at)
        elif kind == "write":
            self.write_total.record(total_us, at)
            if storage_us is not None:
                self.write_storage.record(storage_us, at)
        else:
            raise ConfigError(f"kind must be read/write, got {kind!r}")

    def summary(self) -> Dict[str, float]:
        """A flat dict of the headline numbers (missing classes omitted)."""
        out: Dict[str, float] = {}
        for label, recorder in (
            ("read", self.read_total),
            ("write", self.write_total),
        ):
            if recorder.count:
                out[f"{label}_count"] = float(recorder.count)
                out[f"{label}_avg_us"] = recorder.mean()
                out[f"{label}_p99_us"] = recorder.p99()
                out[f"{label}_p999_us"] = recorder.p999()
                out[f"{label}_kiops"] = recorder.throughput_kiops()
        for label, recorder in (
            ("read_storage", self.read_storage),
            ("write_storage", self.write_storage),
        ):
            if recorder.count:
                out[f"{label}_p999_us"] = recorder.p999()
                out[f"{label}_avg_us"] = recorder.mean()
        out["redirected_reads"] = float(self.redirected_reads)
        out["gc_blocked_reads"] = float(self.gc_blocked_reads)
        for key in sorted(self.chaos):
            out[f"chaos_{key}"] = float(self.chaos[key])
        return out

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        """Each recorder's wire form (a collector of histograms only)."""
        return {name: getattr(self, name).to_wire() for name in RECORDERS}

    def merge_histograms(self, wires: Mapping[str, Mapping[str, Any]],
                         ) -> None:
        """Add the histograms :meth:`histograms` shipped to this
        collector's own (unknown names are ignored)."""
        for name in RECORDERS:
            wire = wires.get(name)
            if wire is not None:
                getattr(self, name).merge(LogHistogram.from_wire(wire, name))

    def total_kiops(self) -> float:
        spans = []
        count = 0
        for recorder in (self.read_total, self.write_total):
            if recorder.count:
                spans.append((recorder.first_at, recorder.last_at))
                count += recorder.count
        if not spans or count == 0:
            return 0.0
        start = min(s for s, _ in spans)
        end = max(e for _, e in spans)
        # All completions at one timestamp still represent real work: fall
        # back to a 1-µs span so a burst reports a finite (huge) rate
        # instead of a silent 0.
        elapsed_us = max(end - start, 1.0)
        return count / (elapsed_us / 1000.0)
