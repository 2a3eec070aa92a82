"""Tracers: who decides which requests get spans.

Two implementations share one duck type:

* :class:`Tracer` -- probabilistic *head* sampling (the decision is made
  once, when the request is issued, so a sampled request is traced end to
  end); finished traces accumulate in memory, bounded by ``max_traces``.
* :class:`NullTracer` -- the zero-overhead default (``enabled`` is
  false, so the rack does not call ``start_request`` at all); every
  instrumentation site degrades to a ``pkt.trace is None`` check, and
  no span objects are ever allocated.

Sampling is driven by a dedicated seeded RNG, so the *same* run traced at
the same rate samples the same requests in any process -- and, crucially,
the sampling draw never touches the simulation's RNG streams, so enabling
tracing cannot change simulated behaviour.
"""

import random
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError
from repro.trace.span import RequestTrace, finished_traces


class NullTracer:
    """Tracing disabled: never samples, never allocates."""

    enabled = False
    sample_rate = 0.0

    def start_request(
        self, trace_id: int, kind: str, client: str, now: float, **attrs: Any
    ) -> None:
        """Head-sampling decision: never traced."""
        return None

    def finish(self, trace: RequestTrace, now: float) -> None:
        """No-op (no trace can exist)."""

    def collection(self) -> Optional["TraceCollection"]:
        """No traces were collected."""
        return None


class Tracer:
    """Head-sampling tracer collecting finished request traces."""

    enabled = True

    def __init__(
        self,
        sample_rate: float = 1.0,
        seed: int = 0,
        max_traces: int = 200_000,
    ) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ConfigError(
                f"sample_rate must be in (0, 1], got {sample_rate} "
                "(use NullTracer / make_tracer for rate 0)"
            )
        if max_traces < 1:
            raise ConfigError(f"max_traces must be >= 1, got {max_traces}")
        self.sample_rate = sample_rate
        self.max_traces = max_traces
        self._rng = random.Random(seed)
        self.traces: List[RequestTrace] = []
        self.started = 0
        self.sampled = 0
        self.dropped = 0

    def start_request(
        self, trace_id: int, kind: str, client: str, now: float, **attrs: Any
    ) -> Optional[RequestTrace]:
        """Head sampling: decide here, once, whether this request is traced."""
        self.started += 1
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return None
        if len(self.traces) >= self.max_traces:
            self.dropped += 1
            return None
        trace = RequestTrace(trace_id, kind, client, now, attrs or None)
        self.sampled += 1
        self.traces.append(trace)
        return trace

    def finish(self, trace: RequestTrace, now: float) -> None:
        """Close a trace at its completion time."""
        trace.finish(now)

    def collection(self) -> "TraceCollection":
        """A picklable snapshot of everything collected so far."""
        return TraceCollection(
            traces=finished_traces(self.traces),
            sample_rate=self.sample_rate,
            started=self.started,
            sampled=self.sampled,
        )


def make_tracer(sample_rate: float, seed: int = 0):
    """``NullTracer`` at rate 0, a sampling :class:`Tracer` otherwise."""
    if sample_rate < 0.0 or sample_rate > 1.0:
        raise ConfigError(f"sample_rate must be in [0, 1], got {sample_rate}")
    if sample_rate == 0.0:
        return NullTracer()
    return Tracer(sample_rate=sample_rate, seed=seed)


class TraceCollection:
    """Finished traces from one run, ready to export or attribute.

    Plain data end to end, so it rides inside a pickled
    :class:`~repro.experiments.runner.RackResult` across the process-pool
    fan-out.
    """

    __slots__ = ("traces", "sample_rate", "started", "sampled")

    def __init__(
        self,
        traces: List[RequestTrace],
        sample_rate: float,
        started: int = 0,
        sampled: int = 0,
    ) -> None:
        self.traces = traces
        self.sample_rate = sample_rate
        self.started = started
        self.sampled = sampled

    def __len__(self) -> int:
        return len(self.traces)

    def of_kind(self, kind: str) -> List[RequestTrace]:
        return [t for t in self.traces if t.kind == kind]

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event (Perfetto-loadable) document."""
        from repro.trace.chrome import to_chrome_trace

        return to_chrome_trace(self.traces)

    def attribution(self, percentile: float = 99.0, kind: str = "read"):
        """Tail-latency attribution of the collected traces."""
        from repro.trace.attribution import attribute_tail

        return attribute_tail(self.traces, percentile=percentile, kind=kind)

    def summary(self) -> Dict[str, float]:
        """Flat headline numbers (merged into ``RackResult.summary()``)."""
        out = {
            "traced_requests": float(len(self.traces)),
            "trace_sample_rate": self.sample_rate,
        }
        reads = self.of_kind("read")
        if reads:
            out["traced_gc_blocked_reads"] = float(
                sum(1 for t in reads if t.gc_blocked())
            )
        return out

    def __getstate__(self):
        return (self.traces, self.sample_rate, self.started, self.sampled)

    def __setstate__(self, state) -> None:
        self.traces, self.sample_rate, self.started, self.sampled = state
