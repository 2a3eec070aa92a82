"""Spans: the unit of request-level tracing.

A request's journey through the rack is recorded as a flat list of
:class:`Span` intervals in simulated microseconds -- one per stage the
paper's latency decomposition names (§3.4's ``Net_time`` /
``Storage_time`` split, Figure 2's GC-induced tail).  Stage names are
namespaced (``net.*``, ``switch.*``, ``server.*``, ``storage.*``) and map
onto four attribution categories:

* ``net``     -- fabric traversal time (the INT-measured component);
* ``queue``   -- time queued behind other requests (switch egress
  scheduler, server I/O scheduler);
* ``gc``      -- flash service that overlapped a GC pass on the vSSD;
* ``media``   -- flash service with no GC interference (plus DRAM
  write-cache admission).

Spans carry only plain data (floats, strings, small dicts) so a trace
pickles across the process-pool fan-out unchanged.
"""

from typing import Any, Dict, Iterable, List, Optional

#: Attribution categories, in report order.
CATEGORIES = ("gc", "media", "queue", "net")

#: Span name -> attribution category.  ``storage.media`` is resolved per
#: span: it lands in ``gc`` when its ``gc`` attribute is truthy.
STAGE_CATEGORIES: Dict[str, str] = {
    "net.client_to_tor": "net",
    "net.tor_to_server": "net",
    "net.server_to_tor": "net",
    "net.tor_to_client": "net",
    "net.redirect_relay": "net",
    "net.tor_egress": "queue",
    "net.client_egress": "queue",
    "server.queue": "queue",
    "server.write_cache": "media",
    "storage.media": "media",
}


def category_of(name: str, attrs: Optional[Dict[str, Any]] = None) -> Optional[str]:
    """The attribution category of a span, or ``None`` for markers."""
    category = STAGE_CATEGORIES.get(name)
    if category == "media" and name == "storage.media" and attrs and attrs.get("gc"):
        return "gc"
    return category


class Span:
    """One timed stage of one request (closed interval, sim-µs)."""

    __slots__ = ("name", "start_us", "end_us", "attrs")

    def __init__(
        self,
        name: str,
        start_us: float,
        end_us: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start_us = start_us
        self.end_us = end_us
        self.attrs = attrs

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def category(self) -> Optional[str]:
        return category_of(self.name, self.attrs)

    # __slots__ classes need explicit pickle support.
    def __getstate__(self):
        return (self.name, self.start_us, self.end_us, self.attrs)

    def __setstate__(self, state) -> None:
        self.name, self.start_us, self.end_us, self.attrs = state


class RequestTrace:
    """The full per-stage record of one traced request."""

    __slots__ = ("trace_id", "kind", "client", "start_us", "end_us", "spans", "attrs")

    def __init__(
        self,
        trace_id: int,
        kind: str,
        client: str,
        start_us: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.kind = kind
        self.client = client
        self.start_us = start_us
        #: Set by :meth:`finish`; ``None`` while the request is in flight
        #: (a dropped packet never finishes its trace).
        self.end_us: Optional[float] = None
        self.spans: List[Span] = []
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}

    # ------------------------------------------------------------ recording

    def add_span(self, name: str, start_us: float, end_us: float, **attrs: Any) -> Span:
        """Record one completed stage."""
        span = Span(name, start_us, end_us, attrs or None)
        self.spans.append(span)
        return span

    def instant(self, name: str, at_us: float, **attrs: Any) -> Span:
        """Record a zero-duration marker (e.g. the switch pipeline pass)."""
        return self.add_span(name, at_us, at_us, **attrs)

    def finish(self, end_us: float) -> None:
        self.end_us = end_us

    @property
    def finished(self) -> bool:
        return self.end_us is not None

    @property
    def total_us(self) -> float:
        """End-to-end latency of the traced request."""
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    # ------------------------------------------------------------- analysis

    def category_totals(self) -> Dict[str, float]:
        """Summed duration per attribution category (markers excluded)."""
        out: Dict[str, float] = {}
        for span in self.spans:
            category = span.category
            if category is not None:
                out[category] = out.get(category, 0.0) + span.duration_us
        return out

    def attributed_us(self) -> float:
        """Total time classified into a named category."""
        return sum(self.category_totals().values())

    def coverage(self) -> float:
        """Fraction of end-to-end latency the spans account for."""
        total = self.total_us
        if total <= 0.0:
            return 0.0
        return min(1.0, self.attributed_us() / total)

    def dominant_category(self) -> Optional[str]:
        """The category that consumed the most time (ties: report order)."""
        totals = self.category_totals()
        if not totals:
            return None
        return max(CATEGORIES, key=lambda c: (totals.get(c, 0.0), -CATEGORIES.index(c)))

    def gc_blocked(self) -> bool:
        """True when any flash service overlapped a GC pass."""
        return any(span.category == "gc" for span in self.spans)

    def __getstate__(self):
        return (
            self.trace_id, self.kind, self.client, self.start_us,
            self.end_us, self.spans, self.attrs,
        )

    def __setstate__(self, state) -> None:
        (
            self.trace_id, self.kind, self.client, self.start_us,
            self.end_us, self.spans, self.attrs,
        ) = state


def finished_traces(traces: Iterable[RequestTrace]) -> List[RequestTrace]:
    """Only the traces whose request actually completed."""
    return [t for t in traces if t.finished]
