"""Unit tests for the request-tracing subsystem (`repro/trace/`)."""

import json
import pickle

import pytest

from repro.errors import ConfigError
from repro.trace import (
    CATEGORIES,
    NullTracer,
    RequestTrace,
    Span,
    TraceCollection,
    Tracer,
    attribute_tail,
    category_of,
    chrome_trace_events,
    finished_traces,
    make_tracer,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)


class TestCategoryMapping:
    def test_network_hops_are_net(self):
        for name in ("net.client_to_tor", "net.tor_to_server",
                     "net.server_to_tor", "net.tor_to_client",
                     "net.redirect_relay"):
            assert category_of(name) == "net"

    def test_queueing_stages(self):
        for name in ("net.tor_egress", "net.client_egress", "server.queue"):
            assert category_of(name) == "queue"

    def test_media_stages(self):
        assert category_of("server.write_cache") == "media"
        assert category_of("storage.media") == "media"
        assert category_of("storage.media", {"gc": False}) == "media"

    def test_gc_overlap_reclassifies_media(self):
        # Figure 2's stall: flash service under GC is its own category.
        assert category_of("storage.media", {"gc": True}) == "gc"

    def test_markers_have_no_category(self):
        assert category_of("switch.pipeline") is None
        assert category_of("no.such.stage") is None

    def test_report_order_is_fixed(self):
        assert CATEGORIES == ("gc", "media", "queue", "net")


class TestSpan:
    def test_duration(self):
        assert Span("server.queue", 10.0, 35.5).duration_us == 25.5

    def test_category_property_uses_attrs(self):
        assert Span("storage.media", 0.0, 1.0, {"gc": True}).category == "gc"
        assert Span("storage.media", 0.0, 1.0).category == "media"

    def test_pickle_roundtrip(self):
        span = Span("net.tor_to_server", 1.0, 2.0, {"vssd": 3})
        clone = pickle.loads(pickle.dumps(span))
        assert (clone.name, clone.start_us, clone.end_us, clone.attrs) == (
            "net.tor_to_server", 1.0, 2.0, {"vssd": 3})


def make_trace(trace_id: int = 1, kind: str = "read") -> RequestTrace:
    """A hand-built trace: 10us net, 30us queue, 60us media = 100us total."""
    trace = RequestTrace(trace_id, kind, "client-0", 0.0)
    trace.add_span("net.client_to_tor", 0.0, 5.0)
    trace.instant("switch.pipeline", 5.0, redirected=False)
    trace.add_span("net.tor_to_server", 5.0, 10.0)
    trace.add_span("server.queue", 10.0, 40.0, queue_depth=4)
    trace.add_span("storage.media", 40.0, 100.0, gc=False)
    trace.finish(100.0)
    return trace


class TestRequestTrace:
    def test_totals_and_stages(self):
        trace = make_trace()
        assert trace.total_us == 100.0
        assert trace.category_totals() == {
            "net": 10.0, "queue": 30.0, "media": 60.0}

    def test_unfinished_trace_has_zero_total(self):
        trace = RequestTrace(1, "read", "c", 50.0)
        assert not trace.finished and trace.total_us == 0.0
        # finished_traces keeps only the completed one.
        kept = finished_traces([trace, make_trace(trace_id=9)])
        assert [t.trace_id for t in kept] == [9]

    def test_full_coverage(self):
        trace = make_trace()
        assert trace.attributed_us() == 100.0
        assert trace.coverage() == 1.0

    def test_coverage_capped_at_one(self):
        trace = RequestTrace(1, "read", "c", 0.0)
        # Overlapping spans can attribute more time than elapsed.
        trace.add_span("server.queue", 0.0, 10.0)
        trace.add_span("storage.media", 0.0, 10.0)
        trace.finish(10.0)
        assert trace.coverage() == 1.0

    def test_dominant_category(self):
        assert make_trace().dominant_category() == "media"

    def test_dominant_tie_prefers_report_order(self):
        trace = RequestTrace(1, "read", "c", 0.0)
        trace.add_span("storage.media", 0.0, 10.0, gc=True)
        trace.add_span("server.queue", 10.0, 20.0)
        trace.finish(20.0)
        # gc and queue tie at 10us each; gc comes first in CATEGORIES.
        assert trace.dominant_category() == "gc"

    def test_markers_not_attributed(self):
        trace = RequestTrace(1, "read", "c", 0.0)
        trace.instant("switch.pipeline", 1.0)
        trace.finish(2.0)
        assert trace.category_totals() == {}
        assert trace.dominant_category() is None

    def test_gc_blocked(self):
        assert not make_trace().gc_blocked()
        trace = RequestTrace(1, "read", "c", 0.0)
        trace.add_span("storage.media", 0.0, 5.0, gc=True)
        trace.finish(5.0)
        assert trace.gc_blocked()

    def test_pickle_roundtrip(self):
        clone = pickle.loads(pickle.dumps(make_trace()))
        assert clone.trace_id == 1
        assert clone.total_us == 100.0
        assert clone.category_totals() == {
            "net": 10.0, "queue": 30.0, "media": 60.0}


class TestTracer:
    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            Tracer(sample_rate=0.0)
        with pytest.raises(ConfigError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ConfigError):
            Tracer(max_traces=0)

    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        traces = [tracer.start_request(i, "read", "c", 0.0) for i in range(50)]
        assert all(t is not None for t in traces)
        assert tracer.sampled == tracer.started == 50

    def test_sampling_is_deterministic_per_seed(self):
        def sampled_ids(seed):
            tracer = Tracer(sample_rate=0.3, seed=seed)
            return [i for i in range(200)
                    if tracer.start_request(i, "read", "c", 0.0) is not None]

        assert sampled_ids(7) == sampled_ids(7)
        assert sampled_ids(7) != sampled_ids(8)

    def test_sampling_rate_roughly_honoured(self):
        tracer = Tracer(sample_rate=0.25, seed=1)
        for i in range(2000):
            tracer.start_request(i, "read", "c", 0.0)
        assert tracer.sampled / tracer.started == pytest.approx(0.25, abs=0.05)

    def test_max_traces_bounds_memory(self):
        tracer = Tracer(sample_rate=1.0, max_traces=10)
        for i in range(25):
            tracer.start_request(i, "read", "c", 0.0)
        assert len(tracer.traces) == 10
        assert tracer.dropped == 15

    def test_collection_keeps_only_finished(self):
        tracer = Tracer(sample_rate=1.0)
        done = tracer.start_request(1, "read", "c", 0.0)
        tracer.start_request(2, "read", "c", 0.0)  # never finished
        tracer.finish(done, 42.0)
        collection = tracer.collection()
        assert len(collection) == 1
        assert collection.traces[0].total_us == 42.0

    def test_make_tracer_dispatch(self):
        assert isinstance(make_tracer(0.0), NullTracer)
        assert isinstance(make_tracer(0.5), Tracer)
        with pytest.raises(ConfigError):
            make_tracer(-0.1)
        with pytest.raises(ConfigError):
            make_tracer(1.1)


class TestNullTracer:
    def test_never_samples(self):
        tracer = NullTracer()
        assert tracer.start_request(1, "read", "c", 0.0) is None
        tracer.finish(None, 1.0)  # must not raise
        assert tracer.collection() is None
        assert tracer.enabled is False and tracer.sample_rate == 0.0


class TestChromeExport:
    def test_events_one_metadata_plus_one_slice_per_span(self):
        trace = make_trace()
        events = chrome_trace_events([trace])
        assert len(events) == 1 + len(trace.spans)
        meta, slices = events[0], events[1:]
        assert meta["ph"] == "M" and meta["name"] == "thread_name"
        assert all(e["ph"] == "X" for e in slices)
        assert all(e["tid"] == trace.trace_id for e in events)

    def test_slice_timestamps_are_sim_us(self):
        events = chrome_trace_events([make_trace()])
        queue = next(e for e in events if e["name"] == "server.queue")
        assert queue["ts"] == 10.0 and queue["dur"] == 30.0
        assert queue["cat"] == "queue"
        assert queue["args"]["queue_depth"] == 4

    def test_clients_get_distinct_pids(self):
        a = make_trace(trace_id=1)
        b = make_trace(trace_id=2)
        b.client = "client-1"
        events = chrome_trace_events([a, b])
        assert len({e["pid"] for e in events}) == 2

    def test_non_json_attrs_are_stringified(self):
        trace = RequestTrace(1, "read", "c", 0.0)
        trace.add_span("server.queue", 0.0, 1.0, weird=object())
        trace.finish(1.0)
        document = to_chrome_trace([trace])
        validate_chrome_trace(document)
        json.dumps(document)  # must be serialisable

    def test_exported_document_validates(self):
        document = to_chrome_trace([make_trace()])
        assert document["otherData"]["time_unit"] == "us"
        validate_chrome_trace(document)

    def test_validation_rejects_bad_documents(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "B", "pid": 1, "tid": 1}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1,
                 "ts": -1.0, "dur": 0.0}]})

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace([make_trace()], str(path))
        document = json.loads(path.read_text())
        assert count == len(document["traceEvents"]) == 6
        validate_chrome_trace(document)


def tail_trace(trace_id, total_us, gc_us=0.0, kind="read"):
    """A synthetic trace: fixed 10us net + gc_us GC + remainder queueing."""
    trace = RequestTrace(trace_id, kind, "c", 0.0)
    trace.add_span("net.client_to_tor", 0.0, 10.0)
    cursor = 10.0
    if gc_us:
        trace.add_span("storage.media", cursor, cursor + gc_us, gc=True)
        cursor += gc_us
    trace.add_span("server.queue", cursor, total_us)
    trace.finish(total_us)
    return trace


class TestAttribution:
    def test_tail_dominated_by_gc(self):
        fast = [tail_trace(i, 100.0) for i in range(99)]
        slow = tail_trace(99, 5000.0, gc_us=4000.0)
        report = attribute_tail(fast + [slow], percentile=99.0)
        assert report.total_requests == 100
        assert report.tail_requests >= 1
        assert report.dominant() == "gc"
        assert report.gc_blocked == 1
        assert report.by_category["gc"] == 1
        assert report.coverage == pytest.approx(1.0)

    def test_threshold_uses_exact_percentile(self):
        traces = [tail_trace(i, float(100 + i)) for i in range(100)]
        report = attribute_tail(traces, percentile=50.0)
        # Everything at or above the median is in the tail.
        assert report.tail_requests == 50
        assert report.threshold_us == pytest.approx(149.5)

    def test_kind_filter(self):
        reads = [tail_trace(i, 100.0) for i in range(10)]
        writes = [tail_trace(100 + i, 900.0, kind="write") for i in range(10)]
        report = attribute_tail(reads + writes, percentile=0.0, kind="write")
        assert report.total_requests == 10
        assert report.threshold_us == 900.0

    def test_empty_input(self):
        report = attribute_tail([], percentile=99.0)
        assert report.total_requests == report.tail_requests == 0
        assert report.dominant() == "none"
        assert report.coverage == 0.0
        assert "0/0" in report.describe()

    def test_percentile_validation(self):
        with pytest.raises(ConfigError):
            attribute_tail([tail_trace(1, 10.0)], percentile=101.0)

    def test_describe_mentions_every_active_category(self):
        report = attribute_tail(
            [tail_trace(i, 1000.0, gc_us=600.0) for i in range(5)],
            percentile=0.0)
        text = report.describe()
        assert "gc" in text and "queue" in text and "net" in text
        assert "GC-blocked" in text


class TestTraceCollection:
    def collection(self):
        traces = [make_trace(1), make_trace(2, kind="write")]
        return TraceCollection(traces, sample_rate=0.5, started=4, sampled=2)

    def test_of_kind(self):
        c = self.collection()
        assert len(c) == 2
        assert [t.trace_id for t in c.of_kind("write")] == [2]

    def test_summary(self):
        summary = self.collection().summary()
        assert summary["traced_requests"] == 2.0
        assert summary["trace_sample_rate"] == 0.5
        assert summary["traced_gc_blocked_reads"] == 0.0

    def test_summary_omits_gc_counter_without_reads(self):
        c = TraceCollection([make_trace(1, kind="write")], sample_rate=1.0)
        assert "traced_gc_blocked_reads" not in c.summary()

    def test_to_chrome_and_attribution(self):
        c = self.collection()
        validate_chrome_trace(c.to_chrome())
        assert c.attribution(percentile=0.0, kind="read").total_requests == 1

    def test_pickle_roundtrip(self):
        clone = pickle.loads(pickle.dumps(self.collection()))
        assert len(clone) == 2
        assert clone.sample_rate == 0.5 and clone.started == 4
        validate_chrome_trace(clone.to_chrome())
