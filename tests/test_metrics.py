"""Tests for latency metrics and CDFs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.metrics import ExperimentMetrics, LatencyRecorder, cdf_points, percentile


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50.0) == 5.0

    def test_extremes(self):
        vals = [5.0, 1.0, 9.0]
        assert percentile(vals, 0.0) == 1.0
        assert percentile(vals, 100.0) == 9.0

    def test_p999_tracks_tail(self):
        vals = [1.0] * 999 + [1000.0]
        assert percentile(vals, 99.9) > 1.0

    def test_single_sample(self):
        assert percentile([7.0], 99.9) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            percentile([], 50.0)

    def test_out_of_range_q(self):
        with pytest.raises(ConfigError):
            percentile([1.0], 101.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1,
                    max_size=200),
           st.floats(min_value=0, max_value=100))
    def test_percentile_within_range(self, values, q):
        p = percentile(values, q)
        assert min(values) <= p <= max(values)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2,
                    max_size=100))
    def test_percentile_monotone_in_q(self, values):
        ps = [percentile(values, q) for q in (10, 50, 90, 99, 99.9)]
        assert all(a <= b + 1e-9 for a, b in zip(ps, ps[1:]))


class TestCdf:
    def test_endpoints(self):
        pts = cdf_points([1.0, 2.0, 3.0, 4.0], points=4)
        assert pts[0][0] == 1.0
        assert pts[-1] == (4.0, 1.0)

    def test_fractions_monotone(self):
        pts = cdf_points(list(range(100)), points=50)
        fracs = [f for _, f in pts]
        assert fracs == sorted(fracs)

    def test_validation(self):
        with pytest.raises(ConfigError):
            cdf_points([], 10)
        with pytest.raises(ConfigError):
            cdf_points([1.0], 1)


class TestLatencyRecorder:
    def test_basic_stats(self):
        rec = LatencyRecorder("r")
        for v in (10.0, 20.0, 30.0):
            rec.record(v, at=float(v))
        assert rec.count == 3
        assert rec.mean() == 20.0
        assert rec.p50() == 20.0
        assert max(rec.values) == 30.0

    def test_throughput(self):
        rec = LatencyRecorder()
        # 1000 completions spread over 1 second = 1 kIOPS.
        for i in range(1000):
            rec.record(1.0, at=i * 1000.0)
        assert rec.throughput_kiops() == pytest.approx(1.0, rel=0.01)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            LatencyRecorder().record(-1.0)

    def test_stats_require_samples(self):
        rec = LatencyRecorder("empty")
        with pytest.raises(ConfigError):
            rec.mean()

    def test_zero_span_throughput(self):
        rec = LatencyRecorder()
        rec.record(1.0, at=5.0)
        assert rec.throughput_kiops() == 0.0


class TestExperimentMetrics:
    def test_summary_keys(self):
        m = ExperimentMetrics()
        m.record("read", 100.0, at=0.0, storage_us=40.0)
        m.record("read", 200.0, at=1000.0, storage_us=60.0)
        m.record("write", 300.0, at=500.0)
        s = m.summary()
        assert s["read_count"] == 2
        assert s["read_avg_us"] == 150.0
        assert s["read_storage_avg_us"] == 50.0
        assert "write_p999_us" in s

    def test_reads_only_summary(self):
        m = ExperimentMetrics()
        m.record("read", 10.0, at=0.0)
        s = m.summary()
        assert "write_count" not in s

    def test_invalid_kind(self):
        with pytest.raises(ConfigError):
            ExperimentMetrics().record("erase", 1.0, at=0.0)

    def test_total_kiops_combines_classes(self):
        m = ExperimentMetrics()
        for i in range(500):
            m.record("read", 1.0, at=i * 1000.0)
            m.record("write", 1.0, at=i * 1000.0 + 500.0)
        assert m.total_kiops() == pytest.approx(2.0, rel=0.05)

    def test_total_kiops_same_timestamp_falls_back_to_1us_floor(self):
        # Every completion at one instant used to report 0.0 kIOPS; the
        # 1-µs floor now reports the burst as count/1µs instead.
        m = ExperimentMetrics()
        for _ in range(5):
            m.record("read", 10.0, at=1234.0)
        assert m.total_kiops() == pytest.approx(5.0 * 1000.0)

    def test_total_kiops_empty_is_zero(self):
        assert ExperimentMetrics().total_kiops() == 0.0

    def test_summary_exposes_redirect_and_gc_blocked_counters(self):
        m = ExperimentMetrics()
        m.record("read", 10.0, at=0.0)
        m.redirected_reads = 7
        m.gc_blocked_reads = 3
        s = m.summary()
        assert s["redirected_reads"] == 7.0
        assert s["gc_blocked_reads"] == 3.0

    def test_summary_counters_default_zero(self):
        s = ExperimentMetrics().summary()
        assert s["redirected_reads"] == 0.0
        assert s["gc_blocked_reads"] == 0.0
