"""Tests for SLO monitoring and bursty arrival processes."""

import random

import pytest

from repro.errors import ConfigError
from repro.metrics.slo import SloMonitor, SloTarget
from repro.workloads.arrival import MmppArrivals


class TestSloTarget:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SloTarget("erase", 100.0)
        with pytest.raises(ConfigError):
            SloTarget("read", 0.0)
        with pytest.raises(ConfigError):
            SloTarget("read", 100.0, quantile=0.0)


class TestSloMonitor:
    def _monitor(self):
        return SloMonitor([
            SloTarget("read", 1000.0, quantile=99.0),
            SloTarget("write", 3000.0, quantile=95.0),
        ])

    def test_full_compliance(self):
        monitor = self._monitor()
        for _ in range(100):
            monitor.record("read", 500.0)
        target = monitor.targets[0]
        assert monitor.compliance(target) == 1.0
        assert monitor.satisfied(target)
        assert monitor.violations(target) == 0

    def test_quantile_semantics(self):
        monitor = self._monitor()
        # 2% of reads over target: P99 target is missed.
        for i in range(100):
            monitor.record("read", 5000.0 if i < 2 else 100.0)
        target = monitor.targets[0]
        assert not monitor.satisfied(target)
        assert monitor.violations(target) == 2
        # But a P95-style target at the same latency would pass.
        relaxed = SloTarget("read", 1000.0, quantile=95.0)
        monitor.targets.append(relaxed)
        assert monitor.satisfied(relaxed)

    def test_burst_tracking(self):
        monitor = self._monitor()
        for latency in (100.0, 5000.0, 5000.0, 5000.0, 100.0, 5000.0):
            monitor.record("read", latency)
        assert monitor.worst_burst["read"] == 3

    def test_report_rows(self):
        monitor = self._monitor()
        monitor.record("read", 1.0)
        rows = monitor.report()
        assert len(rows) == 2
        assert all("compliance_pct" in row for row in rows)

    def test_empty_class_is_compliant(self):
        monitor = self._monitor()
        assert monitor.compliance(monitor.targets[1]) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            SloMonitor([])
        monitor = self._monitor()
        with pytest.raises(ConfigError):
            monitor.record("erase", 1.0)


class TestMmpp:
    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            MmppArrivals(calm_iops=0, burst_iops=10)
        with pytest.raises(ConfigError):
            MmppArrivals(calm_iops=100, burst_iops=50)

    def test_mean_rate_between_states(self):
        process = MmppArrivals(
            calm_iops=500.0, burst_iops=10_000.0,
            mean_calm_us=200_000.0, mean_burst_us=100_000.0,
            rng=random.Random(1),
        )
        gaps = [process.next_gap_us() for _ in range(20_000)]
        observed_iops = len(gaps) / (sum(gaps) / 1e6)
        assert 500.0 < observed_iops < 10_000.0

    def test_burstier_than_poisson(self):
        # Coefficient of variation of gaps > 1 indicates burstiness.
        process = MmppArrivals(
            calm_iops=200.0, burst_iops=20_000.0,
            mean_calm_us=500_000.0, mean_burst_us=50_000.0,
            rng=random.Random(2),
        )
        gaps = [process.next_gap_us() for _ in range(20_000)]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        cov = (var ** 0.5) / mean
        assert cov > 1.2

    def test_state_flips(self):
        process = MmppArrivals(
            calm_iops=100.0, burst_iops=10_000.0,
            mean_calm_us=10_000.0, mean_burst_us=10_000.0,
            rng=random.Random(3),
        )
        states = set()
        for _ in range(2000):
            process.next_gap_us()
            states.add(process.in_burst)
        assert states == {True, False}
