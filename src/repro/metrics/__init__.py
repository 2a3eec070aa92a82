"""Latency and throughput metrics.

Exact (non-sampled) latency recording with percentile/CDF computation --
the evaluation reports P99.9 tails, so reservoir sampling would be too
lossy at the sample counts we run.
"""

from repro.metrics.collector import ExperimentMetrics
from repro.metrics.percentiles import LatencyRecorder, cdf_points, percentile
from repro.metrics.slo import SloMonitor, SloTarget

__all__ = [
    "LatencyRecorder",
    "percentile",
    "cdf_points",
    "ExperimentMetrics",
    "SloMonitor",
    "SloTarget",
]
