"""Latency and throughput metrics.

Exact (non-sampled) latency recording with percentile/CDF computation --
the evaluation reports P99.9 tails, so reservoir sampling would be too
lossy at the sample counts we run.  The live service records into
log-bucketed histograms instead (bounded memory, within 1 %, mergeable).
"""

from repro.metrics.collector import ExperimentMetrics
from repro.metrics.histogram import LogHistogram
from repro.metrics.percentiles import LatencyRecorder, cdf_points, percentile
from repro.metrics.slo import SloMonitor, SloTarget

__all__ = [
    "LatencyRecorder",
    "LogHistogram",
    "percentile",
    "cdf_points",
    "ExperimentMetrics",
    "SloMonitor",
    "SloTarget",
]
