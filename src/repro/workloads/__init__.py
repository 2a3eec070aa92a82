"""Workload generation.

Parametric stand-ins for the paper's benchmarks (Table 2): YCSB with a
configurable read/write mix and zipfian key popularity, plus BenchBase
profiles (TPC-H, Seats, AuctionMark, TPC-C, Twitter) characterised by
their write ratios and request patterns.
"""

from repro.workloads.arrival import MmppArrivals
from repro.workloads.generator import OpenLoopGenerator, Request
from repro.workloads.ycsb_suite import (
    YCSB_A,
    YCSB_B,
    YCSB_C,
    YCSB_D,
    YCSB_F,
    YCSB_SUITE,
    YcsbGenerator,
    YcsbWorkload,
)
from repro.workloads.spec import (
    AUCTIONMARK,
    SEATS,
    TABLE2_WORKLOADS,
    TPCC,
    TPCH,
    TWITTER,
    WorkloadSpec,
    ycsb,
)

__all__ = [
    "WorkloadSpec",
    "ycsb",
    "TPCH",
    "SEATS",
    "AUCTIONMARK",
    "TPCC",
    "TWITTER",
    "TABLE2_WORKLOADS",
    "Request",
    "OpenLoopGenerator",
    "MmppArrivals",
    "YcsbWorkload",
    "YcsbGenerator",
    "YCSB_A",
    "YCSB_B",
    "YCSB_C",
    "YCSB_D",
    "YCSB_F",
    "YCSB_SUITE",
]
