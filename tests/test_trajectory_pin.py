"""Pinned trajectories: the simulated behaviour of small seeded racks.

A refactor of the data path (generators -> callbacks, fewer heap entries,
a different queue) must leave every simulated latency, GC run and
redirect exactly where it was.  Each case runs a small rack to completion
and compares a sha1 over the ordered ``(kind, completion time, latency,
storage time)`` samples -- floats by ``repr``, so one ulp shows -- plus the
rack's coarse counters with constants recorded on the code the refactor
started from.  The cases cover the paths the benchmark's ``sim_batch``
does not: the software redirect, the VDC controller, software-isolated
vSSDs (token-bucket waits + channel-group GC), erase suspension and a
crash/re-replicate/recover fault schedule.

To re-record after a change that is *meant* to move the trajectory::

    PYTHONPATH=src python tests/test_trajectory_pin.py
"""

import hashlib
import os

import pytest

from repro.chaos.schedule import FaultSchedule
from repro.cluster import Rack, RackConfig, SystemType
from repro.experiments import runner
from repro.metrics.collector import ExperimentMetrics
from repro.workloads import ycsb

_CRASH_RECOVER = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "crash_recover.json"
)


class _OrderedMetrics(ExperimentMetrics):
    """``ExperimentMetrics`` that also keeps every sample in arrival order."""

    def __init__(self) -> None:
        super().__init__()
        self.samples = []

    def record(self, kind, total_us, at, storage_us=None):
        self.samples.append((kind, at, total_us, storage_us))
        super().record(kind, total_us, at, storage_us=storage_us)


#: case -> (RackConfig overrides, working-set fraction).  The wide working
#: sets leave valid pages in GC victims, so those cases migrate pages
#: (GC reads/programs contending with host I/O on the channel bus); the
#: default 0.5 gives the frequent short GCs that drive redirection.
_BASE = dict(num_servers=3, num_pairs=3, seed=11)
CASES = {
    "rackblox": (dict(system=SystemType.RACKBLOX, **_BASE), 0.95),
    "rackblox_software": (
        dict(system=SystemType.RACKBLOX_SOFTWARE, **_BASE), 0.5),
    "vdc": (dict(system=SystemType.VDC, **_BASE), 0.95),
    "sw_isolated": (
        dict(system=SystemType.RACKBLOX, num_servers=3, num_pairs=4,
             sw_isolated=True, seed=99), 0.8),
    "erase_suspend": (
        dict(system=SystemType.VDC, erase_suspend=True, **_BASE), 0.95),
    "crash_recover": (
        dict(system=SystemType.RACKBLOX,
             fault_schedule=FaultSchedule.from_json_file(_CRASH_RECOVER),
             **_BASE), 0.5),
}


def trajectory(case: str, requests_per_pair: int = 1200):
    """Run one case; returns ``(sample sha1, counters)``."""
    overrides, working_set_fraction = CASES[case]
    config = RackConfig(**overrides)
    rack = Rack(config)
    original = runner.ExperimentMetrics
    runner.ExperimentMetrics = _OrderedMetrics
    try:
        result = runner.run_rack_experiment(
            config, ycsb(0.5), requests_per_pair=requests_per_pair,
            rate_iops_per_pair=3000.0, rack=rack,
            working_set_fraction=working_set_fraction,
        )
    finally:
        runner.ExperimentMetrics = original
    digest = hashlib.sha1(repr(result.metrics.samples).encode()).hexdigest()
    ftls = [vssd.ftl for vssd in rack.vssd_by_id.values()]
    channels = {
        id(channel): channel
        for vssd in rack.vssd_by_id.values() for channel in vssd.ssd.channels
    }
    counters = {
        "samples": len(result.metrics.samples),
        "gc_runs": rack.total_gc_runs(),
        "redirects": rack.redirect_count(),
        "gc_blocked_reads": rack.gc_blocked_read_count(),
        "host_writes": sum(ftl.host_writes for ftl in ftls),
        "gc_writes": sum(ftl.gc_writes for ftl in ftls),
        "erase_suspensions": sum(c.suspensions for c in channels.values()),
        "throttle_delay_us": sum(
            vssd.rate_limiter.total_delay_us
            for vssd in rack.vssd_by_id.values()
            if vssd.rate_limiter is not None
        ),
    }
    return digest, counters


#: Recorded at a4252013 (PR 13), before the data path became callback
#: state machines.
PINNED = {'crash_recover': ('e402fe8a73ae6f74b29ede21bd963654d2e94131',
                   {'erase_suspensions': 0,
                    'gc_blocked_reads': 1,
                    'gc_runs': 5,
                    'gc_writes': 0,
                    'host_writes': 29859,
                    'redirects': 310,
                    'samples': 3600,
                    'throttle_delay_us': 0}),
 'erase_suspend': ('f406f7ca3049b1448bd37d35312f93919d7c8189',
                   {'erase_suspensions': 86,
                    'gc_blocked_reads': 204,
                    'gc_runs': 3,
                    'gc_writes': 401,
                    'host_writes': 32487,
                    'redirects': 0,
                    'samples': 3600,
                    'throttle_delay_us': 0}),
 'rackblox': ('278f4f2338d159fa10df3d76577b9a52f22e2c07',
              {'erase_suspensions': 0,
               'gc_blocked_reads': 5,
               'gc_runs': 2,
               'gc_writes': 290,
               'host_writes': 32474,
               'redirects': 201,
               'samples': 3600,
               'throttle_delay_us': 0}),
 'rackblox_software': ('8c3883c13ae22eec6109df54e7e0db113c97b7f0',
                       {'erase_suspensions': 0,
                        'gc_blocked_reads': 1,
                        'gc_runs': 6,
                        'gc_writes': 0,
                        'host_writes': 32305,
                        'redirects': 188,
                        'samples': 3600,
                        'throttle_delay_us': 0}),
 'sw_isolated': ('034c47ddeaad7dbc47e3bbca882f01a892c9ed8f',
                 {'erase_suspensions': 0,
                  'gc_blocked_reads': 0,
                  'gc_runs': 4,
                  'gc_writes': 1307,
                  'host_writes': 22651,
                  'redirects': 0,
                  'samples': 4800,
                  'throttle_delay_us': 3201692.644143687}),
 'vdc': ('f3b7ccc1b600318f7e7545c88a2def11d75a5e6e',
         {'erase_suspensions': 0,
          'gc_blocked_reads': 204,
          'gc_runs': 3,
          'gc_writes': 422,
          'host_writes': 32420,
          'redirects': 0,
          'samples': 3600,
          'throttle_delay_us': 0})}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_trajectory_is_pinned(case):
    digest, counters = trajectory(case)
    want_digest, want_counters = PINNED[case]
    # Counters first: a moved count says *what* changed, the digest only
    # that something did.
    assert counters == want_counters
    assert digest == want_digest


def test_pins_cover_the_paths_they_claim():
    """The pins only mean something if the rare paths actually ran."""
    assert PINNED["rackblox"][1]["redirects"] > 0
    assert PINNED["rackblox_software"][1]["redirects"] > 0
    assert PINNED["vdc"][1]["redirects"] == 0
    assert PINNED["erase_suspend"][1]["erase_suspensions"] > 0
    assert PINNED["sw_isolated"][1]["throttle_delay_us"] > 0
    assert PINNED["vdc"][1]["gc_blocked_reads"] > 0
    for case in PINNED:
        assert PINNED[case][1]["gc_runs"] > 0, case
    for case in ("rackblox", "vdc", "sw_isolated", "erase_suspend"):
        assert PINNED[case][1]["gc_writes"] > 0, case


if __name__ == "__main__":
    import pprint
    import time

    recorded = {}
    for name in CASES:
        started = time.perf_counter()
        recorded[name] = trajectory(name)
        print(f"# {name}: {time.perf_counter() - started:.2f}s")
    pprint.pprint(recorded, width=78)
