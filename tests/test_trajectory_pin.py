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


#: Recorded once a dispatched request reached the device, and a flush the
#: server's scheduler, in the call that released it (no zero-delay
#: service or flush tick).
PINNED = {'crash_recover': ('52ebbe3a29ae84e4540f35ed3ca34603f9ec8222',
                   {'erase_suspensions': 0,
                    'gc_blocked_reads': 5,
                    'gc_runs': 5,
                    'gc_writes': 0,
                    'host_writes': 29871,
                    'redirects': 334,
                    'samples': 3600,
                    'throttle_delay_us': 0}),
 'erase_suspend': ('0c2874b7c408463b6efcd109677c258a7c8de1eb',
                   {'erase_suspensions': 87,
                    'gc_blocked_reads': 204,
                    'gc_runs': 3,
                    'gc_writes': 401,
                    'host_writes': 32479,
                    'redirects': 0,
                    'samples': 3600,
                    'throttle_delay_us': 0}),
 'rackblox': ('65c48251ec832917db2941d81a63e2ba6eed70b4',
              {'erase_suspensions': 0,
               'gc_blocked_reads': 5,
               'gc_runs': 2,
               'gc_writes': 272,
               'host_writes': 32474,
               'redirects': 201,
               'samples': 3600,
               'throttle_delay_us': 0}),
 'rackblox_software': ('8b5f25a0bb46a197a2fa7a4e11fc5d0c8a126e05',
                       {'erase_suspensions': 0,
                        'gc_blocked_reads': 1,
                        'gc_runs': 6,
                        'gc_writes': 0,
                        'host_writes': 32306,
                        'redirects': 187,
                        'samples': 3600,
                        'throttle_delay_us': 0}),
 'sw_isolated': ('e1d347b2f369ca5ef839e2c6dd0bd9a64ba18dac',
                 {'erase_suspensions': 0,
                  'gc_blocked_reads': 0,
                  'gc_runs': 4,
                  'gc_writes': 1335,
                  'host_writes': 22644,
                  'redirects': 0,
                  'samples': 4800,
                  'throttle_delay_us': 3199591.193524612}),
 'vdc': ('08e57b462de69b9f83874fa76f01077e1852a8ac',
         {'erase_suspensions': 0,
          'gc_blocked_reads': 204,
          'gc_runs': 3,
          'gc_writes': 423,
          'host_writes': 32423,
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
