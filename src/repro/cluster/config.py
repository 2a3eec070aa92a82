"""Experiment configuration: the systems under test and rack parameters."""

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.schedule import FaultSchedule
from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import DeviceProfile, PSSD
from repro.net.latency import MEDIUM_NETWORK, NetworkProfile
from repro.sim.core import MSEC


class SystemType(enum.Enum):
    """The four systems of the paper's evaluation (§4.1, §4.4)."""

    #: Virtual datacenter: centralized controller, token-bucket end-to-end
    #: isolation, no visibility into SSD GC.
    VDC = "vdc"
    #: VDC extended with software coordinated I/O scheduling and
    #: controller-mediated coordinated GC (extra round trips).
    RACKBLOX_SOFTWARE = "rackblox-software"
    #: The full system: switch-resident GC state, in-network redirection.
    RACKBLOX = "rackblox"
    #: Ablation: coordinated I/O scheduling only, GC uncoordinated (§4.4).
    RACKBLOX_COORD_IO = "rackblox-coord-io"

    @property
    def coordinates_io(self) -> bool:
        return self is not SystemType.VDC


@dataclass
class RackConfig:
    """Everything needed to build one simulated rack."""

    system: SystemType = SystemType.RACKBLOX
    num_servers: int = 4
    #: Replica pairs; primaries round-robin across servers, the replica
    #: lands on the next server (rack-aware placement).
    num_pairs: int = 4
    device_profile: DeviceProfile = PSSD
    #: The paper's coordinated Kyber targets add ~1 ms for P95 network
    #: delay (§4.1), which matches the medium latency regime.
    network_profile: NetworkProfile = MEDIUM_NETWORK
    #: Per-vSSD flash geometry (scaled down; ratios match a real device).
    vssd_geometry: FlashGeometry = field(
        default_factory=lambda: FlashGeometry(
            channels=2, chips_per_channel=2, blocks_per_chip=64, pages_per_block=32
        )
    )
    #: Storage scheduler: fifo / deadline / kyber (§4.1 default: kyber).
    storage_scheduler: str = "kyber"
    #: Network scheduler: tb / fq / priority.  None -> system default
    #: (VDC-family: tb; RackBlox-family: priority, §4.1).
    network_scheduler: str = ""
    #: Switch egress line rate (KB/us); ~6.25 is the 50 Gb/s testbed NIC.
    #: The §4.5.2 experiments lower it to create queueing at the egress so
    #: the scheduling policy actually binds.
    egress_rate_kb_per_us: float = 6.25
    #: Per-flow token-bucket rate for the TB policy (KB/s).
    tb_flow_rate_kb_per_sec: float = 50_000.0
    #: Inject periodic high-priority traffic (the Priority experiment in
    #: §4.5.2 "periodically create[s] higher priority traffic").
    background_traffic: bool = False
    #: Enable erase suspend/resume in the device firmware (a within-device
    #: alternative to coordinated GC; ablation only, default off as in the
    #: paper's plain threshold-GC devices).
    erase_suspend: bool = False
    soft_threshold: float = 0.35
    gc_threshold: float = 0.25
    overprovision: float = 0.25
    write_cache_pages: int = 128
    #: GC monitor period.  The paper checks every 30 s against multi-TB
    #: devices; our devices are ~1e4x smaller, so the period shrinks with
    #: them to keep checks-per-device-lifetime comparable.
    gc_check_interval_us: float = 10 * MSEC
    #: Fraction of each vSSD's free blocks consumed before measuring.  The
    #: paper preconditions by consuming 50% of the free blocks over a long
    #: run; our runs are shorter, so the default starts closer to the soft
    #: threshold to reach GC activity within the measured window.
    precondition_fill: float = 0.6
    max_inflight_per_server: int = 8
    #: When True, vSSDs are software-isolated: pairs of vSSDs share the
    #: same flash channels (chips split between them), are rate-limited by
    #: token buckets, and GC as a channel group (§3.5.2, Figure 21).
    #: Requires an even number of pairs (collocated two at a time).
    sw_isolated: bool = False
    #: Head-sampling probability for request-level tracing (0 disables;
    #: the rack then installs the zero-overhead NullTracer).  Sampling
    #: draws come from a dedicated RNG, so tracing never perturbs the
    #: simulated behaviour -- only records it.
    trace_sample_rate: float = 0.0
    #: Deterministic fault-injection schedule (None disables chaos).  When
    #: set, the rack arms a FailureManager with the schedule's heartbeat
    #: parameters and a ChaosInjector that replays the events in sim time,
    #: auditing the §3.7 recovery invariants after each one.
    fault_schedule: Optional[FaultSchedule] = None
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_servers < 2:
            raise ConfigError("need at least 2 servers for rack-aware replicas")
        if self.num_pairs < 1:
            raise ConfigError("need at least one replica pair")
        if self.sw_isolated and self.num_pairs % 2 != 0:
            raise ConfigError("sw_isolated racks need an even number of pairs")
        if not 0.0 < self.gc_threshold <= self.soft_threshold < 1.0:
            raise ConfigError("need 0 < gc_threshold <= soft_threshold < 1")
        if not 0.0 <= self.precondition_fill < 1.0:
            raise ConfigError("precondition_fill must be in [0,1)")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigError("trace_sample_rate must be in [0,1]")

    @property
    def effective_network_scheduler(self) -> str:
        if self.network_scheduler:
            return self.network_scheduler
        if self.system in (SystemType.VDC, SystemType.RACKBLOX_SOFTWARE):
            return "tb"
        return "priority"
