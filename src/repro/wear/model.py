"""The day-granularity wear model: vSSD workloads on SSDs on servers.

Wear φ is the average erase count of an SSD's blocks (§3.6).  Each vSSD
workload contributes a fixed erase *rate* (average erase counts per day)
to whichever SSD currently hosts it; balancers move workloads between
SSDs, which is how a "swap" exchanges future wear without renaming
hardware.
"""

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigError


@dataclass
class VssdWorkload:
    """One vSSD's long-run write pressure, as an erase rate."""

    name: str
    #: Average erase counts contributed per day to the hosting SSD.
    erase_rate_per_day: float

    def __post_init__(self) -> None:
        if self.erase_rate_per_day < 0:
            raise ConfigError(f"erase rate must be >= 0, got {self.erase_rate_per_day}")


@dataclass
class SsdWearState:
    """One SSD's wear and its currently assigned vSSD workloads."""

    ssd_id: str
    wear: float = 0.0  # φ: average erase count to date
    workloads: List[VssdWorkload] = field(default_factory=list)
    swaps: int = 0

    @property
    def wear_rate(self) -> float:
        """Current erase rate (per day) from the hosted workloads."""
        return sum(w.erase_rate_per_day for w in self.workloads)

    def advance(self, days: float = 1.0) -> None:
        self.wear += self.wear_rate * days

    def exchange_workloads(self, other: "SsdWearState", swap_cost: float) -> None:
        """Swap hosted workloads with another SSD.

        ``swap_cost`` is the wear added to *both* devices by migrating the
        data (reading one SSD's content and rewriting it on the other --
        the paper budgets ~0.5% of lifetime for a worst case of periodic
        swapping, roughly one erase cycle per swap).
        """
        if swap_cost < 0:
            raise ConfigError(f"swap cost must be >= 0, got {swap_cost}")
        self.workloads, other.workloads = other.workloads, self.workloads
        self.wear += swap_cost
        other.wear += swap_cost
        self.swaps += 1
        other.swaps += 1


@dataclass
class WearServer:
    """A storage server: a shelf of SSDs."""

    name: str
    ssds: List[SsdWearState]

    def __post_init__(self) -> None:
        if not self.ssds:
            raise ConfigError(f"server {self.name!r} needs at least one SSD")

    @property
    def wear(self) -> float:
        """Server wear: average erase count of its SSDs (§3.6)."""
        return sum(s.wear for s in self.ssds) / len(self.ssds)

    def advance(self, days: float = 1.0) -> None:
        for ssd in self.ssds:
            ssd.advance(days)


@dataclass
class WearRack:
    """A rack of storage servers for the wear simulation."""

    servers: List[WearServer]

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigError("rack needs at least one server")

    def all_ssds(self) -> List[SsdWearState]:
        return [ssd for server in self.servers for ssd in server.ssds]

    def advance(self, days: float = 1.0) -> None:
        for server in self.servers:
            server.advance(days)
