"""Long-horizon wear simulation (Figures 22 and 23).

Builds the paper's §4.6 configuration -- 32 servers x 16 SSDs x 4 vSSDs,
each vSSD running one Table 2 workload assigned round-robin ("following
the load balancing of modern storage infrastructures") -- and evolves
wear day by day, with or without the two-level balancers.  "No Swap" is
the modern-infrastructure baseline that never moves data between SSDs.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.flash.wear import wear_imbalance, wear_variance
from repro.wear.global_ import GlobalWearBalancer
from repro.wear.local import LocalWearBalancer
from repro.wear.model import SsdWearState, VssdWorkload, WearRack, WearServer
from repro.workloads.spec import TABLE2_WORKLOADS

#: Erase rate (per day) corresponding to a write-only workload; other
#: workloads scale by their Table 2 write ratio.  ~1.1/day full-device
#: writes matches an enterprise drive rated for ~2 DWPD.
FULL_WRITE_ERASE_RATE = 1.1


def table2_erase_rates(jitter: float = 0.2, seed: int = 0) -> List[VssdWorkload]:
    """One workload template per Table 2 entry, erase rate ∝ write ratio."""
    rng = random.Random(seed)
    templates = []
    for name, spec in sorted(TABLE2_WORKLOADS.items()):
        rate = max(0.01, spec.write_ratio * FULL_WRITE_ERASE_RATE)
        templates.append((name, rate, rng))
    del rng
    return [VssdWorkload(name=n, erase_rate_per_day=r) for n, r, _ in templates]


@dataclass
class WearSimulationResult:
    """Trajectories collected from one wear simulation run."""

    days: List[float] = field(default_factory=list)
    #: Per-server λ trajectory: server name -> series of imbalances.
    server_imbalance: Dict[str, List[float]] = field(default_factory=dict)
    #: Rack-level variance of server wear (Figure 23's metric).
    rack_variance: List[float] = field(default_factory=list)
    #: Rack-level λ across servers.
    rack_imbalance: List[float] = field(default_factory=list)
    local_swaps: int = 0
    global_swaps: int = 0
    #: Final per-SSD wear, per server (Figure 22's bars).
    final_wear: Dict[str, List[float]] = field(default_factory=dict)

    def final_server_imbalance(self) -> float:
        """Worst per-server λ at the end of the run (Figure 22's metric)."""
        return max(series[-1] for series in self.server_imbalance.values())

    def mean_final_server_imbalance(self) -> float:
        series_ends = [s[-1] for s in self.server_imbalance.values()]
        return sum(series_ends) / len(series_ends)

    def final_rack_variance(self) -> float:
        return self.rack_variance[-1] if self.rack_variance else 0.0

    def final_rack_imbalance(self) -> float:
        return self.rack_imbalance[-1] if self.rack_imbalance else 1.0


class WearSimulation:
    """The §4.6 experiment: a rack of SSDs aging under diverse workloads."""

    def __init__(
        self,
        num_servers: int = 32,
        ssds_per_server: int = 16,
        vssds_per_ssd: int = 4,
        enable_local: bool = True,
        enable_global: bool = True,
        gamma: float = 0.1,
        local_period_days: float = 12.0,
        global_period_days: float = 56.0,
        rate_sigma: float = 0.6,
        replacement_rate_per_year: float = 0.08,
        seed: int = 1,
    ) -> None:
        if num_servers < 1 or ssds_per_server < 1 or vssds_per_ssd < 1:
            raise ConfigError("fleet dimensions must be positive")
        if replacement_rate_per_year < 0:
            raise ConfigError("replacement rate must be >= 0")
        self.replacement_rate_per_year = replacement_rate_per_year
        self._rng = random.Random(seed ^ 0xD15C)
        rng = random.Random(seed)
        templates = table2_erase_rates(seed=seed)
        servers = []
        # Round-robin vSSD assignment across the whole rack's SSDs,
        # mirroring load-balanced (not wear-balanced) placement.
        all_ssds: List[SsdWearState] = []
        for s in range(num_servers):
            ssds = [
                SsdWearState(ssd_id=f"srv{s}-ssd{d}") for d in range(ssds_per_server)
            ]
            servers.append(WearServer(name=f"server-{s}", ssds=ssds))
            all_ssds.extend(ssds)
        total_vssds = len(all_ssds) * vssds_per_ssd
        for i in range(total_vssds):
            template = templates[i % len(templates)]
            # Lognormal jitter around the template rate: two TPC-C tenants
            # do not write identically, and tenant intensity in a cloud is
            # heavy-tailed.
            rate = template.erase_rate_per_day * rng.lognormvariate(0.0, rate_sigma)
            workload = VssdWorkload(
                name=f"{template.name}-{i}", erase_rate_per_day=max(0.005, rate)
            )
            all_ssds[i % len(all_ssds)].workloads.append(workload)
        self.rack = WearRack(servers=servers)
        self.local_balancers: List[LocalWearBalancer] = (
            [
                LocalWearBalancer(server, gamma=gamma, period_days=local_period_days)
                for server in servers
            ]
            if enable_local
            else []
        )
        self.global_balancer: Optional[GlobalWearBalancer] = (
            GlobalWearBalancer(self.rack, gamma=gamma, period_days=global_period_days)
            if enable_global
            else None
        )

    def run(self, days: int = 365, sample_every: int = 7) -> WearSimulationResult:
        """Advance day by day, ticking balancers, sampling trajectories."""
        if days < 1:
            raise ConfigError(f"days must be >= 1, got {days}")
        result = WearSimulationResult()
        for server in self.rack.servers:
            result.server_imbalance[server.name] = []
        daily_replace_prob = self.replacement_rate_per_year / 365.0
        for day in range(1, days + 1):
            self.rack.advance(1.0)
            # Operators replace failed/unhealthy SSDs with new (zero-wear)
            # devices -- a standing source of wear imbalance (§3.6).
            if daily_replace_prob > 0:
                for ssd in self.rack.all_ssds():
                    if self._rng.random() < daily_replace_prob:
                        ssd.wear = 0.0
            for balancer in self.local_balancers:
                balancer.tick(1.0)
            if self.global_balancer is not None:
                self.global_balancer.tick(1.0)
            if day % sample_every == 0 or day == days:
                result.days.append(float(day))
                for server in self.rack.servers:
                    result.server_imbalance[server.name].append(
                        wear_imbalance([s.wear for s in server.ssds])
                    )
                server_wears = [server.wear for server in self.rack.servers]
                result.rack_variance.append(wear_variance(server_wears))
                result.rack_imbalance.append(wear_imbalance(server_wears))
        result.local_swaps = sum(b.swaps_performed for b in self.local_balancers)
        result.global_swaps = (
            self.global_balancer.swaps_performed if self.global_balancer else 0
        )
        for server in self.rack.servers:
            result.final_wear[server.name] = [ssd.wear for ssd in server.ssds]
        return result
