"""The global (inter-server) wear balancer (§3.6).

Reduces the wear variance *between servers* in a rack.  Server wear is
the average erase count of its SSDs; when the rack's server-level
imbalance exceeds 1+γ, the balancer swaps the hottest SSD in the
most-worn server with the coldest-rate SSD in the least-worn server.
Because inter-server swaps pay real networking cost, the cadence is
relaxed to 8 weeks by default.
"""

from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.flash.wear import wear_imbalance
from repro.wear.local import DEFAULT_SWAP_COST
from repro.wear.model import SsdWearState, WearRack


class GlobalWearBalancer:
    """Periodic inter-server swap of workload between two SSDs."""

    def __init__(
        self,
        rack: WearRack,
        gamma: float = 0.1,
        period_days: float = 56.0,  # 8 weeks
        swap_cost: float = DEFAULT_SWAP_COST,
    ) -> None:
        if gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {gamma}")
        if period_days <= 0:
            raise ConfigError(f"period must be positive, got {period_days}")
        self.rack = rack
        self.gamma = gamma
        self.period_days = period_days
        self.swap_cost = swap_cost
        self._since_check = 0.0
        self.swaps_performed = 0

    def server_imbalance(self) -> float:
        """λ across servers, using server wear (mean SSD erase count)."""
        return wear_imbalance([server.wear for server in self.rack.servers])

    def pick_swap(self) -> Optional[Tuple[SsdWearState, SsdWearState]]:
        servers = self.rack.servers
        if len(servers) < 2:
            return None
        hottest_server = max(servers, key=lambda s: s.wear)
        coldest_server = min(servers, key=lambda s: s.wear)
        if hottest_server is coldest_server:
            return None
        hot_ssd = max(hottest_server.ssds, key=lambda s: s.wear)
        cold_ssd = min(coldest_server.ssds, key=lambda s: s.wear_rate)
        if hot_ssd.wear_rate <= cold_ssd.wear_rate:
            return None
        return hot_ssd, cold_ssd

    def tick(self, days: float = 1.0) -> bool:
        """Advance the balancer clock; swap across servers when due."""
        self._since_check += days
        if self._since_check < self.period_days:
            return False
        self._since_check = 0.0
        if self.server_imbalance() <= 1.0 + self.gamma:
            return False
        pick = self.pick_swap()
        if pick is None:
            return False
        hot_ssd, cold_ssd = pick
        hot_ssd.exchange_workloads(cold_ssd, self.swap_cost)
        self.swaps_performed += 1
        return True
