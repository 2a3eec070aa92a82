"""Arrival processes beyond Poisson.

The open-loop generator's exponential gaps model a well-multiplexed
tenant; real tenants are burstier.  :class:`MmppArrivals` plugs into the
same ``gap_us`` slot: a two-state Markov-modulated Poisson process
(calm/burst), the standard bursty-traffic model.
"""

import random
from typing import Iterator, Optional

from repro.errors import ConfigError
from repro.workloads.generator import Request, _OpPicker
from repro.workloads.spec import WorkloadSpec


class MmppArrivals:
    """Two-state MMPP: exponential gaps whose rate flips calm <-> burst."""

    def __init__(
        self,
        calm_iops: float,
        burst_iops: float,
        mean_calm_us: float = 500_000.0,
        mean_burst_us: float = 50_000.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if calm_iops <= 0 or burst_iops <= 0:
            raise ConfigError("rates must be positive")
        if burst_iops <= calm_iops:
            raise ConfigError("burst rate must exceed calm rate")
        if mean_calm_us <= 0 or mean_burst_us <= 0:
            raise ConfigError("state holding times must be positive")
        self.calm_iops = calm_iops
        self.burst_iops = burst_iops
        self.mean_calm_us = mean_calm_us
        self.mean_burst_us = mean_burst_us
        self._rng = rng if rng is not None else random.Random(0)
        self._in_burst = False
        self._state_left_us = self._rng.expovariate(1.0 / mean_calm_us)

    @property
    def in_burst(self) -> bool:
        return self._in_burst

    def _rate(self) -> float:
        return self.burst_iops if self._in_burst else self.calm_iops

    def next_gap_us(self) -> float:
        """Gap to the next arrival, advancing the modulating state."""
        gap = self._rng.expovariate(self._rate() / 1e6)
        # Consume state time; flip states as needed (memoryless, so the
        # residual gap can be resampled at the flip without bias).
        while gap >= self._state_left_us:
            # The gap into the new state is resampled from that state's
            # rate rather than carried over (memoryless).
            self._in_burst = not self._in_burst
            mean = self.mean_burst_us if self._in_burst else self.mean_calm_us
            carried = self._state_left_us
            self._state_left_us = self._rng.expovariate(1.0 / mean)
            gap = carried + self._rng.expovariate(self._rate() / 1e6)
        self._state_left_us -= gap
        return gap


class BurstyWorkloadGenerator:
    """A workload spec driven by MMPP gaps (OpenLoopGenerator-compatible).

    Plugs into :class:`repro.cluster.client.Client` anywhere an
    OpenLoopGenerator would go, producing the same read/write/key mix but
    with calm/burst arrival structure.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        key_space: int,
        arrivals: MmppArrivals,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._rng = rng if rng is not None else random.Random(0)
        self._picker = _OpPicker(spec, key_space, self._rng)
        self.arrivals = arrivals

    def requests(self, count: int) -> Iterator[Request]:
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        for _ in range(count):
            request = self._picker.next_op()
            request.gap_us = self.arrivals.next_gap_us()
            yield request
