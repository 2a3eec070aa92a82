"""Token-bucket rate limiting.

The isolation primitive of the paper's baselines (VDC, IOFlow) and of
software-isolated vSSDs: operations consume tokens that refill at a fixed
rate, so a tenant exceeding its share is delayed rather than starving
neighbours.
"""

from repro.errors import ConfigError
from repro.sim import Simulator


class TokenBucket:
    """A continuous-refill token bucket on the simulated clock."""

    def __init__(self, sim: Simulator, rate_per_sec: float, capacity: float) -> None:
        if rate_per_sec <= 0:
            raise ConfigError(f"rate must be positive, got {rate_per_sec}")
        if capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.rate_per_sec = rate_per_sec
        self.capacity = capacity
        self._tokens = capacity
        self._last_refill = sim.now
        #: The virtual time at which the last admitted op's tokens are
        #: covered; serialises waiters fairly (FIFO by arrival).
        self._reserved_until = sim.now
        self.total_consumed = 0.0
        self.total_delay_us = 0.0

    @property
    def tokens(self) -> float:
        """Tokens available right now (after refill accrual)."""
        self._refill()
        return self._tokens

    def _refill(self) -> None:
        now = self.sim.now
        elapsed_sec = (now - self._last_refill) / 1e6
        if elapsed_sec > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed_sec * self.rate_per_sec)
            self._last_refill = now

    def delay_for(self, amount: float) -> float:
        """Microseconds a request for ``amount`` tokens must wait *and*
        commit the reservation (callers must then wait that long)."""
        if amount <= 0:
            raise ConfigError(f"token amount must be positive, got {amount}")
        self._refill()
        now = self.sim.now
        # Serve from the bucket first; any shortfall is paid for by waiting
        # for refill.  Reservations queue behind earlier waiters.
        start = max(now, self._reserved_until)
        available_at_start = self._tokens + (start - now) / 1e6 * self.rate_per_sec
        available_at_start = min(available_at_start, self.capacity)
        shortfall = amount - available_at_start
        wait = start - now
        if shortfall > 0:
            wait += shortfall / self.rate_per_sec * 1e6
        self._reserved_until = now + wait
        self._tokens -= amount  # may go negative: a debt paid by refill
        self.total_consumed += amount
        self.total_delay_us += wait
        return wait
