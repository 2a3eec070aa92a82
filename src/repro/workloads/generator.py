"""Request stream generation.

:class:`OpenLoopGenerator` draws Poisson arrivals at a target rate: the
right model for tail-latency experiments, because slow responses do not
throttle the offered load (the coordinated-vs-uncoordinated gap would
otherwise self-hide).
"""

import math
import random
from typing import Iterator, Optional

from repro.errors import ConfigError
from repro.sim.rng import ZipfianSampler
from repro.workloads.spec import Pattern, WorkloadSpec


class Request:
    """One logical operation produced by a generator (a hand-written
    ``__slots__`` class: one is built per simulated request)."""

    __slots__ = ("kind", "lpn", "gap_us")

    def __init__(self, kind: str, lpn: int, gap_us: float = 0.0) -> None:
        self.kind = kind  # "read" | "write"
        self.lpn = lpn
        #: Inter-arrival gap before this request (open loop), microseconds.
        self.gap_us = gap_us


class _OpPicker:
    """Shared read/write + key selection logic."""

    def __init__(self, spec: WorkloadSpec, key_space: int, rng: random.Random) -> None:
        if key_space <= 0:
            raise ConfigError(f"key_space must be positive, got {key_space}")
        self.spec = spec
        self.key_space = key_space
        self._rng = rng
        self._zipf = ZipfianSampler(key_space, theta=max(spec.zipf_theta, 1e-6), rng=rng)
        self._phase_kind = "write"
        self._phase_left = spec.phase_length
        # The (frozen) spec's per-op fields, read once.
        self._phased = spec.pattern is Pattern.PHASED
        self._write_ratio = spec.write_ratio

    def next_op(self) -> Request:
        if self._phased:
            kind = self._next_phased_kind()
        else:
            kind = "write" if self._rng.random() < self._write_ratio else "read"
        return Request(kind, self._zipf.sample())

    def _next_phased_kind(self) -> str:
        """AuctionMark-style bursts: runs of writes, then runs of reads,
        sized so the long-run mix matches the spec's write ratio."""
        if self._phase_left <= 0:
            if self._phase_kind == "write":
                self._phase_kind = "read"
                ratio = max(1e-6, self.spec.write_ratio)
                self._phase_left = max(
                    1, int(self.spec.phase_length * (1.0 - ratio) / ratio)
                )
            else:
                self._phase_kind = "write"
                self._phase_left = self.spec.phase_length
        self._phase_left -= 1
        return self._phase_kind


class OpenLoopGenerator:
    """Poisson arrivals at ``rate_iops`` over a zipfian key space."""

    def __init__(
        self,
        spec: WorkloadSpec,
        key_space: int,
        rate_iops: float,
        rng: Optional[random.Random] = None,
    ) -> None:
        if rate_iops <= 0:
            raise ConfigError(f"rate_iops must be positive, got {rate_iops}")
        self._rng = rng if rng is not None else random.Random(0)
        self._picker = _OpPicker(spec, key_space, self._rng)
        self.mean_gap_us = 1e6 / rate_iops

    def requests(self, count: int) -> Iterator[Request]:
        """Yield ``count`` requests with exponential inter-arrival gaps."""
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        rng_random = self._rng.random
        for _ in range(count):
            request = self._picker.next_op()
            # ``rng.expovariate(1.0 / mean_gap_us)``, its formula inline.
            request.gap_us = -math.log(1.0 - rng_random()) / (1.0 / self.mean_gap_us)
            yield request
