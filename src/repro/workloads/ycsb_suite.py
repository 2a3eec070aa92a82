"""The canonical YCSB core workloads (A-F).

The paper sweeps YCSB by write ratio; the named suite is the form users
know, so we provide it too:

* **A** -- update heavy: 50% reads / 50% updates, zipfian;
* **B** -- read mostly: 95% reads / 5% updates, zipfian;
* **C** -- read only, zipfian;
* **D** -- read latest: 95% reads / 5% inserts, *latest* distribution
  (reads concentrate on recently inserted keys);
* **F** -- read-modify-write: every update is a read followed by a write
  of the same key.

(E -- short scans -- needs a range-read primitive the 4 KB-request rack
model does not expose; ranges are read one level up, by the key-value
store's :meth:`repro.kvstore.store.RackKvStore.scan`.)

:class:`YcsbGenerator` extends the open-loop generator with the *latest*
key distribution and composite read-modify-write operations; RMW yields
two back-to-back requests with zero gap between them.
"""

import random
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import ConfigError
from repro.sim.rng import ZipfianSampler
from repro.workloads.generator import Request


@dataclass(frozen=True)
class YcsbWorkload:
    """One named YCSB core workload."""

    name: str
    read_ratio: float
    update_ratio: float
    insert_ratio: float = 0.0
    #: "zipfian" or "latest" (YCSB-D's recency-skewed reads).
    distribution: str = "zipfian"
    #: Updates are read-modify-write pairs (YCSB-F).
    read_modify_write: bool = False

    def __post_init__(self) -> None:
        total = self.read_ratio + self.update_ratio + self.insert_ratio
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"workload {self.name!r}: ratios must sum to 1, got {total}"
            )
        if self.distribution not in ("zipfian", "latest"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")


YCSB_A = YcsbWorkload("ycsb-a", read_ratio=0.5, update_ratio=0.5)
YCSB_B = YcsbWorkload("ycsb-b", read_ratio=0.95, update_ratio=0.05)
YCSB_C = YcsbWorkload("ycsb-c", read_ratio=1.0, update_ratio=0.0)
YCSB_D = YcsbWorkload(
    "ycsb-d", read_ratio=0.95, update_ratio=0.0, insert_ratio=0.05,
    distribution="latest",
)
YCSB_F = YcsbWorkload(
    "ycsb-f", read_ratio=0.5, update_ratio=0.5, read_modify_write=True
)

YCSB_SUITE: Dict[str, YcsbWorkload] = {
    w.name: w for w in (YCSB_A, YCSB_B, YCSB_C, YCSB_D, YCSB_F)
}


class YcsbGenerator:
    """Open-loop generator for the named YCSB workloads."""

    def __init__(
        self,
        workload: YcsbWorkload,
        key_space: int,
        rate_iops: float,
        theta: float = 0.99,
        rng: Optional[random.Random] = None,
    ) -> None:
        if key_space < 1:
            raise ConfigError("key_space must be >= 1")
        if rate_iops <= 0:
            raise ConfigError("rate_iops must be positive")
        self.workload = workload
        self.key_space = key_space
        self.mean_gap_us = 1e6 / rate_iops
        self._rng = rng if rng is not None else random.Random(0)
        self._zipf = ZipfianSampler(key_space, theta=theta, rng=self._rng)
        #: High-water mark for inserts; "latest" reads cluster below it.
        self._insert_cursor = max(1, key_space // 2)

    def _pick_key(self) -> int:
        if self.workload.distribution == "latest":
            # Recency skew: zipf rank 0 maps to the newest key.
            rank = self._zipf.sample() % self._insert_cursor
            return (self._insert_cursor - 1 - rank) % self.key_space
        return self._zipf.sample()

    def _next_insert_key(self) -> int:
        key = self._insert_cursor % self.key_space
        self._insert_cursor += 1
        return key

    def requests(self, count: int) -> Iterator[Request]:
        """Yield ``count`` requests (an RMW pair counts as two)."""
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        produced = 0
        while produced < count:
            gap = self._rng.expovariate(1.0 / self.mean_gap_us)
            roll = self._rng.random()
            if roll < self.workload.read_ratio:
                yield Request(kind="read", lpn=self._pick_key(), gap_us=gap)
                produced += 1
            elif roll < self.workload.read_ratio + self.workload.update_ratio:
                key = self._pick_key()
                if self.workload.read_modify_write:
                    yield Request(kind="read", lpn=key, gap_us=gap)
                    produced += 1
                    if produced >= count:
                        return
                    yield Request(kind="write", lpn=key, gap_us=0.0)
                    produced += 1
                else:
                    yield Request(kind="write", lpn=key, gap_us=gap)
                    produced += 1
            else:
                yield Request(
                    kind="write", lpn=self._next_insert_key(), gap_us=gap
                )
                produced += 1
