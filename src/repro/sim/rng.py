"""Seeded random-number plumbing.

Every stochastic component takes a :class:`RandomSource` so experiments are
reproducible bit-for-bit from a single seed, and independent subsystems
(workload arrivals, network latency, device variation) draw from independent
substreams that do not perturb each other when one consumes more numbers.
"""

import random
from bisect import bisect_left
from typing import Optional, Sequence


class RandomSource:
    """A seeded RNG with named, independent substreams."""

    def __init__(self, seed: int = 0x5EED) -> None:
        self.seed = seed
        self._root = random.Random(seed)

    def stream(self, name: str) -> random.Random:
        """Return an independent ``random.Random`` derived from ``name``.

        The substream seed depends only on the root seed and the name, so
        adding a new consumer never changes the draws of existing ones.
        """
        return random.Random(f"{self.seed}:{name}")

    def spawn(self, name: str) -> "RandomSource":
        """Derive a child source (for per-server / per-client fan-out)."""
        child_seed = random.Random(f"{self.seed}:{name}").getrandbits(63)
        return RandomSource(child_seed)


def zipfian_weights(n: int, theta: float = 0.99) -> Sequence[float]:
    """Weights of a zipfian distribution over ranks ``1..n``.

    ``theta`` is the YCSB skew constant (0.99 by default, as used in the
    paper's zipfian request distribution).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    raw = [1.0 / (rank**theta) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class ZipfianSampler:
    """Samples integers in ``[0, n)`` with zipfian popularity.

    Uses the rejection-inversion-free cumulative method: fine for the sizes
    we use (thousands of keys) and exactly reproducible.
    """

    def __init__(self, n: int, theta: float = 0.99, rng: Optional[random.Random] = None) -> None:
        self.n = n
        self.theta = theta
        self._rng = rng if rng is not None else random.Random(0)
        weights = zipfian_weights(n, theta)
        self._cdf = []
        acc = 0.0
        for w in weights:
            acc += w
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self) -> int:
        return bisect_left(self._cdf, self._rng.random())
