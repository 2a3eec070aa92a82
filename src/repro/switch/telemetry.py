"""Switch-side flow telemetry.

The SDN data plane's observability layer: per-flow packet/byte counters
and per-flow latency tracking.  Switch SRAM cannot hold exact state for
every flow, so the standard tool is a **count-min sketch** -- a fixed-size
probabilistic counter array whose estimates never undercount -- plus a
small exact table for the heavy hitters it surfaces.  RackBlox's control
plane can read this to see which tenants dominate a port and how per-hop
latency is trending (the INT aggregate the paper's coordinated scheduling
consumes).
"""

import functools
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError


@functools.lru_cache(maxsize=4096)
def _sketch_positions(key: str, width: int, depth: int) -> Tuple[int, ...]:
    # A pure function of its arguments, and a rack sees a handful of flow
    # ids for millions of packets: hash each once.
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    return tuple((h1 + i * h2) % width for i in range(depth))


class CountMinSketch:
    """Fixed-memory frequency estimation; estimates never undercount."""

    def __init__(self, width: int = 1024, depth: int = 4) -> None:
        if width < 8 or depth < 1:
            raise ConfigError("width must be >= 8 and depth >= 1")
        self.width = width
        self.depth = depth
        self._rows: List[List[int]] = [[0] * width for _ in range(depth)]
        self.total = 0

    def _positions(self, key: str) -> Tuple[int, ...]:
        return _sketch_positions(key, self.width, self.depth)

    def add(self, key: str, count: int = 1) -> None:
        if count < 0:
            raise ConfigError("count must be >= 0")
        positions = _sketch_positions(key, self.width, self.depth)
        for row, pos in zip(self._rows, positions):
            row[pos] += count
        self.total += count

    def estimate(self, key: str) -> int:
        """An upper-bounded estimate: true count <= estimate."""
        return min(
            row[pos] for row, pos in zip(self._rows, self._positions(key))
        )


@dataclass
class FlowStats:
    """Exact per-flow statistics for a tracked (heavy) flow."""

    flow_id: str
    packets: int = 0
    bytes_kb: float = 0.0
    latency_ewma_us: float = 0.0

    def update(self, size_kb: float, hop_latency_us: float, alpha: float) -> None:
        self.packets += 1
        self.bytes_kb += size_kb
        if self.latency_ewma_us == 0.0:
            self.latency_ewma_us = hop_latency_us
        else:
            self.latency_ewma_us += alpha * (hop_latency_us - self.latency_ewma_us)


class FlowTelemetry:
    """Sketch-backed flow accounting with an exact heavy-hitter table.

    Every packet updates the sketch; a flow is promoted to the exact table
    once its estimated packet count crosses ``promote_threshold`` (and the
    table has room), mirroring how switch telemetry promotes elephants to
    exact counters.
    """

    def __init__(
        self,
        sketch_width: int = 1024,
        sketch_depth: int = 4,
        max_tracked_flows: int = 64,
        promote_threshold: int = 32,
        ewma_alpha: float = 0.2,
    ) -> None:
        if max_tracked_flows < 1:
            raise ConfigError("max_tracked_flows must be >= 1")
        if promote_threshold < 1:
            raise ConfigError("promote_threshold must be >= 1")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0,1]")
        self.sketch = CountMinSketch(sketch_width, sketch_depth)
        self.max_tracked_flows = max_tracked_flows
        self.promote_threshold = promote_threshold
        self.ewma_alpha = ewma_alpha
        self._tracked: Dict[str, FlowStats] = {}
        self.packets_seen = 0
        self.promotions = 0

    def record(self, flow_id: str, size_kb: float, hop_latency_us: float) -> None:
        """Account one packet of ``flow_id`` crossing the switch."""
        self.packets_seen += 1
        self.sketch.add(flow_id)
        stats = self._tracked.get(flow_id)
        if stats is None:
            if (
                len(self._tracked) < self.max_tracked_flows
                and self.sketch.estimate(flow_id) >= self.promote_threshold
            ):
                stats = FlowStats(flow_id=flow_id)
                self._tracked[flow_id] = stats
                self.promotions += 1
            else:
                return
        stats.update(size_kb, hop_latency_us, self.ewma_alpha)

    def estimated_packets(self, flow_id: str) -> int:
        return self.sketch.estimate(flow_id)

    def tracked(self, flow_id: str) -> Optional[FlowStats]:
        return self._tracked.get(flow_id)

    def top_flows(self, k: int = 10) -> List[Tuple[str, int]]:
        """The k highest-volume *tracked* flows by exact packet count."""
        ranked = sorted(
            self._tracked.values(), key=lambda s: s.packets, reverse=True
        )
        return [(s.flow_id, s.packets) for s in ranked[:k]]

    def hot_flow_share(self) -> float:
        """Fraction of all packets attributed to tracked flows."""
        if self.packets_seen == 0:
            return 0.0
        tracked_packets = sum(s.packets for s in self._tracked.values())
        return tracked_packets / self.packets_seen
