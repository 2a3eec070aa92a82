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

#: Flows whose sketch cells :class:`FlowTelemetry` keeps at once (the
#: cells are recomputed after the table is dropped).
_MAX_CELL_FLOWS = 4096


@functools.lru_cache(maxsize=_MAX_CELL_FLOWS)
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
        #: Each flow's sketch cells, one ``(row, position)`` per row, so a
        #: packet does not re-hash or re-pair them.  Dropped by
        #: :meth:`forget`, and wholesale past ``_MAX_CELL_FLOWS`` flows.
        self._cells: Dict[str, Tuple[Tuple[List[int], int], ...]] = {}
        self.packets_seen = 0
        self.promotions = 0

    def _cells_of(self, flow_id: str) -> Tuple[Tuple[List[int], int], ...]:
        if len(self._cells) >= _MAX_CELL_FLOWS:
            self._cells.clear()
        sketch = self.sketch
        cells = tuple(zip(sketch._rows, _sketch_positions(  # noqa: SLF001
            flow_id, sketch.width, sketch.depth)))
        self._cells[flow_id] = cells
        return cells

    def record(self, flow_id: str, size_kb: float, hop_latency_us: float) -> None:
        """Account one packet of ``flow_id`` crossing the switch."""
        self.packets_seen += 1
        cells = self._cells.get(flow_id) or self._cells_of(flow_id)
        for row, pos in cells:
            row[pos] += 1
        self.sketch.total += 1
        stats = self._tracked.get(flow_id)
        if stats is None:
            if (
                len(self._tracked) < self.max_tracked_flows
                and min(row[pos] for row, pos in cells) >= self.promote_threshold
            ):
                stats = FlowStats(flow_id=flow_id)
                self._tracked[flow_id] = stats
                self.promotions += 1
            else:
                return
        stats.packets += 1
        stats.bytes_kb += size_kb
        ewma = stats.latency_ewma_us
        if ewma == 0.0:
            stats.latency_ewma_us = hop_latency_us
        else:
            stats.latency_ewma_us = ewma + self.ewma_alpha * (hop_latency_us - ewma)

    def forget(self, flow_id: str) -> None:
        """Drop a flow that will not send again: its exact-table entry
        (freeing the slot for a live flow) and its cells.  The sketch is
        an aggregate and keeps its counts."""
        self._tracked.pop(flow_id, None)
        self._cells.pop(flow_id, None)

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
