"""A replicated key-value API over the simulated rack.

GET/PUT/DELETE ride the exact same end-to-end path as the evaluation's
synthetic workloads: keys hash to a replica pair and a logical page,
writes fan out to both in-rack replicas and complete when both hold a
DRAM copy, reads go to the primary and get redirected by the switch when
it is collecting.  Values must fit one 4 KB page (the evaluation's
request granularity).

The store keeps the authoritative value map in memory (the simulated
flash carries no payloads); what the rack provides is *timing* and the
full coordination machinery.  The ordered key index a scan reads is in
memory like the value map: finding a range costs no simulated time, only
the page reads for the keys it selects do.
"""

import hashlib
from bisect import bisect_left, insort
from typing import Dict, Generator, List, Optional, Tuple

from repro.cluster.rack import Rack
from repro.errors import ConfigError
from repro.metrics.collector import ExperimentMetrics
from repro.net.packet import read_request, write_request
from repro.sim import AllOf


def _key_hash(key: str) -> int:
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RackKvStore:
    """GET/PUT/DELETE over a :class:`~repro.cluster.rack.Rack`."""

    MAX_VALUE_BYTES = 4096

    def __init__(
        self,
        rack: Rack,
        client_name: str = "kv-client",
        working_set_fraction: float = 0.5,
        metrics: Optional[ExperimentMetrics] = None,
    ) -> None:
        if not rack.pairs:
            raise ConfigError("the rack has no vSSD pairs to store into")
        self.rack = rack
        self.sim = rack.sim
        self.client_name = client_name
        self.metrics = metrics if metrics is not None else ExperimentMetrics()
        self._key_spaces = [
            rack.working_set_pages(pair, working_set_fraction)
            for pair in rack.pairs
        ]
        #: The authoritative contents; (pair index, lpn) collisions are
        #: resolved per key (multiple keys may share a page, like slots).
        self._data: Dict[str, str] = {}
        #: The keys of ``_data`` in order.  Both change only through
        #: ``_set``/``_drop``, so they cannot diverge.
        self._keys: List[str] = []
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.scans = 0
        self.misses = 0

    # ------------------------------------------------------------- routing

    def _route(self, key: str) -> Tuple[int, int]:
        """(pair index, lpn) for a key -- consistent for the store's life."""
        h = _key_hash(key)
        pair_idx = h % len(self.rack.pairs)
        lpn = (h // len(self.rack.pairs)) % self._key_spaces[pair_idx]
        return pair_idx, lpn

    def _set(self, key: str, value: str) -> None:
        if key not in self._data:
            insort(self._keys, key)
        self._data[key] = value

    def _drop(self, key: str) -> None:
        if key in self._data:
            del self._data[key]
            del self._keys[bisect_left(self._keys, key)]

    # ----------------------------------------------------------------- API

    def put(self, key: str, value: str) -> Generator:
        """Process: replicated write; returns the end-to-end latency (us).

        Validation is eager, so an oversized value fails at the call site
        rather than inside the scheduled process.
        """
        if len(value.encode("utf-8")) > self.MAX_VALUE_BYTES:
            raise ConfigError(
                f"value for {key!r} exceeds one page "
                f"({self.MAX_VALUE_BYTES} bytes)"
            )
        pair_idx, lpn = self._route(key)
        pair = self.rack.pairs[pair_idx]

        def proc() -> Generator:
            t0 = self.sim.now
            events = []
            for vssd in (pair.primary, pair.replica):
                pkt = write_request(vssd.vssd_id, self.client_name, "", t0)
                rid = self.rack.new_request_id()
                pkt.payload.update(lpn=lpn, rid=rid)
                events.append(self.rack.register_pending(rid))
                self.rack.send_from_client(pkt, flow_id=self.client_name)
            yield AllOf(self.sim, events)
            latency = self.sim.now - t0
            self._set(key, value)
            self.puts += 1
            self.metrics.record("write", latency, at=self.sim.now)
            return latency

        return proc()

    def get(self, key: str) -> Generator:
        """Process: read; returns (value or None, latency us)."""
        pair_idx, lpn = self._route(key)
        pair = self.rack.pairs[pair_idx]
        t0 = self.sim.now
        pkt = read_request(pair.primary.vssd_id, self.client_name, "", t0)
        rid = self.rack.new_request_id()
        pkt.payload.update(lpn=lpn, rid=rid)
        done = self.rack.register_pending(rid)
        self.rack.send_from_client(pkt, flow_id=self.client_name)
        yield done
        latency = self.sim.now - t0
        self.gets += 1
        self.metrics.record("read", latency, at=self.sim.now)
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        return value, latency

    def scan(self, start_key: str, count: int) -> Generator:
        """Process: range scan -- up to ``count`` keys >= ``start_key``.

        Returns ``(items, latency_us)`` where ``items`` is the key-ordered
        list of ``(key, value)`` pairs.  The scan charges one timed read
        per distinct flash page the selected keys map to (keys hashed to
        the same page share its single read, like slots), all issued
        concurrently -- the fan-out a range query pays on a hashed keyspace.

        A page shorter than ``count`` means no key was left past it when
        the scan completed -- callers page on that.  A ``delete`` landing
        while the page reads are out would break it, so the scan then
        reads on past the last key it selected until the page is full or
        the keys run out.
        """
        if count < 1:
            raise ConfigError(f"scan count must be >= 1, got {count}")

        def proc() -> Generator:
            t0 = self.sim.now
            items: List[Tuple[str, str]] = []
            start = start_key
            timed = False
            while True:
                want = count - len(items)
                issued = self.sim.now
                first = bisect_left(self._keys, start)
                keys = self._keys[first:first + want]
                pages: Dict[Tuple[int, int], int] = {}
                for key in keys:
                    pair_idx, lpn = self._route(key)
                    pages[(pair_idx, lpn)] = pair_idx
                events = []
                for (pair_idx, lpn), _ in sorted(pages.items()):
                    pair = self.rack.pairs[pair_idx]
                    pkt = read_request(
                        pair.primary.vssd_id, self.client_name, "", issued
                    )
                    rid = self.rack.new_request_id()
                    pkt.payload.update(lpn=lpn, rid=rid)
                    events.append(self.rack.register_pending(rid))
                    self.rack.send_from_client(pkt, flow_id=self.client_name)
                if events:
                    timed = True
                    yield AllOf(self.sim, events)
                data = self._data
                items.extend((k, data[k]) for k in keys if k in data)
                if len(keys) < want or len(items) == count:
                    break
                start = keys[-1] + "\x00"
            latency = self.sim.now - t0
            self.scans += 1
            if timed:
                self.metrics.record("read", latency, at=self.sim.now)
            return items, latency

        return proc()

    def delete(self, key: str) -> Generator:
        """Process: replicated delete (a write of the empty slot)."""
        latency = yield self.sim.spawn(self.put(key, ""))
        self.puts -= 1  # the inner put counted itself
        self._drop(key)
        self.deletes += 1
        return latency

    def __len__(self) -> int:
        return len(self._data)

    def contains(self, key: str) -> bool:
        """Whether the store currently holds a value for the key."""
        return key in self._data
