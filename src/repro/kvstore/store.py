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

Operations are callback machines (``start_get`` / ``start_put`` /
``start_delete`` / ``start_scan``): the packets leave inside the call,
each leg's reply runs a continuation, and ``then(result)`` runs from the
event that delivers the last reply, so an operation costs the rack's
events and none of its own.  ``get`` / ``put`` / ``delete`` / ``scan``
adapt them for callers that are processes.  Every operation records its
latency in ``metrics`` once, when it completes.
"""

import hashlib
from bisect import bisect_left, insort
from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster.rack import Rack
from repro.errors import ConfigError
from repro.metrics.collector import ExperimentMetrics
from repro.net.packet import read_request, write_request
from repro.sim import Event, Join


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

    def _check_value(self, key: str, value: str) -> None:
        if len(value.encode("utf-8")) > self.MAX_VALUE_BYTES:
            raise ConfigError(
                f"value for {key!r} exceeds one page "
                f"({self.MAX_VALUE_BYTES} bytes)"
            )

    def _check_count(self, count: int) -> None:
        if count < 1:
            raise ConfigError(f"scan count must be >= 1, got {count}")

    def _leg(self, request, vssd_id: int, lpn: int, then) -> None:
        """Send one page request to ``vssd_id``; ``then(reply)`` when the
        reply is back (never, if a dead server drops it)."""
        pkt = request(vssd_id, self.client_name, "", self.sim.now)
        pkt.rid = rid = self.rack.new_request_id()
        pkt.lpn = lpn
        self.rack.register_pending(rid, then)
        self.rack.send_from_client(pkt, self.client_name)

    # ----------------------------------------------------------------- API

    def start_put(self, key: str, value: str,
                  then: Callable[[float], None]) -> None:
        """Replicated write; ``then(latency_us)`` once both replicas ack.
        An oversized value is refused here, before anything is sent."""
        self._check_value(key, value)
        pair_idx, lpn = self._route(key)
        pair = self.rack.pairs[pair_idx]
        acks = Join(2, partial(self._put_done, key, value, self.sim.now, then))
        self._leg(write_request, pair.primary.vssd_id, lpn, partial(acks.arrive, 0))
        self._leg(write_request, pair.replica.vssd_id, lpn, partial(acks.arrive, 1))

    def _put_done(self, key: str, value: str, t0: float, then, _acks) -> None:
        latency = self.sim.now - t0
        self._set(key, value)
        self.puts += 1
        self.metrics.record("write", latency, at=self.sim.now)
        then(latency)

    def start_get(self, key: str,
                  then: Callable[[Tuple[Optional[str], float]], None]) -> None:
        """Read; ``then((value or None, latency_us))``."""
        pair_idx, lpn = self._route(key)
        self._leg(read_request, self.rack.pairs[pair_idx].primary.vssd_id, lpn,
                  partial(self._get_done, key, self.sim.now, then))

    def _get_done(self, key: str, t0: float, then, _reply) -> None:
        latency = self.sim.now - t0
        self.gets += 1
        self.metrics.record("read", latency, at=self.sim.now)
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        then((value, latency))

    def start_delete(self, key: str, then: Callable[[float], None]) -> None:
        """Replicated delete (a write of the empty slot)."""
        self.start_put(key, "", partial(self._delete_done, key, then))

    def _delete_done(self, key: str, then, latency: float) -> None:
        self.puts -= 1  # the put underneath counted itself
        self._drop(key)
        self.deletes += 1
        then(latency)

    def start_scan(self, start_key: str, count: int,
                   then: Callable[[Tuple[List[Tuple[str, str]], float]], None]
                   ) -> None:
        """Range scan -- up to ``count`` keys >= ``start_key``;
        ``then((items, latency_us))`` where ``items`` is the key-ordered
        list of ``(key, value)`` pairs.

        The scan charges one timed read per distinct flash page the
        selected keys map to (keys hashed to the same page share its
        single read, like slots), all issued concurrently -- the fan-out a
        range query pays on a hashed keyspace.  A scan that selects no key
        completes at once, with latency 0.

        A page shorter than ``count`` means no key was left past it when
        the scan completed -- callers page on that.  A ``delete`` landing
        while the page reads are out would break it, so the scan then
        reads on past the last key it selected until the page is full or
        the keys run out.
        """
        self._check_count(count)
        self._scan_round(start_key, count, [], self.sim.now, then)

    def _scan_round(self, start: str, count: int, items, t0: float,
                    then) -> None:
        want = count - len(items)
        first = bisect_left(self._keys, start)
        keys = self._keys[first:first + want]
        landed = partial(self._scan_landed, keys, want, count, items, t0, then)
        pages = sorted({self._route(key) for key in keys})
        if not pages:
            landed(())
            return
        reads = Join(len(pages), landed)
        for index, (pair_idx, lpn) in enumerate(pages):
            self._leg(read_request, self.rack.pairs[pair_idx].primary.vssd_id,
                      lpn, partial(reads.arrive, index))

    def _scan_landed(self, keys: List[str], want: int, count: int, items,
                     t0: float, then, _replies) -> None:
        data = self._data
        items.extend((k, data[k]) for k in keys if k in data)
        if len(keys) < want or len(items) == count:
            latency = self.sim.now - t0
            self.scans += 1
            self.metrics.record("read", latency, at=self.sim.now)
            then((items, latency))
        else:
            self._scan_round(keys[-1] + "\x00", count, items, t0, then)

    def _as_process(self, start: Callable[..., None]) -> Generator:
        done = Event(self.sim)
        start(done.succeed)
        if not done.triggered:
            yield done
        return done.value

    def put(self, key: str, value: str) -> Generator:
        """Process: :meth:`start_put`; returns the end-to-end latency (us).
        An oversized value fails at this call, not inside the process."""
        self._check_value(key, value)
        return self._as_process(partial(self.start_put, key, value))

    def get(self, key: str) -> Generator:
        """Process: :meth:`start_get`; returns (value or None, latency us)."""
        return self._as_process(partial(self.start_get, key))

    def delete(self, key: str) -> Generator:
        """Process: :meth:`start_delete`; returns the latency (us)."""
        return self._as_process(partial(self.start_delete, key))

    def scan(self, start_key: str, count: int) -> Generator:
        """Process: :meth:`start_scan`; returns ``(items, latency_us)``.
        A count below 1 fails at this call, not inside the process."""
        self._check_count(count)
        return self._as_process(partial(self.start_scan, start_key, count))

    def __len__(self) -> int:
        return len(self._data)

    def contains(self, key: str) -> bool:
        """Whether the store currently holds a value for the key."""
        return key in self._data
