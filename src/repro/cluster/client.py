"""Workload clients.

One client drives one replica pair, open-loop (Poisson arrivals): reads go
to the primary vSSD (the switch may redirect them), writes fan out to both
in-rack replicas and complete when *all* replicas hold a DRAM copy
(§3.5.1's durability semantics).
"""

from functools import partial
from typing import Generator, Iterator, List, Optional

from repro.cluster.rack import Rack
from repro.cluster.replication import ReplicaPair
from repro.errors import ConfigError
from repro.metrics.collector import ExperimentMetrics
from repro.net.packet import Packet
from repro.sim import Event
from repro.workloads.generator import OpenLoopGenerator, Request


class Client:
    """An open-loop client bound to one replica pair."""

    def __init__(
        self,
        rack: Rack,
        name: str,
        pair: ReplicaPair,
        generator: OpenLoopGenerator,
        metrics: ExperimentMetrics,
        working_set_fraction: float = 0.5,
    ) -> None:
        self.rack = rack
        self.sim = rack.sim
        self.name = name
        self.pair = pair
        self.generator = generator
        self.metrics = metrics
        self.key_space = rack.working_set_pages(pair, working_set_fraction)
        self.issued = 0
        self.completed = 0
        #: The request stream while it lasts (``None`` once exhausted).
        self._requests: Optional[Iterator[Request]] = None
        #: What :meth:`run` waits on: triggered once, when the stream is
        #: exhausted and every response is back.
        self._drained: Optional[Event] = None

    def run(self, num_requests: int) -> Generator:
        """Process: issue ``num_requests`` and wait for every response.

        Arrivals are callbacks -- each one issues its request, then draws
        the next and schedules it -- so the process wakes once, at the
        end, instead of once per arrival and once per completion."""
        if num_requests <= 0:
            raise ConfigError(f"num_requests must be positive, got {num_requests}")
        self._requests = iter(self.generator.requests(num_requests))
        self._drained = Event(self.sim)
        self._schedule_next()
        if not self._drained.triggered:
            yield self._drained
        return self.completed

    def _schedule_next(self) -> None:
        request = next(self._requests, None)
        if request is None:
            self._requests = None
            if self.completed == self.issued:
                self._drained.succeed()
            return
        self.sim.schedule_after(request.gap_us, partial(self._arrive, request))

    def _arrive(self, request: Request) -> None:
        self.issued += 1
        lpn = request.lpn % self.key_space
        issue = self._issue_read if request.kind == "read" else self._issue_write
        self._launch(issue, lpn)
        self._schedule_next()

    def _note_done(self) -> None:
        self.completed += 1
        if self._requests is None and self.completed == self.issued:
            self._drained.succeed()

    def _launch(self, issue, lpn: int) -> None:
        """Start one operation (``ChaosClient`` starts it one heap entry
        later)."""
        issue(lpn)

    def _issue_read(self, lpn: int) -> None:
        self.rack.start_read(
            self.pair, lpn, partial(self._read_done, self.sim.now), self.name
        )

    def _read_done(self, t0: float, reply: Packet) -> None:
        self.metrics.record(
            "read", self.sim.now - t0, at=self.sim.now,
            storage_us=reply.payload.get("storage_us"),
        )
        self._note_done()

    def _issue_write(self, lpn: int) -> None:
        # Writes are issued to all replicas and complete when every replica
        # has the DRAM copy (the write-cache admission ack).  Replicas the
        # failure detector has declared dead are skipped -- the membership
        # view clients get from the heartbeat machinery.
        self.rack.start_write(
            self.pair, lpn, partial(self._write_done, self.sim.now), self.name
        )

    def _write_done(self, t0: float, replies: List[Packet]) -> None:
        if not replies:
            # Both in-rack replicas are down; the out-of-rack replica (out
            # of scope here) would take over.  Count the op as done so the
            # client can drain -- from the heap, not from inside the
            # arrival that issued it.
            # tick: an empty fan-out completes inside start_write
            self.sim.schedule_after(0.0, self._note_done)
            return
        storage_us = max([r.payload.get("storage_us", 0.0) for r in replies])
        self.metrics.record(
            "write", self.sim.now - t0, at=self.sim.now, storage_us=storage_us
        )
        self._note_done()
