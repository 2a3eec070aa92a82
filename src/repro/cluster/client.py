"""Workload clients.

One client drives one replica pair, open-loop (Poisson arrivals): reads go
to the primary vSSD (the switch may redirect them), writes fan out to both
in-rack replicas and complete when *all* replicas hold a DRAM copy
(§3.5.1's durability semantics).
"""

from functools import partial
from typing import Generator, Optional

from repro.cluster.rack import Rack
from repro.cluster.replication import ReplicaPair
from repro.errors import ConfigError
from repro.metrics.collector import ExperimentMetrics
from repro.sim import Event, Timeout
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
        self._drained: Optional[Event] = None

    def run(self, num_requests: int) -> Generator:
        """Process: issue ``num_requests`` and wait for every response."""
        if num_requests <= 0:
            raise ConfigError(f"num_requests must be positive, got {num_requests}")
        for request in self.generator.requests(num_requests):
            yield Timeout(self.sim, request.gap_us)
            self.issued += 1
            self._issue(request)
        while self.completed < self.issued:
            self._drained = Event(self.sim)
            yield self._drained
        return self.completed

    def _note_done(self) -> None:
        self.completed += 1
        if self._drained is not None and not self._drained.triggered:
            self._drained.succeed()

    def _issue(self, request: Request) -> None:
        lpn = request.lpn % self.key_space
        issue = self._issue_read if request.kind == "read" else self._issue_write
        self._launch(issue, lpn)

    def _launch(self, issue, lpn: int) -> None:
        """Start one operation; subclasses whose operations are processes
        spawn them here instead."""
        issue(lpn)

    def _issue_read(self, lpn: int) -> None:
        done = self.rack.issue_read(self.pair, lpn, client=self.name)
        done.add_callback(partial(self._read_done, self.sim.now))

    def _read_done(self, t0: float, done: Event) -> None:
        storage_us = done.value.payload.get("storage_us")
        self.metrics.record(
            "read", self.sim.now - t0, at=self.sim.now, storage_us=storage_us
        )
        self._note_done()

    def _issue_write(self, lpn: int) -> None:
        # Writes are issued to all replicas and complete when every replica
        # has the DRAM copy (the write-cache admission ack).  Replicas the
        # failure detector has declared dead are skipped -- the membership
        # view clients get from the heartbeat machinery.
        t0 = self.sim.now
        done = self.rack.issue_write(self.pair, lpn, client=self.name)
        if done.triggered:
            # tick: was yield on triggered event
            self.sim.schedule_after(0.0, partial(self._write_done, t0, done))
        else:
            done.add_callback(partial(self._write_done, t0))

    def _write_done(self, t0: float, done: Event) -> None:
        responses = done.value
        if not responses:
            # Both in-rack replicas are down; the out-of-rack replica (out
            # of scope here) would take over.  Count the op as done so the
            # client can drain.
            self._note_done()
            return
        storage_us = max(
            (r.payload.get("storage_us", 0.0) for r in responses), default=None
        )
        self.metrics.record(
            "write", self.sim.now - t0, at=self.sim.now, storage_us=storage_us
        )
        self._note_done()
