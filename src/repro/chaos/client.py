"""A failure-aware batch client: per-attempt timeouts and retries.

The plain :class:`~repro.cluster.client.Client` has no timeout -- a
packet dropped at a dead server's NIC would park it forever.  During
chaos runs each operation instead races a per-attempt timeout (from the
schedule's ``op_timeout_us``) and retries up to ``max_attempts`` times,
which is exactly what gives reads issued inside the detection blind
window a second try after the switch's GC-bit redirect kicks in.
Outcomes land in the injector's tally (availability/MTTR accounting) and
acknowledged writes are registered with the invariant checker as
durability obligations.
"""

from typing import Generator

from repro.cluster.client import Client
from repro.errors import ConfigError
from repro.sim import AnyOf, Timeout


class ChaosClient(Client):
    """Open-loop client with timeout + retry, bound to an armed rack."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.rack.chaos is None:
            raise ConfigError("ChaosClient needs a rack with an armed fault schedule")
        self.hub = self.rack.chaos
        schedule = self.hub.schedule
        self.op_timeout_us = schedule.op_timeout_us
        self.max_attempts = schedule.max_attempts

    def _launch(self, issue, lpn: int) -> None:
        # Retry loops read best as processes; the plain client calls its
        # issue callback at once, this one pays the spawn's start tick.
        self.sim.spawn(issue(lpn))

    def _issue_read(self, lpn: int) -> Generator:
        t0 = self.sim.now
        attempts = 0
        while attempts < self.max_attempts:
            attempts += 1
            done = self.rack.issue_read(self.pair, lpn, client=self.name)
            yield AnyOf(self.sim, [done, Timeout(self.sim, self.op_timeout_us)])
            if done.triggered:
                response = done.value
                self.metrics.record(
                    "read",
                    self.sim.now - t0,
                    at=self.sim.now,
                    storage_us=response.payload.get("storage_us"),
                )
                self.hub.tally.note_read(t0, True, attempts)
                self._note_done()
                return
        self.hub.tally.note_read(t0, False, attempts)
        self._note_done()

    def _issue_write(self, lpn: int) -> Generator:
        t0 = self.sim.now
        attempts = 0
        while attempts < self.max_attempts:
            attempts += 1
            done = self.rack.issue_write(self.pair, lpn, client=self.name)
            yield AnyOf(self.sim, [done, Timeout(self.sim, self.op_timeout_us)])
            if done.triggered and done.value:
                responses = done.value
                storage_us = max(
                    (r.payload.get("storage_us", 0.0) for r in responses),
                    default=None,
                )
                self.metrics.record(
                    "write", self.sim.now - t0, at=self.sim.now, storage_us=storage_us
                )
                self.hub.tally.note_write(t0, True, attempts)
                self.hub.checker.note_acked_write(self.pair, lpn)
                self._note_done()
                return
            if done.triggered and not done.value:
                # Every in-rack replica the membership view knows about is
                # down: the fan-out acked vacuously.  Back off one timeout
                # and retry rather than claiming durability.
                yield Timeout(self.sim, self.op_timeout_us)
        self.hub.tally.note_write(t0, False, attempts)
        self._note_done()
