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

from functools import partial

from repro.cluster.client import Client
from repro.errors import ConfigError


class _Op:
    """One operation's retry state.  ``waiting`` is the attempt in flight,
    0 while none is (the operation is settled, or backing off)."""

    __slots__ = ("kind", "lpn", "t0", "attempts", "waiting")

    def __init__(self, kind: str, lpn: int, t0: float) -> None:
        self.kind = kind
        self.lpn = lpn
        self.t0 = t0
        self.attempts = 0
        self.waiting = 0


class ChaosClient(Client):
    """Open-loop client with timeout + retry, bound to an armed rack.

    Each attempt arms a timeout next to its request.  Whichever of the
    reply and the timeout comes first settles the attempt; the other finds
    ``waiting`` moved on and does nothing, so a timed-out attempt's late
    reply is ignored.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.rack.chaos is None:
            raise ConfigError("ChaosClient needs a rack with an armed fault schedule")
        self.hub = self.rack.chaos
        schedule = self.hub.schedule
        self.op_timeout_us = schedule.op_timeout_us
        self.max_attempts = schedule.max_attempts

    def _launch(self, issue, lpn: int) -> None:
        # tick: the plain client issues at once; this one starts each
        # operation one heap entry later
        self.sim.schedule_after(0.0, partial(issue, lpn))

    def _issue_read(self, lpn: int) -> None:
        self._attempt(_Op("read", lpn, self.sim.now))

    def _issue_write(self, lpn: int) -> None:
        self._attempt(_Op("write", lpn, self.sim.now))

    def _attempt(self, op: _Op) -> None:
        op.attempts += 1
        op.waiting = attempt = op.attempts
        start = self.rack.start_read if op.kind == "read" else self.rack.start_write
        start(self.pair, op.lpn, partial(self._replied, op, attempt), self.name)
        self.sim.schedule_after(self.op_timeout_us, partial(self._timed_out, op, attempt))

    def _replied(self, op: _Op, attempt: int, reply) -> None:
        if op.waiting != attempt:
            return
        op.waiting = 0
        if op.kind == "write" and not reply:
            # Every in-rack replica the membership view knows about is
            # down: the fan-out acked vacuously, at once.  Back off one
            # timeout and retry rather than claiming durability.
            # tick: the back-off starts one heap entry later
            self.sim.schedule_after(0.0, partial(
                self.sim.schedule_after, self.op_timeout_us, partial(self._retry, op)))
            return
        self._tally(op, True)
        # The plain client's completions record the latency and count it done.
        (self._read_done if op.kind == "read" else self._write_done)(op.t0, reply)

    def _timed_out(self, op: _Op, attempt: int) -> None:
        if op.waiting == attempt:
            op.waiting = 0
            self._retry(op)

    def _retry(self, op: _Op) -> None:
        if op.attempts < self.max_attempts:
            self._attempt(op)
        else:
            self._tally(op, False)
            self._note_done()

    def _tally(self, op: _Op, ok: bool) -> None:
        if op.kind == "read":
            self.hub.tally.note_read(op.t0, ok, op.attempts)
            return
        self.hub.tally.note_write(op.t0, ok, op.attempts)
        if ok:
            self.hub.checker.note_acked_write(self.pair, op.lpn)
