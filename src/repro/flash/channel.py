"""The flash channel: the serialisation point of an SSD.

Each channel carries commands for the chips behind it, one at a time.  A
long-running erase or GC migration occupies the channel and stalls every
queued request -- this is precisely the head-of-line blocking that
RackBlox's coordinated GC routes around.
"""

from collections import deque
from functools import partial
from typing import Callable, Deque, Optional, Tuple

from repro.sim import Simulator
from repro.flash.timing import DeviceProfile

#: One bus command: (kind, duration, continuation).
_Command = Tuple[str, float, Callable[[], None]]


class Channel:
    """One channel: a bus that carries one timed command at a time.

    :meth:`submit` is the whole machine -- a FIFO of commands and one
    scheduler callback per command.  Host I/O, GC page moves and erases
    (:meth:`start_erase`) and chaos stalls all go through it, so they
    share one queue and are served strictly in arrival order.
    """

    def __init__(self, sim: Simulator, channel_id: int, profile: DeviceProfile) -> None:
        self.sim = sim
        self.channel_id = channel_id
        self.profile = profile
        #: The command holding the bus (``None`` when the bus is free).
        self._active: Optional[_Command] = None
        #: Commands waiting for the bus, oldest first.
        self._waiters: Deque[_Command] = deque()
        #: Accumulated busy time, for utilisation reporting.
        self.busy_time = 0.0
        #: Commands served, by kind.
        self.op_counts = {"read": 0, "program": 0, "erase": 0}
        #: Erase suspend/resume (program/erase suspension is the classic
        #: firmware-level mitigation for GC read-blocking -- e.g.
        #: TinyTail/FAST'17 [88]).  Off by default: the paper's devices do
        #: a plain threshold GC; the ablation bench turns it on.
        self.suspend_enabled = False
        self.suspend_slice_us = 500.0
        self.resume_penalty_us = 50.0
        self.suspensions = 0

    def configure_suspend(
        self,
        enabled: bool,
        slice_us: float = 500.0,
        resume_penalty_us: float = 50.0,
    ) -> None:
        """Enable/disable erase suspension and its cost model."""
        if slice_us <= 0 or resume_penalty_us < 0:
            raise ValueError("slice must be positive, penalty non-negative")
        self.suspend_enabled = enabled
        self.suspend_slice_us = slice_us
        self.resume_penalty_us = resume_penalty_us

    @property
    def queue_depth(self) -> int:
        """Commands waiting for the bus (excludes the one in service)."""
        return len(self._waiters)

    @property
    def busy(self) -> bool:
        return self._active is not None

    def submit(self, kind: str, duration: float, then: Callable[[], None]) -> None:
        """Occupy the channel for ``duration`` microseconds once the bus is
        free, then call ``then()``."""
        command = (kind, duration, then)
        if self._active is None:
            self._active = command
            self.sim.schedule_after(duration, self._finish)
        else:
            self._waiters.append(command)

    def _finish(self) -> None:
        # Order matters to whoever shares this instant: account, pass the
        # bus on (the next command's timer starts now), then continue.
        kind, duration, then = self._active
        self.busy_time += duration
        if kind in self.op_counts:
            self.op_counts[kind] += 1
        if self._waiters:
            self._active = self._waiters.popleft()
            self.sim.schedule_after(self._active[1], self._finish)
        else:
            self._active = None
        then()

    def start_erase(self, then: Callable[[], None]) -> None:
        """One block erase (suspendable when configured); ``then()`` once
        it is done.

        With suspension enabled, the erase runs in slices and yields the
        bus between slices whenever commands are waiting -- a queued read
        stalls for at most one slice instead of the full erase.  Each
        actual suspension costs a resume penalty, stretching the erase.
        """
        if not self.suspend_enabled:
            self.submit("erase", self.profile.erase_us, then)
        else:
            self._erase_rest(self.profile.erase_us, then)

    def _erase_rest(self, remaining: float, then: Callable[[], None]) -> None:
        if remaining <= 0:
            self.op_counts["erase"] += 1
            then()
            return
        this_slice = min(self.suspend_slice_us, remaining)
        self.submit("erase_slice", this_slice,
                    partial(self._erase_slice_done, remaining, this_slice, then))

    def _erase_slice_done(self, remaining: float, this_slice: float,
                          then: Callable[[], None]) -> None:
        # We continue inside the release: the bus is busy again only if a
        # queued command took it over.
        must_yield = remaining > this_slice and self.busy
        remaining -= this_slice
        if remaining > 0 and must_yield:
            # Someone was waiting: the erase actually suspended and will
            # pay the resume overhead when it reacquires.
            self.suspensions += 1
            remaining += self.resume_penalty_us
        self._erase_rest(remaining, then)
