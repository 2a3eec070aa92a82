"""The event loop at the heart of the simulation.

Time is a ``float`` in **microseconds** throughout the package; that unit
matches the latency scales the paper reports (tens of microseconds for
flash reads, milliseconds for GC pauses).
"""

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError

#: Conversion helpers so configuration reads naturally.
USEC = 1.0
MSEC = 1_000.0
SEC = 1_000_000.0


class Simulator:
    """A discrete-event simulator with a virtual microsecond clock.

    Callbacks are ordered by ``(time, sequence)`` where the sequence number
    preserves FIFO order among events scheduled for the same instant, making
    runs fully deterministic.  A scheduled callback always runs: nothing in
    the model cancels one, so the heap holds the bare callables.
    """

    __slots__ = ("now", "_heap", "_seq", "_running", "_event_count",
                 "_stopping")

    def __init__(self) -> None:
        #: Current simulated time in microseconds (read-only by
        #: convention: only :meth:`run` advances it).
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0  # FIFO tie-break among events at one instant
        self._running = False
        self._event_count = 0
        self._stopping = False  # a stop() sentinel is sitting in the heap

    @property
    def event_count(self) -> int:
        """Number of callbacks executed so far (useful for budget checks)."""
        return self._event_count

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, seq, fn))

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute time ``when``.

        A component that folds two waits into one event passes
        ``(now + first) + second`` here, which is the float the two
        separate ``schedule_after`` calls would have produced.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when:.3f} before now={self.now:.3f}"
            )
        self._seq = seq = self._seq + 1
        heappush(self._heap, (when, seq, fn))

    def stop(self) -> None:
        """End the current :meth:`run` from inside a callback.

        The run returns once the events already queued for this instant
        have fired, with the clock frozen here; everything later stays in
        the heap for the next ``run()``.  Outside a run it does nothing.
        The run loop pays nothing for it: ``stop`` queues a zero-delay
        sentinel whose exception ``run`` catches, so no flag is tested
        after each callback.
        """
        if self._running and not self._stopping:
            self._stopping = True
            self._seq = seq = self._seq + 1
            heappush(self._heap, (self.now, seq, _raise_stop))

    def spawn(self, generator: Generator) -> "Any":
        """Start a new :class:`~repro.sim.process.Process` from a generator."""
        from repro.sim.process import Process

        return Process(self, generator)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the event loop.

        Stops when the heap drains, when the next event would pass ``until``
        (the clock is then advanced exactly to ``until``), after
        ``max_events`` callbacks, or at the instant a callback called
        :meth:`stop`.  Returns the final simulated time.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until:.3f}) is in the past (now={self.now:.3f})"
            )
        self._running = True
        # Hot loop: one pop per event.  ``heap`` aliases the live list --
        # callbacks push into the same object -- while the executed-event
        # count is kept local and flushed in ``finally``.  The entry that
        # lies past the horizon goes back with its ``(time, seq)`` key, so
        # it keeps its place for the next run.  ``target`` is the count at
        # which ``max_events`` ends the run; unreachable without one.
        heap = self._heap
        horizon = inf if until is None else until
        count = self._event_count
        target = count + max_events if max_events else -1
        try:
            try:
                while heap:
                    when, seq, fn = heappop(heap)
                    if when > horizon:
                        heappush(heap, (when, seq, fn))
                        self.now = until
                        break
                    self.now = when
                    count += 1
                    fn()
                    if count == target:
                        break
                else:
                    # Heap drained; if an explicit horizon was given, honour it.
                    if until is not None and until > self.now:
                        self.now = until
            except _StopRun:
                count -= 1  # the sentinel is not an event
                self._stopping = False
        finally:
            self._event_count = count
            self._running = False
        return self.now


class _StopRun(Exception):
    """Raised by the :meth:`Simulator.stop` sentinel, caught by ``run``."""


def _raise_stop() -> None:
    raise _StopRun
