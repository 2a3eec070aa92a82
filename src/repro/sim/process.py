"""Generator-based cooperative processes.

A *process function* is a generator that yields waitables::

    def worker(sim, done):
        yield Timeout(sim, 5.0)
        value = yield done   # an Event some other component triggers
        return value         # becomes the process's value

``Process`` itself is an :class:`~repro.sim.events.Event`, so processes can
wait on each other by yielding the other process.  Nothing in the model is
a process: this is the adapter for code that drives a rack from outside it
(``Client.run`` under the batch runner, the benchmark, the examples).
"""

from typing import Generator

from repro.errors import SimulationError
from repro.sim.events import Event


class Process(Event):
    """Drives a generator, resuming it whenever its awaited event fires."""

    __slots__ = ("_generator",)

    def __init__(self, sim, generator: Generator) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        self._generator = generator
        # Start on the next tick so the constructor returns before any of
        # the process body runs (matches SimPy semantics and avoids
        # surprising reentrancy during setup code).
        sim.schedule_after(0.0, self._start)

    def _start(self) -> None:
        self._resume(None)

    def _resume(self, event) -> None:
        if self.triggered:
            return
        if event is not None and not event.ok:
            self._step(event._exception, True)  # noqa: SLF001
            return
        self._step(event.value if event is not None else None, False)

    def _step(self, arg, throw: bool) -> None:
        # One flat advance -- send or throw -- with no per-resume closure
        # allocation.
        generator = self._generator
        try:
            target = generator.throw(arg) if throw else generator.send(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:  # propagate into waiters
            self.fail(exc)
            return
        if isinstance(target, Process) and target is self:
            self.fail(SimulationError("process cannot wait on itself"))
            return
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process yielded {target!r}; expected an Event/Timeout/Process"
                )
            )
            return
        if target.triggered:
            # Defer through the scheduler: a tight loop over
            # already-available events must not recurse on the C stack.
            self.sim.schedule_after(0.0, lambda: self._resume(target))
        else:
            target.add_callback(self._resume)
