"""Where callback legs meet (:class:`Join`), and one-shot events.

:class:`Event` is the waitable for code that drives the model from
outside: a :class:`~repro.sim.process.Process` yields one, a test passes
``Event(sim).succeed`` as a ``then``.  :class:`Timeout` fires after a
delay; :class:`AllOf` once every child event has.
"""

from typing import Any, Callable, Iterable, List, Optional

from repro.errors import SimulationError


class Event:
    """A one-shot event that callbacks (typically processes) can wait on.

    An event is *triggered* exactly once, either with :meth:`succeed` or
    :meth:`fail`.  Waiters registered after triggering are invoked
    immediately, so there is no race between triggering and waiting.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_exception")

    def __init__(self, sim) -> None:
        self.sim = sim
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True once the event succeeded (as opposed to failed)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        self._trigger(value=value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._trigger(exception=exception)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when triggered (immediately if already done)."""
        if self._triggered:
            fn(self)
        else:
            assert self._callbacks is not None
            self._callbacks.append(fn)

    def _trigger(
        self, value: Any = None, exception: Optional[BaseException] = None
    ) -> None:
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, None
        assert callbacks is not None
        for fn in callbacks:
            fn(self)


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ()

    def __init__(self, sim, delay: float, value: Any = None) -> None:
        super().__init__(sim)
        if delay < 0:
            raise SimulationError(f"negative timeout {delay!r}")
        sim.schedule_after(delay, lambda: self.succeed(value))


class AllOf(Event):
    """Fires when every child event has succeeded.

    The value is the list of child values in construction order.  If any
    child fails, this event fails with that child's exception.
    """

    __slots__ = ("_pending", "_children")

    def __init__(self, sim, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        if not child.ok:
            self.fail(child._exception)  # noqa: SLF001 - same-module access
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self._children])


class Join:
    """Where the legs of one operation meet: ``then(values)``, in leg
    order, once every leg has called ``arrive``."""

    __slots__ = ("_then", "_values", "_left")

    def __init__(self, legs: int, then: Callable[[List[Any]], None]) -> None:
        self._then = then
        self._values: List[Any] = [None] * legs
        self._left = legs

    def arrive(self, index: int, value: Any) -> None:
        self._values[index] = value
        self._left -= 1
        if not self._left:
            self._then(self._values)
