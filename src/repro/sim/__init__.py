"""Discrete-event simulation kernel: an event heap and a virtual clock.

Every model component is a callback machine: it takes a ``then``
continuation and waits with ``Simulator.schedule_after``; parallel legs
meet in a :class:`Join`.  A generator :class:`Process` yielding
:class:`Event` / :class:`Timeout` / :class:`AllOf` is only an adapter for
code that drives the model from outside (benchmarks, examples, tests).
"""

from repro.sim.core import Simulator
from repro.sim.events import AllOf, Event, Join, Timeout
from repro.sim.process import Process
from repro.sim.rng import RandomSource

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "Join",
    "Process",
    "RandomSource",
]
