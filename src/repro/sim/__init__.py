"""Discrete-event simulation kernel.

A small, dependency-free event-driven simulator in the style of SimPy:
generator functions become cooperatively scheduled :class:`Process` objects
that ``yield`` waitables (:class:`Timeout`, :class:`Event`, other processes).

The kernel is deliberately minimal -- an event heap, a virtual clock, and a
handful of synchronisation primitives -- because every subsystem in the
RackBlox reproduction (flash channels, switch pipeline, I/O schedulers,
network links) is expressed on top of it.
"""

from repro.sim.core import Simulator
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RandomSource

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "RandomSource",
]
