"""Deterministic fault injection and recovery-invariant auditing (§3.7).

Only the schedule model is exported here: ``RackConfig`` embeds a
:class:`FaultSchedule`, and importing the injector here would close an
import cycle back through ``repro.cluster``.  The rest lives in
``repro.chaos.injector``, ``.invariants``, ``.client`` and ``.runner``.
"""

from repro.chaos.schedule import EVENT_KINDS, FaultEvent, FaultSchedule, PARTITION_FACTOR

__all__ = [
    "EVENT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "PARTITION_FACTOR",
]
