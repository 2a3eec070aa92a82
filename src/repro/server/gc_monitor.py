"""Periodic GC monitoring (Algorithm 2, ``trigger_gc``).

Every check interval the monitor inspects each hosted vSSD:

* free blocks below the **hard** ``gc_threshold`` -> a *regular* GC request
  (never denied; retried up to 3 times on lost acks, then executed anyway);
* below the **soft** threshold -> a *soft* request the switch may *delay*
  while the replica is collecting;
* otherwise, if the idle predictor forecasts a long-enough gap -> a
  *background* GC executed without waiting for approval.

Coordination is pluggable: :class:`LocalGcCoordinator` accepts everything
instantly (the uncoordinated baselines); the switch- and controller-based
coordinators live in :mod:`repro.cluster` where the network is wired up.
Coordinators answer through continuations: ``then(verdict)`` for a
request, ``then()`` for a notice.
"""

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError, FlashError
from repro.server.idle import IdlePredictor
from repro.sim import Simulator
from repro.sim.core import MSEC
from repro.vssd.channel_group import ChannelGroup
from repro.vssd.vssd import VSsd

#: Default free-ratio the GC restores to once admitted (a little above the
#: soft threshold so back-to-back requests don't thrash).  Kept small so
#: each admitted GC is a short burst of erases -- firmware paces GC rather
#: than reclaiming in one long stall.
DEFAULT_RESTORE_MARGIN = 0.02
DEFAULT_RETRIES = 3


class LocalGcCoordinator:
    """No coordination: every request is accepted immediately (VDC-style)."""

    def request_gc(self, vssd: VSsd, kind: str, then: Callable[[str], None]) -> None:
        """Always grants, at once (no shared state)."""
        then("accept")

    def notify_finish(self, vssd: VSsd, then: Callable[[], None]) -> None:
        """Nothing to clear -- no shared state exists."""
        then()

    def notify_background(self, vssd: VSsd, then: Callable[[], None]) -> None:
        """Background GC needs no approval and no bookkeeping."""
        then()


class GcMonitor:
    """Runs the periodic trigger_gc loop for one server's vSSDs: a pass
    checks them one at a time, each check running its protocol's steps in
    turn (:meth:`_in_turn`), and the timer re-arms when the pass ends."""

    def __init__(
        self,
        sim: Simulator,
        vssds: List[VSsd],
        coordinator,
        idle_predictors: Optional[Dict[int, IdlePredictor]] = None,
        check_interval_us: float = 20 * MSEC,
        retries: int = DEFAULT_RETRIES,
        restore_margin: float = DEFAULT_RESTORE_MARGIN,
    ) -> None:
        if check_interval_us <= 0:
            raise ConfigError("check interval must be positive")
        self.sim = sim
        self.vssds = list(vssds)
        self.coordinator = coordinator
        self.idle_predictors = idle_predictors if idle_predictors is not None else {}
        self.check_interval_us = check_interval_us
        self.retries = retries
        self.restore_margin = restore_margin
        self.requests_sent = {"soft": 0, "regular": 0, "bg": 0}
        self.forced_after_retries = 0
        #: The error that ended this monitor, if a GC pass ran out of space.
        self.halted_by: Optional[FlashError] = None
        self._running = False

    def start(self) -> None:
        """Begin the periodic trigger_gc loop (idempotent)."""
        if self._running:
            return
        self._running = True
        # tick: the loop's start.  The first check comes half an interval
        # in.  Every monitor gets the same half interval, so a rack's
        # monitors all check at the same instants and server index decides
        # whose GC request reaches the switch first; an independent phase
        # per server is ROADMAP model-debt item (a).
        self.sim.schedule_after(0.0, partial(
            self.sim.schedule_after, self.check_interval_us * 0.5, self._pass))

    def _pass(self) -> None:
        self._in_turn(partial(self.sim.schedule_after, self.check_interval_us,
                              self._pass), self.check_all_once)

    def check_all_once(self, then: Callable[[], None]) -> None:
        """One pass of trigger_gc over every hosted vSSD (a channel group
        is checked once, as a whole); ``then()`` after the last check."""
        checks = []
        groups_seen = set()
        for vssd in self.vssds:
            group = vssd.channel_group
            if group is None:
                checks.append(partial(self._check_vssd, vssd))
            elif id(group) not in groups_seen:
                groups_seen.add(id(group))
                checks.append(partial(self._check_group, group))
        self._in_turn(then, *checks)

    def _in_turn(self, then: Callable[[], None], *steps: Callable) -> None:
        """Run each ``step(next)`` once the one before it called ``next``,
        then ``then()``."""
        if not steps:
            then()
            return
        # tick: each step starts one heap entry after it is due
        self.sim.schedule_after(0.0, partial(
            steps[0], partial(self._in_turn, then, *steps[1:])))

    def _request_with_retries(self, vssd: VSsd, kind: str, verdicts: List[str],
                              then: Callable[[], None], tries: int = 0) -> None:
        """Ask the coordinator until it answers, append its ``accept`` /
        ``delay`` to ``verdicts``, then call ``then()``."""
        if tries >= (self.retries if kind == "regular" else 1):
            if kind == "regular":
                # The paper: regular GC executes after exhausting retries.
                self.forced_after_retries += 1
            verdicts.append("accept" if kind == "regular" else "delay")
            then()
            return

        def answered(verdict: str) -> None:
            if verdict in ("accept", "delay"):
                verdicts.append(verdict)
                then()
            else:  # lost ack (link/switch failure): back off briefly, retry
                self.sim.schedule_after(1 * MSEC, partial(
                    self._request_with_retries, vssd, kind, verdicts, then, tries + 1))

        # tick: each request starts one heap entry after it is due
        self.sim.schedule_after(0.0, partial(self.coordinator.request_gc, vssd, kind, answered))

    def _run_gc(self, vssd: VSsd, then: Callable[[], None]) -> None:
        target = vssd.gc_policy.soft_threshold + self.restore_margin
        self._in_turn(then, partial(vssd.gc_until, target, fail=self._halt),
                      partial(self.coordinator.notify_finish, vssd))

    def _halt(self, exc: FlashError) -> None:
        # A GC pass that found no free page ends this monitor where it
        # stands: no finish notice (the switch keeps the vSSD's GC bit),
        # no further check.  That is what the error did to the process
        # this monitor was, and every trajectory was measured with it.
        self.halted_by = exc

    # -------------------------------------------------- hardware-isolated

    def _check_vssd(self, vssd: VSsd, then: Callable[[], None]) -> None:
        # No GC is running here: this monitor is the vSSD's only one, and
        # its pass waits for the vSSD's GC before the next check.
        kind = vssd.gc_needed()
        if kind is None:
            predictor = self.idle_predictors.get(vssd.vssd_id)
            if (predictor is not None and predictor.should_background_gc()
                    and vssd.ftl.has_stale()):
                kind = "bg"
        if kind is None:
            then()
            return
        self.requests_sent[kind] += 1
        if kind == "bg":
            # Background GC needs no approval; the switch is merely told so
            # it can redirect reads meanwhile.
            self._in_turn(then, partial(self.coordinator.notify_background, vssd),
                          partial(self._run_gc, vssd))
            return
        verdicts: List[str] = []

        def decided() -> None:
            if verdicts == ["accept"]:
                self._in_turn(then, partial(self._run_gc, vssd))
            else:
                then()

        self._in_turn(decided, partial(self._request_with_retries, vssd, kind, verdicts))

    # -------------------------------------------------- software-isolated

    def _check_group(self, group: ChannelGroup, then: Callable[[], None]) -> None:
        # Members that ran dry borrow blocks while the group-wide GC point
        # has not been reached (§3.5.2).
        group.rebalance_free_blocks()
        kind = group.needs_group_gc()
        if kind is None:
            then()
            return
        self.requests_sent[kind] += 1
        # One gc_op per member vSSD; a delay response from *any* member
        # delays the whole channel group.
        verdicts: List[str] = []
        members = group.members
        finish = self.coordinator.notify_finish

        def decided() -> None:
            if all(v == "accept" for v in verdicts):
                target = members[0].gc_policy.soft_threshold + self.restore_margin
                self._in_turn(then, partial(group.group_gc, target, fail=self._halt),
                              *(partial(finish, member) for member in members))
                return
            # Roll back accepted members: their GC did not actually start.
            self._in_turn(then, *(partial(finish, member)
                                  for member, verdict in zip(members, verdicts)
                                  if verdict == "accept"))

        self._in_turn(decided, *(partial(self._request_with_retries, member, kind, verdicts)
                                 for member in members))
