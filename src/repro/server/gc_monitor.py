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
"""

from typing import Dict, Generator, List, Optional

from repro.errors import ConfigError
from repro.server.idle import IdlePredictor
from repro.sim import Simulator, Timeout
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

    def request_gc(self, vssd: VSsd, kind: str) -> Generator:
        """Process: always grants immediately (no shared state)."""
        return "accept"
        yield  # pragma: no cover - makes this a generator function

    def notify_finish(self, vssd: VSsd) -> Generator:
        """Process: nothing to clear -- no shared state exists."""
        return None
        yield  # pragma: no cover

    def notify_background(self, vssd: VSsd) -> Generator:
        """Process: background GC needs no approval and no bookkeeping."""
        return None
        yield  # pragma: no cover


class GcMonitor:
    """Runs the periodic trigger_gc loop for one server's vSSDs."""

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
        self.delays_received = 0
        self.forced_after_retries = 0
        self._running = False

    def start(self) -> None:
        """Begin the periodic trigger_gc loop (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.spawn(self._loop())

    def _loop(self) -> Generator:
        # Stagger the first check so a rack of monitors doesn't synchronise.
        yield Timeout(self.sim, self.check_interval_us * 0.5)
        while True:
            yield self.sim.spawn(self.check_all_once())
            yield Timeout(self.sim, self.check_interval_us)

    def check_all_once(self) -> Generator:
        """Process: one pass of trigger_gc over every hosted vSSD."""
        groups_seen = set()
        for vssd in self.vssds:
            group = vssd.channel_group
            if group is not None:
                if id(group) in groups_seen:
                    continue
                groups_seen.add(id(group))
                yield self.sim.spawn(self._check_group(group))
            else:
                yield self.sim.spawn(self._check_vssd(vssd))

    # -------------------------------------------------- hardware-isolated

    def _check_vssd(self, vssd: VSsd) -> Generator:
        if vssd.gc_active:
            return
        kind = vssd.gc_needed()
        if kind is None:
            predictor = self.idle_predictors.get(vssd.vssd_id)
            if (predictor is not None and predictor.should_background_gc()
                    and vssd.ftl.has_stale()):
                kind = "bg"
        if kind is None:
            return
        self.requests_sent[kind] += 1
        if kind == "bg":
            # Background GC needs no approval; the switch is merely told so
            # it can redirect reads meanwhile.
            yield self.sim.spawn(self.coordinator.notify_background(vssd))
            yield self.sim.spawn(self._run_gc(vssd))
            return
        verdict = yield self.sim.spawn(self._request_with_retries(vssd, kind))
        if verdict == "accept":
            yield self.sim.spawn(self._run_gc(vssd))
        else:
            self.delays_received += 1

    def _request_with_retries(self, vssd: VSsd, kind: str) -> Generator:
        attempts = self.retries if kind == "regular" else 1
        for _ in range(attempts):
            verdict = yield self.sim.spawn(self.coordinator.request_gc(vssd, kind))
            if verdict in ("accept", "delay"):
                return verdict
            # Lost ack (link/switch failure): back off briefly and retry.
            yield Timeout(self.sim, 1 * MSEC)
        if kind == "regular":
            # The paper: regular GC executes after exhausting retries.
            self.forced_after_retries += 1
            return "accept"
        return "delay"

    def _run_gc(self, vssd: VSsd) -> Generator:
        target = vssd.gc_policy.soft_threshold + self.restore_margin
        yield self.sim.spawn(vssd.gc_until(target))
        yield self.sim.spawn(self.coordinator.notify_finish(vssd))

    # -------------------------------------------------- software-isolated

    def _check_group(self, group: ChannelGroup) -> Generator:
        # Members that ran dry borrow blocks while the group-wide GC point
        # has not been reached (§3.5.2).
        group.rebalance_free_blocks()
        kind = group.needs_group_gc()
        if kind is None:
            return
        self.requests_sent[kind] += 1
        # One gc_op per member vSSD; a delay response from *any* member
        # delays the whole channel group.
        verdicts = []
        for member in group.members:
            verdict = yield self.sim.spawn(
                self._request_with_retries(member, kind)
            )
            verdicts.append(verdict)
        if all(v == "accept" for v in verdicts):
            target = group.members[0].gc_policy.soft_threshold + self.restore_margin
            yield self.sim.spawn(group.group_gc(target))
            for member in group.members:
                yield self.sim.spawn(self.coordinator.notify_finish(member))
        else:
            self.delays_received += 1
            # Roll back accepted members: their GC did not actually start.
            for member, verdict in zip(group.members, verdicts):
                if verdict == "accept":
                    yield self.sim.spawn(self.coordinator.notify_finish(member))
