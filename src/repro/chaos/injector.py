"""Executes a :class:`FaultSchedule` against a live rack.

The injector arms one simulator callback per scheduled event at rack
construction time, so faults fire at exact sim instants regardless of
how the simulation is advanced -- the batch engine's ``run_until`` loop
and the live service's pump both just cross the timestamps.  After every
event it runs the cheap recovery invariants immediately and schedules
the detection-dependent ones one detection-delay later (§3.7's bound:
``heartbeat_interval * (miss_threshold + 1)``).
"""

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.chaos.invariants import InvariantChecker
from repro.chaos.schedule import PARTITION_FACTOR, FaultEvent, FaultSchedule
from repro.errors import ConfigError


class ChaosTally:
    """Operation outcomes as seen by the chaos clients.

    Each entry is ``(issued_at_us, ok, attempts)`` -- enough to compute
    availability inside/outside failure windows and retry counts without
    keeping any wall-clock state (everything replays deterministically).
    """

    def __init__(self) -> None:
        self.reads: List[Tuple[float, bool, int]] = []
        self.writes: List[Tuple[float, bool, int]] = []

    def note_read(self, issued_at: float, ok: bool, attempts: int) -> None:
        self.reads.append((issued_at, ok, attempts))

    def note_write(self, issued_at: float, ok: bool, attempts: int) -> None:
        self.writes.append((issued_at, ok, attempts))


class ChaosInjector:
    """Replays a schedule, tracks outcomes, audits invariants."""

    def __init__(self, rack, schedule: FaultSchedule, manager) -> None:
        self.rack = rack
        self.sim = rack.sim
        self.schedule = schedule
        self.manager = manager
        self.checker = InvariantChecker(rack)
        self.tally = ChaosTally()
        #: Executed event log: (sim_us, kind, resolved target).
        self.executed: List[Tuple[float, str, str]] = []
        self.crashes: List[Tuple[float, str]] = []
        self.recovers: List[Tuple[float, str]] = []
        self.rereplications_done: List[Tuple[float, str]] = []
        #: Re-replications started and not yet done.
        self._rereplicating = 0
        self._armed = False

    # ------------------------------------------------------------- arming

    def arm(self) -> None:
        if self._armed:
            return
        self._armed = True
        for event in self.schedule.sorted_events():
            self.sim.schedule_at(event.at_us, lambda e=event: self._execute(e))

    # -------------------------------------------------------- target maps

    def _resolve_server_ip(self, target: str) -> str:
        rack = self.rack
        if target.startswith("server:"):
            idx = int(target.split(":", 1)[1])
            if not 0 <= idx < len(rack.servers):
                raise ConfigError(f"no server slot {idx} (have {len(rack.servers)})")
            return rack.servers[idx].ip
        if target.startswith("pair:"):
            parts = target.split(":")
            pair = self._resolve_pair(":".join(parts[:2]))
            role = parts[2] if len(parts) > 2 else "primary"
            if role == "primary":
                return pair.primary_server_ip
            if role == "replica":
                return pair.replica_server_ip
            raise ConfigError(f"pair member must be primary|replica, got {role!r}")
        if target in rack.server_by_ip:
            return target
        raise ConfigError(f"cannot resolve server target {target!r}")

    def _resolve_pair(self, target: str):
        if not target.startswith("pair:"):
            raise ConfigError(f"expected pair:<idx>, got {target!r}")
        idx = int(target.split(":")[1])
        if not 0 <= idx < len(self.rack.pairs):
            raise ConfigError(f"no pair {idx} (have {len(self.rack.pairs)})")
        return self.rack.pairs[idx]

    # ---------------------------------------------------------- execution

    def _execute(self, event: FaultEvent) -> None:
        kind = event.kind
        resolved = event.target
        if kind == "server_crash":
            resolved = self._resolve_server_ip(event.target)
            self.manager.fail_server(resolved)
            self.crashes.append((self.sim.now, resolved))
        elif kind == "server_recover":
            resolved = self._resolve_server_ip(event.target)
            self.manager.recover_server(resolved)
            self.recovers.append((self.sim.now, resolved))
        elif kind == "rereplicate":
            pair = self._resolve_pair(event.target)
            # A pair with no dead member or no rebuild target raises here.
            self.manager.rereplicate_pair(pair, partial(self._rereplicate_done, pair))
            self._rereplicating += 1
        elif kind in ("link_degrade", "link_restore", "link_partition"):
            self._apply_link(event)
        elif kind == "channel_stall":
            resolved = self._resolve_server_ip(event.target)
            self._stall_channels(resolved, event.param("duration_us", 5_000.0))
        elif kind == "switch_fail_recover":
            self.manager.fail_and_recover_switch()
        elif kind == "heartbeat_jitter":
            self._jitter_heartbeats(
                event.param("factor", 4.0), event.param("duration_us", 20_000.0)
            )
        else:  # pragma: no cover - schedule validation rejects these
            raise ConfigError(f"unknown fault kind {kind!r}")
        self.executed.append((self.sim.now, kind, resolved))
        self._post_event(kind)

    def _apply_link(self, event: FaultEvent) -> None:
        if event.kind == "link_partition":
            factor = PARTITION_FACTOR
        elif event.kind == "link_restore":
            factor = 1.0
        else:
            factor = event.param("factor", 4.0)
        target = event.target or "all"
        if target == "all":
            self.rack.set_link_degradation(factor)
        elif target == "fabric":
            self.rack.latency.set_degradation(factor)
        else:
            self.rack.latency_for_client(target).set_degradation(factor)

    def _stall_channels(self, server_ip: str, duration_us: float) -> None:
        """Occupy every flash channel bus behind a server's vSSDs.

        The stall rides the normal channel arbitration (an untyped bus
        occupancy), so queued I/O behind it sees real head-of-line delay
        rather than a modelled penalty.
        """
        server = self.rack.server_by_ip[server_ip]
        seen = set()
        for vssd in server.vssds:
            for channel in vssd.ssd.channels:
                if id(channel) in seen:
                    continue
                seen.add(id(channel))
                # tick: each stall reaches its channel one heap entry later
                self.sim.schedule_after(0.0, partial(
                    channel.submit, "stall", duration_us, lambda: None))

    def _jitter_heartbeats(self, factor: float, duration_us: float) -> None:
        base = self.manager.heartbeat_interval_us
        self.manager.heartbeat_interval_us = base * factor
        self.sim.schedule_after(
            duration_us, lambda: setattr(self.manager, "heartbeat_interval_us", base)
        )

    def _rereplicate_done(self, pair, _copied: int) -> None:
        self._rereplicating -= 1
        self.rereplications_done.append((self.sim.now, pair.name))
        self.executed.append((self.sim.now, "rereplicate_done", pair.name))
        self._post_event("rereplicate_done")

    # ------------------------------------------------------------- audits

    def _post_event(self, kind: str) -> None:
        checker = self.checker
        checker.check_durable_writes(kind)
        checker.check_switch_tables(kind)
        delay = self.manager.detection_delay_us
        self.sim.schedule_after(
            delay, lambda: checker.check_reads_routable(f"{kind}+detection")
        )
        if kind in ("server_recover", "rereplicate_done"):
            self.sim.schedule_after(
                delay, lambda: checker.check_replication_factor(f"{kind}+settle")
            )

    def finish(self, margin_us: float = 10_000.0, chunk_us: float = 50_000.0) -> None:
        """Advance the sim past the schedule and run the final audit.

        Called by the batch runner after foreground traffic drains so
        trailing events (late recoveries, deferred checks) still fire
        even when clients finished early.
        """
        horizon = (
            self.schedule.horizon_us()
            + 2.0 * self.manager.detection_delay_us
            + margin_us
        )
        while self.sim.now < horizon:
            self.sim.run(until=min(horizon, self.sim.now + chunk_us))
        # Re-replication copies live data page by page through the flash
        # channels, which can outlast the schedule's own horizon; the
        # scenario isn't over until the pair is whole again.
        deadline = self.sim.now + 600.0 * 1_000_000.0
        while self._rereplicating and self.sim.now < deadline:
            self.sim.run(until=self.sim.now + chunk_us)
        # One more detection window so the settle-delayed checks fire.
        settle = self.sim.now + self.manager.detection_delay_us
        while self.sim.now < settle:
            self.sim.run(until=min(settle, self.sim.now + chunk_us))
        self.checker.check_all("final")
        if not self.rack.failed_ips:
            self.checker.check_replication_factor("final")

    # ----------------------------------------------------------- accounts

    def failure_windows(self, until: Optional[float] = None) -> List[Tuple[float, float]]:
        """(start, end) outage windows per crash, closed by the matching
        recovery or the end of the run."""
        end_default = self.sim.now if until is None else until
        recovers = list(self.recovers)
        windows = []
        for crash_at, ip in self.crashes:
            end = end_default
            for rec_at, rec_ip in recovers:
                if rec_ip == ip and rec_at >= crash_at:
                    end = rec_at
                    recovers.remove((rec_at, rec_ip))
                    break
            windows.append((crash_at, end))
        return windows

    def mttr_values_us(self) -> List[float]:
        """Crash-to-detection latency per crash (the repair trigger)."""
        values = []
        for crash_at, ip in self.crashes:
            detected = self.manager.detected_at.get(ip)
            if detected is not None and detected >= crash_at:
                values.append(detected - crash_at)
        return values

    def counters(self) -> Dict[str, float]:
        """Flat, deterministic summary (merged into metrics as chaos_*)."""
        windows = self.failure_windows()

        def in_window(t: float) -> bool:
            return any(start <= t < end for start, end in windows)

        def bucket(entries):
            total = len(entries)
            ok = sum(1 for _, success, _ in entries if success)
            retries = sum(attempts - 1 for _, _, attempts in entries)
            win = [e for e in entries if in_window(e[0])]
            win_ok = sum(1 for _, success, _ in win if success)
            return total, ok, retries, len(win), win_ok

        r_total, r_ok, r_retries, r_win, r_win_ok = bucket(self.tally.reads)
        w_total, w_ok, w_retries, w_win, w_win_ok = bucket(self.tally.writes)
        mttr = self.mttr_values_us()
        out = {
            "events": float(len(self.executed)),
            "crashes": float(len(self.crashes)),
            "recoveries": float(len(self.recovers)),
            "rereplications": float(len(self.rereplications_done)),
            "detections": float(self.manager.failures_detected),
            "mttr_mean_us": sum(mttr) / len(mttr) if mttr else 0.0,
            "read_attempts": float(r_total),
            "read_failures": float(r_total - r_ok),
            "read_retries": float(r_retries),
            "write_attempts": float(w_total),
            "write_failures": float(w_total - w_ok),
            "write_retries": float(w_retries),
            "window_reads": float(r_win),
            "window_read_availability_pct": (
                100.0 * r_win_ok / r_win if r_win else 100.0
            ),
            "window_writes": float(w_win),
            "window_write_availability_pct": (
                100.0 * w_win_ok / w_win if w_win else 100.0
            ),
            "invariant_checks": float(self.checker.checks_run),
            "invariant_violations": float(len(self.checker.violations)),
            "lost_acked_writes": float(self.checker.lost_acked_writes),
        }
        return out
