"""Tests for the deterministic fault-injection engine (tentpole).

Covers the three integration layers: schedules armed through
``RackConfig`` fire inside a bare :class:`Rack`, the batch experiment
engine replays them bit-for-bit (serial and through the process pool),
and the ``repro.cli chaos`` subcommand reports CLEAN on a healthy
crash->redirect->recover scenario.
"""

import pytest

from repro.chaos import FaultEvent, FaultSchedule
from repro.chaos.invariants import InvariantChecker, resolve_read_destination
from repro.chaos.runner import run_chaos_experiment
from repro.cluster.config import RackConfig, SystemType
from repro.cluster.rack import Rack
from repro.errors import ConfigError
from repro.workloads.spec import ycsb

MS = 1000.0

pytestmark = pytest.mark.chaos


def crash_recover_schedule(crash_at=20.0 * MS, recover_at=120.0 * MS,
                           target="server:0") -> FaultSchedule:
    return FaultSchedule(
        events=(
            FaultEvent(crash_at, "server_crash", target),
            FaultEvent(recover_at, "server_recover", target),
        ),
        heartbeat_interval_us=2.0 * MS,
        miss_threshold=2,
    )


def chaos_config(schedule, servers=3, pairs=2, seed=11) -> RackConfig:
    return RackConfig(
        system=SystemType.RACKBLOX,
        num_servers=servers,
        num_pairs=pairs,
        seed=seed,
        fault_schedule=schedule,
    )


def stable_summary(result):
    """An experiment summary minus the wall-clock-dependent keys."""
    return {
        k: v for k, v in result.summary().items()
        if k not in ("wall_clock_s", "events_per_sec")
    }


class TestInjectorOnBareRack:
    def test_rack_config_arms_the_schedule(self):
        rack = Rack(chaos_config(crash_recover_schedule()))
        assert rack.chaos is not None
        assert rack.failure_manager is not None
        assert rack.failure_manager.heartbeat_interval_us == 2.0 * MS

    def test_no_schedule_means_no_chaos(self):
        rack = Rack(chaos_config(None))
        assert rack.chaos is None and rack.failure_manager is None

    def test_crash_fires_at_exact_instant_and_is_detected(self):
        rack = Rack(chaos_config(crash_recover_schedule()))
        rack.sim.run(until=19.0 * MS)
        victim = rack.servers[0]
        assert victim.alive
        rack.sim.run(until=30.0 * MS)  # past crash + detection bound
        assert not victim.alive
        assert victim.ip in rack.failed_ips
        detected = rack.failure_manager.detected_at[victim.ip]
        assert 20.0 * MS < detected <= 20.0 * MS + rack.failure_manager.detection_delay_us

    def test_recover_clears_failure_state(self):
        rack = Rack(chaos_config(crash_recover_schedule()))
        rack.sim.run(until=140.0 * MS)
        victim = rack.servers[0]
        assert victim.alive and victim.ip not in rack.failed_ips
        assert rack.chaos.counters()["recoveries"] == 1.0

    def test_outage_redirects_reads_to_replica(self):
        rack = Rack(chaos_config(crash_recover_schedule()))
        rack.sim.run(until=40.0 * MS)  # inside the detected outage
        victim_ip = rack.servers[0].ip
        for pair in rack.pairs:
            if victim_ip not in (pair.primary_server_ip,
                                 pair.replica_server_ip):
                continue
            vssd = (pair.primary if pair.primary_server_ip == victim_ip
                    else pair.replica)
            dest, redirected = resolve_read_destination(
                rack.switch, vssd.vssd_id
            )
            assert redirected and dest != victim_ip

    def test_link_degrade_applies_and_restores(self):
        sched = FaultSchedule(events=(
            FaultEvent(10.0 * MS, "link_degrade", "all", (("factor", 4.0),)),
            FaultEvent(30.0 * MS, "link_restore", "all"),
        ))
        rack = Rack(chaos_config(sched))
        rack.sim.run(until=20.0 * MS)
        assert rack.latency.degradation == 4.0
        assert rack.degraded()
        rack.sim.run(until=40.0 * MS)
        assert rack.latency.degradation == 1.0
        assert not rack.degraded()

    def test_degradation_multiplies_samples_exactly(self):
        import random

        from repro.net.latency import MEDIUM_NETWORK, LatencyProcess

        base = LatencyProcess(MEDIUM_NETWORK, random.Random(5))
        scaled = LatencyProcess(MEDIUM_NETWORK, random.Random(5))
        scaled.set_degradation(4.0)
        for i in range(50):
            assert scaled.sample(i * 100.0) == pytest.approx(
                4.0 * base.sample(i * 100.0)
            )

    def test_factor_one_run_is_byte_identical_to_no_chaos(self):
        # Degrading by 1.0 consumes no RNG draws, so the run replays
        # exactly as if the link events were never scheduled.
        sched = FaultSchedule(events=(
            FaultEvent(5.0 * MS, "link_degrade", "all", (("factor", 1.0),)),
        ))
        plain = Rack(chaos_config(None))
        chaotic = Rack(chaos_config(sched))
        for rack in (plain, chaotic):
            rack.sim.run(until=10.0 * MS)
        assert (plain.latency.sample(10.0 * MS)
                == chaotic.latency.sample(10.0 * MS))

    def test_channel_stall_and_jitter_execute_and_restore(self):
        sched = FaultSchedule(events=(
            FaultEvent(5.0 * MS, "channel_stall", "server:1",
                       (("duration_us", 2.0 * MS),)),
            FaultEvent(10.0 * MS, "heartbeat_jitter", "",
                       (("factor", 4.0), ("duration_us", 20.0 * MS))),
        ))
        rack = Rack(chaos_config(sched))
        rack.sim.run(until=15.0 * MS)
        assert rack.failure_manager.heartbeat_interval_us == 8.0 * MS
        rack.sim.run(until=40.0 * MS)
        assert rack.failure_manager.heartbeat_interval_us == 2.0 * MS
        kinds = [kind for _, kind, _ in rack.chaos.executed]
        assert "channel_stall" in kinds and "heartbeat_jitter" in kinds

    def test_bad_target_surfaces_config_error(self):
        sched = crash_recover_schedule(target="server:99")
        rack = Rack(chaos_config(sched))
        with pytest.raises(ConfigError):
            rack.sim.run(until=30.0 * MS)

    def test_rereplicating_a_healthy_pair_is_an_error_not_a_rebuild(self):
        # Nothing to rebuild: no member of pair 0 is on a failed server.
        # The refusal leaves the run like an unresolvable target does; it
        # is never counted or logged as a finished re-replication.
        sched = FaultSchedule(events=(
            FaultEvent(30.0 * MS, "rereplicate", "pair:0"),
        ))
        rack = Rack(chaos_config(sched, pairs=3))
        with pytest.raises(ConfigError, match="exactly one member"):
            rack.sim.run(until=40.0 * MS)
        assert rack.chaos.counters()["rereplications"] == 0.0
        assert all(kind != "rereplicate_done"
                   for _, kind, _ in rack.chaos.executed)


class TestInvariantChecker:
    def test_fabricated_lost_write_is_flagged(self):
        rack = Rack(chaos_config(None))
        checker = InvariantChecker(rack)
        # Claim an ack for an in-range page that was never written.
        checker.note_acked_write(rack.pairs[0], 5000)
        assert checker.check_durable_writes("fabricated") == 1
        assert checker.lost_acked_writes == 1

    def test_durable_write_passes_when_mapped(self):
        rack = Rack(chaos_config(None))
        pair = rack.pairs[0]
        pair.primary.ftl.place_write(7)
        checker = InvariantChecker(rack)
        checker.note_acked_write(pair, 7)
        assert checker.check_durable_writes("mapped") == 0

    def test_tampered_switch_table_is_flagged(self):
        rack = Rack(chaos_config(None))
        checker = InvariantChecker(rack)
        assert checker.check_switch_tables("pristine") == 0
        rack.switch.replica_table.remove(rack.pairs[0].primary.vssd_id)
        assert checker.check_switch_tables("tampered") > 0


class TestBatchEngineDeterminism:
    def test_chaos_experiment_replays_identically(self):
        schedule = crash_recover_schedule()
        runs = []
        for _ in range(2):
            result, report = run_chaos_experiment(
                chaos_config(schedule), ycsb(0.5),
                requests_per_pair=200, rate_iops_per_pair=4000.0,
            )
            runs.append((stable_summary(result), report))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1].as_dict() == runs[1][1].as_dict()
        assert runs[0][1].describe() == runs[1][1].describe()

    def test_crash_recover_scenario_is_clean(self):
        result, report = run_chaos_experiment(
            chaos_config(crash_recover_schedule()), ycsb(0.5),
            requests_per_pair=200, rate_iops_per_pair=4000.0,
        )
        c = report.counters
        assert report.clean, report.describe()
        assert c["crashes"] == 1.0 and c["recoveries"] == 1.0
        assert c["detections"] == 1.0
        assert 0.0 < c["mttr_mean_us"] <= report.detection_delay_bound_us
        assert c["lost_acked_writes"] == 0.0
        assert c["window_reads"] > 0
        assert c["window_read_availability_pct"] >= 99.0
        # The outage is visible in the data plane: reads were redirected.
        assert report.metrics_summary.get("redirected_reads", 0.0) > 0
        # Chaos counters surface through ExperimentMetrics.summary().
        assert result.summary()["chaos_crashes"] == 1.0

    def test_requires_armed_schedule(self):
        with pytest.raises(ConfigError):
            run_chaos_experiment(chaos_config(None), ycsb(0.5))

    def test_serial_and_parallel_runner_agree(self):
        from repro.experiments.parallel import (
            ParallelRunner,
            RunCache,
            RunSpec,
        )

        spec = RunSpec.create(
            SystemType.RACKBLOX, ycsb(0.5), 150, 4000.0, 11,
            num_servers=3, num_pairs=2,
            fault_schedule=crash_recover_schedule(),
        )
        serial = spec.execute()
        pooled = ParallelRunner(jobs=2, cache=RunCache()).run_specs([spec])[0]
        assert stable_summary(serial) == stable_summary(pooled)
        # The chaos counters crossed the process boundary too.
        assert stable_summary(pooled)["chaos_crashes"] == 1.0


class TestChaosCli:
    def _write_schedule(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text(crash_recover_schedule().to_json(), encoding="utf-8")
        return str(path)

    def test_cli_reports_clean_and_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["chaos", "--schedule", self._write_schedule(tmp_path),
                   "--servers", "3", "--pairs", "2",
                   "--requests", "150", "--rate", "4000", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: CLEAN" in out
        assert "server_crash" in out and "server_recover" in out

    def test_cli_runs_replay_identically(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_schedule(tmp_path)
        args = ["chaos", "--schedule", path, "--servers", "3",
                "--pairs", "2", "--requests", "120", "--rate", "4000"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_cli_json_output(self, tmp_path, capsys):
        import json

        from repro.cli import main

        rc = main(["chaos", "--schedule", self._write_schedule(tmp_path),
                   "--servers", "3", "--pairs", "2", "--requests", "100",
                   "--rate", "4000", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["counters"]["crashes"] == 1.0
        assert payload["violations"] == []

    def test_cli_rejects_missing_schedule(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["chaos", "--schedule", str(tmp_path / "nope.json")])
        assert rc == 2
