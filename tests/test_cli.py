"""Tests for the command-line interface."""

import pytest

from repro.cli import UsageError, _resolve_workload, main


class TestResolveWorkload:
    def test_table2_name(self):
        assert _resolve_workload("tpcc").name == "tpcc"

    def test_ycsb_spec(self):
        spec = _resolve_workload("ycsb-30")
        assert spec.write_ratio == pytest.approx(0.3)

    def test_unknown_rejected(self):
        with pytest.raises(UsageError):
            _resolve_workload("mongo-bench")

    def test_bad_ycsb_rejected(self):
        with pytest.raises(UsageError):
            _resolve_workload("ycsb-lots")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "rackblox" in out and "tpcc" in out and "fig9" in out

    def test_run_small(self, capsys):
        code = main([
            "run", "--system", "rackblox", "--workload", "ycsb-40",
            "--requests", "150", "--servers", "3", "--pairs", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "read_p999_us" in out
        assert "switch.reads_forwarded" in out

    def test_trace_small(self, tmp_path, capsys):
        import json

        from repro.trace import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        code = main([
            "trace", "--system", "rackblox", "--workload", "ycsb-50",
            "--requests", "150", "--servers", "2", "--pairs", "2",
            "--sample-rate", "1.0", "--trace-out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tail attribution" in out
        assert "traced_requests" in out
        assert "trace events" in out
        document = json.loads(out_path.read_text())
        validate_chrome_trace(document)
        assert document["traceEvents"]

    def test_trace_rejects_bad_sample_rate(self, capsys):
        assert main(["trace", "--sample-rate", "0.0"]) == 2
        assert main(["trace", "--sample-rate", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "--sample-rate" in err

    def test_wear_small(self, capsys):
        code = main(["wear", "--servers", "2", "--ssds", "4", "--days", "120"])
        assert code == 0
        assert "lambda" in capsys.readouterr().out

    def test_figures_quick(self, capsys):
        code = main(["figures", "fig22", "--quick"])
        assert code == 0
        assert "Figure 22" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestServiceArgValidation:
    """serve/loadgen reject bad arguments with exit code 2 and a usage
    message naming the offending flag, before touching any sockets."""

    @pytest.mark.parametrize("argv, flag", [
        (["serve", "--chunk-us", "0"], "--chunk-us"),
        (["serve", "--queue-depth", "0"], "--queue-depth"),
        (["serve", "--pace", "-1"], "--pace"),
        (["serve", "--servers", "1"], "--servers"),
        (["serve", "--client-rate", "-5"], "--client-rate"),
        (["serve", "--racks", "0"], "--racks"),
        (["serve", "--racks", "2", "--shard-mode", "process",
          "--fault-schedule", "schedule.json"], "--fault-schedule"),
        (["loadgen", "--pipeline", "0"], "--pipeline"),
        (["loadgen", "--clients", "0"], "--clients"),
        (["loadgen", "--write-ratio", "1.5"], "--write-ratio"),
        (["loadgen", "--mode", "open"], "--duration"),
        (["loadgen", "--rate", "0"], "--rate"),
        (["loadgen", "--keyspace", "0"], "--keyspace"),
        (["fleet", "drain-rack"], "--rack"),
        (["fleet", "status", "--timeout", "0"], "--timeout"),
        (["fleet", "add-rack", "--batch-size", "0"], "--batch-size"),
        (["fleet", "add-rack", "--pause-ms", "-1"], "--pause-ms"),
        (["fleet", "add-rack", "--attempts", "0"], "--attempts"),
    ])
    def test_bad_args_exit_2(self, capsys, argv, flag):
        assert main(argv) == 2
        assert flag in capsys.readouterr().err


class TestFleetCommand:
    """``repro.cli fleet`` round-trips against a live sharded service:
    status -> add-rack -> status, entirely through the public CLI."""

    @pytest.mark.shard
    @pytest.mark.fleet
    def test_status_and_add_rack_round_trip(self, capsys):
        import asyncio
        import json

        from repro.cluster.config import RackConfig, SystemType
        from repro.service.router import ShardedRackService, ShardRouter

        async def scenario():
            config = RackConfig(system=SystemType("rackblox"),
                                num_servers=2, num_pairs=2, seed=11)
            router = ShardRouter.from_config(config, 2, precondition=False,
                                             chunk_us=2000.0)
            service = ShardedRackService(router, port=0)
            await service.start()
            loop = asyncio.get_event_loop()

            def cli(*argv):
                # main() calls asyncio.run, so it needs its own thread
                # (and gets its own event loop there) while the service
                # keeps serving on this one.
                return loop.run_in_executor(
                    None, main,
                    ["fleet", *argv, "--port", str(service.port)])

            outputs = []
            try:
                for argv in (("status", "--json"), ("add-rack",),
                             ("status", "--json")):
                    assert await cli(*argv) == 0
                    outputs.append(capsys.readouterr().out)
            finally:
                await service.stop()
            return outputs

        before_out, add_out, after_out = asyncio.run(scenario())
        before = json.loads(before_out)
        after = json.loads(after_out)
        assert before["epoch"] == 0 and before["racks"] == [0, 1]
        assert after["epoch"] == 1 and after["racks"] == [0, 1, 2]
        assert "add rack 2: epoch 1" in add_out

    def test_unreachable_server_exits_one(self, capsys):
        # A port nothing listens on: the CLI reports and exits 1
        # instead of tracebacking.
        assert main(["fleet", "status", "--port", "1"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestCompareCommand:
    def test_clean_comparison_exits_zero(self, tmp_path, capsys):
        from repro.experiments.figures import FigureResult
        from repro.experiments.results_io import save_figures

        run = {"fig22": FigureResult(
            figure="Figure 22", title="t", columns=["policy", "v"],
            rows=[{"policy": "No Swap", "v": 2.0}],
        )}
        save_figures(run, str(tmp_path / "base"))
        save_figures(run, str(tmp_path / "cand"))
        code = main(["compare", str(tmp_path / "base"), str(tmp_path / "cand")])
        assert code == 0
        assert "no drift" in capsys.readouterr().out

    def test_drift_exits_nonzero(self, tmp_path, capsys):
        from repro.experiments.figures import FigureResult
        from repro.experiments.results_io import save_figures

        base = {"fig22": FigureResult(
            figure="Figure 22", title="t", columns=["policy", "v"],
            rows=[{"policy": "No Swap", "v": 2.0}],
        )}
        cand = {"fig22": FigureResult(
            figure="Figure 22", title="t", columns=["policy", "v"],
            rows=[{"policy": "No Swap", "v": 9.0}],
        )}
        save_figures(base, str(tmp_path / "base"))
        save_figures(cand, str(tmp_path / "cand"))
        code = main(["compare", str(tmp_path / "base"), str(tmp_path / "cand")])
        assert code == 1
        assert "DRIFT" in capsys.readouterr().out
