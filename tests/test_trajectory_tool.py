"""``tools/trajectory.py`` turns saved benchmark runs into one row of
``BENCH_trajectory.json`` and holds every committed row to its format."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "trajectory.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_file(tmp_path, side, seed, rss, workload="fleet_mixed"):
    tool = _load_tool()
    metrics = {name: {"value": 1.0 + seed / 100.0, "unit": m["unit"]}
               for name, m in tool.end_to_end().items()}
    metrics["peak_rss_mb"]["value"] = rss
    host = {"seed": seed, "git_sha": "unknown", "nproc": 2,
            "python": "3.11.7", "platform": "Linux", "host.calib_ms": 120.0}
    path = tmp_path / f"{workload}.{side}.{seed}.txt"
    path.write_text(
        f"# workload {workload}\n# host {json.dumps(host)}\n"
        f"peak_rss_mb {rss} MB\n"
        + json.dumps({"correct": True, "attempted": 100, "failed": 0,
                      "metrics": metrics}) + "\n")
    return path


def test_append_then_check(tmp_path, capsys):
    tool = _load_tool()
    parent = [_run_file(tmp_path, "parent", s, 36.0 + s / 100) for s in range(10)]
    change = [_run_file(tmp_path, "change", s, 33.0 + s / 100) for s in range(10)]
    change[3] = _run_file(tmp_path, "change", 3, 37.0)  # one pair lost
    out = tmp_path / "trajectory.json"
    assert tool.main(["--file", str(out), "append", "--parent", *map(str, parent),
                      "--change", *map(str, change), "--claim",
                      "fleet_mixed:peak_rss_mb", "--parent-sha", "c3e8f42"]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert (row["parent"], row["change"]) == ("c3e8f42", "self")
    claim = row["claim"]
    assert (claim["wins"], claim["losses"], claim["met"]) == (9, 1, True)
    assert row["workloads"]["fleet_mixed"]["seeds"] == list(range(10))
    assert tool.main(["--file", str(out), "--check"]) == 0
    assert "9/10 pairs won" in capsys.readouterr().out


def test_check_recomputes_the_verdict(tmp_path):
    tool = _load_tool()
    parent = [_run_file(tmp_path, "parent", s, 36.0) for s in range(10)]
    change = [_run_file(tmp_path, "change", s, 36.5) for s in range(10)]
    row = tool.build_row(parent, change, "fleet_mixed:peak_rss_mb",
                         "c3e8f42", "")
    assert row["claim"]["met"] is False
    out = tmp_path / "trajectory.json"
    row["claim"]["met"] = True
    out.write_text(json.dumps({"rows": [row]}))
    assert any("claim met" in p for p in tool.check(out))


def test_a_claim_on_fewer_than_ten_pairs_is_not_met(tmp_path):
    tool = _load_tool()
    parent = [_run_file(tmp_path, "parent", s, 36.0 + s / 100) for s in range(9)]
    change = [_run_file(tmp_path, "change", s, 33.0 + s / 100) for s in range(9)]
    row = tool.build_row(parent, change, "fleet_mixed:peak_rss_mb",
                         "c3e8f42", "")
    assert (row["claim"]["wins"], row["claim"]["met"]) == (9, False)
    out = tmp_path / "trajectory.json"
    row["claim"]["met"] = True
    out.write_text(json.dumps({"rows": [row]}))
    assert any("claim met" in p for p in tool.check(out))


def test_check_rejects_a_change_that_is_its_own_parent(tmp_path):
    tool = _load_tool()
    parent = [_run_file(tmp_path, "parent", s, 36.0) for s in range(2)]
    change = [_run_file(tmp_path, "change", s, 33.0) for s in range(2)]
    row = tool.build_row(parent, change, None, "c3e8f42", "")
    assert row["change"] == "self"
    row["change"] = row["parent"]
    out = tmp_path / "trajectory.json"
    out.write_text(json.dumps({"rows": [row]}))
    assert any("its own parent" in p for p in tool.check(out))


def test_the_committed_trajectory_is_well_formed():
    tool = _load_tool()
    assert tool.check(tool.TRAJECTORY) == []
