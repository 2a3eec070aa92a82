"""``tools/reachability.py`` records what an entry point's child runs,
and its allowlist names real functions, each with a reason."""

import importlib.util
import os
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "reachability.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entered(tool, work):
    return {(path, name) for path, _, name in tool.read_hits(work / "hits")}


def test_one_entry_point_under_the_hook(tmp_path, capsys):
    tool = _load_tool()
    assert tool.main(["--work", str(tmp_path), "--only", "cli:list"]) == 0
    cli = os.path.realpath(tool.ROOT / "src" / "repro" / "cli.py")
    assert (cli, "main") in _entered(tool, tmp_path)
    out = capsys.readouterr().out
    # Listing the systems never starts a server, so the router is unreached.
    assert "  repro.service.router (" in out
    assert "  repro.cli (" not in out


def test_a_child_that_resets_pythonpath_is_still_traced(tmp_path, monkeypatch):
    # ``bench`` starts its children with ``PYTHONPATH`` replaced by
    # ``src`` alone; the hook must load in them all the same.
    tool = _load_tool()
    parent = ("import subprocess, sys\n"
              "from bench.host import child_env\n"
              "subprocess.run([sys.executable, '-m', 'repro.cli', 'list'],\n"
              "               env=child_env(), check=True)\n")
    monkeypatch.setattr(tool, "entry_points",
                        lambda work: [("child", [["-c", parent]])])
    assert tool.run_entry_points(tmp_path, []) == []
    cli = os.path.realpath(tool.ROOT / "src" / "repro" / "cli.py")
    assert (cli, "main") in _entered(tool, tmp_path)


def test_every_allowlist_entry_names_a_def_and_gives_a_reason():
    tool = _load_tool()
    defined = {
        f"{module}:{name}"
        for module, functions in tool.defined_functions(tool.ROOT / "src").items()
        for _, _, _, name in functions
    }
    allowed = tool.read_allowlist()
    assert allowed
    assert sorted(set(allowed) - defined) == []
    assert [key for key, reason in allowed.items() if not reason] == []


def test_check_names_each_way_the_allowlist_can_be_wrong():
    tool = _load_tool()
    problems = tool.check(missed={"m:a", "m:b"}, defined={"m:a", "m:b", "m:c"},
                          allowed={"m:a": "why", "m:c": "why", "m:gone": "why"})
    assert problems == [
        "unreached, not allowlisted: m:b",
        "allowlisted, no such function: m:gone",
        "allowlisted, but reached: m:c",
    ]
