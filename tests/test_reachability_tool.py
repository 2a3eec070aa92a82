"""``tools/reachability.py`` records what an entry point's child runs."""

import importlib.util
import os
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "reachability.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_entry_point_under_the_hook(tmp_path, capsys):
    tool = _load_tool()
    assert tool.main(["--work", str(tmp_path), "--only", "cli:list"]) == 0
    entered = tool.read_hits(tmp_path / "hits")
    cli = os.path.realpath(tool.ROOT / "src" / "repro" / "cli.py")
    assert (cli, "main") in {(path, name) for path, _, name in entered}
    out = capsys.readouterr().out
    # Listing the systems never starts a server, so the router is unreached.
    assert "  repro.service.router (" in out
    assert "  repro.cli (" not in out
