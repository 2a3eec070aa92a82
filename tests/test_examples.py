"""Smoke tests: the example scripts must run end-to-end."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_coordinated_gc_deep_dive(self, capsys):
        load_example("coordinated_gc_deep_dive").main()
        out = capsys.readouterr().out
        assert "REDIRECTED" in out
        assert "DELAY" in out

    def test_wear_leveling_campaign(self, capsys):
        load_example("wear_leveling_campaign").main()
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "two-level" in out

    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "RackBlox read P99.9 improvement" in out

    def test_failure_drill(self, capsys):
        load_example("failure_drill").main()
        out = capsys.readouterr().out
        assert "heartbeat monitor detected" in out
        assert "healthy again" in out

    def test_kvstore_app(self, capsys):
        load_example("kvstore_app").main()
        out = capsys.readouterr().out
        assert "GET P99.9 improvement" in out

    def test_service_client(self, capsys):
        load_example("service_client").main()
        out = capsys.readouterr().out
        assert "get user:3 -> profile-3" in out
        assert "after delete, found=False" in out

    @pytest.mark.parametrize("name", [
        "quickstart",
        "coordinated_gc_deep_dive",
        "wear_leveling_campaign",
        "failure_drill",
        "device_network_pairing",
        "kvstore_app",
        "service_client",
    ])
    def test_examples_importable(self, name):
        module = load_example(name)
        assert hasattr(module, "main")
