"""Each entry point imports only the layers it runs.

A batch simulation needs neither the live service (asyncio, ssl) nor
the figure runners (multiprocessing); a served rack needs no
experiments code.  Every case imports in a fresh interpreter and reads
``sys.modules`` afterwards, so nothing an earlier test imported counts.
"""

import json
import os
import pathlib
import subprocess
import sys
from typing import List

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _loaded_after(code: str) -> List[str]:
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _offenders(loaded: List[str], forbidden: List[str]) -> List[str]:
    return [name for name in loaded
            if any(name == f or name.startswith(f + ".") for f in forbidden)]


def test_batch_simulation_loads_no_service_or_experiments():
    # What the sim_batch benchmark's child imports.
    loaded = _loaded_after(
        "from repro.api import RackConfig, SystemType\n"
        "import repro.cluster.rack, repro.cluster.client\n"
        "import repro.workloads.generator, repro.workloads.spec")
    assert _offenders(loaded, [
        "asyncio", "ssl", "multiprocessing", "concurrent.futures",
        "repro.service", "repro.experiments", "repro.chaos.runner",
        "repro.wear"]) == []


def test_cli_loads_no_command_modules():
    loaded = _loaded_after("import repro.cli")
    assert _offenders(loaded, [
        "repro.experiments", "repro.wear", "repro.service",
        "multiprocessing"]) == []


def test_single_rack_server_loads_no_fleet_or_client_modules():
    loaded = _loaded_after("import repro.service.server")
    assert "repro.service.server" in loaded
    assert _offenders(loaded, [
        f"repro.service.{name}"
        for name in ("router", "loadgen", "client", "migration", "selector")
    ]) == []


def test_experiments_package_loads_no_report():
    # ``python -m repro.experiments.report`` runs the module as
    # ``__main__``; were it already imported by the package, runpy would
    # warn that it found it in sys.modules.
    assert "repro.experiments.report" not in _loaded_after(
        "import repro.experiments")
