"""The model is callback machines: no process outside the kernel.

A module under ``src/repro`` outside ``repro/sim`` may not start a
process (``.spawn(``) or build the waitables only a process needs
(``Timeout``, ``AllOf``, ``AnyOf``).  A component takes a ``then``
continuation and waits with ``Simulator.schedule_after``; parallel legs
meet in a ``Join``.  ``Process`` and ``Event`` stay in the kernel as the
adapter for code that drives a rack from outside it -- ``bench/``,
``benchmarks/``, ``examples/`` and tests.  ``ast`` only, like
``test_orphan_modules.py``.
"""

import ast
import pathlib
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_WAITABLES = {"Timeout", "AllOf", "AnyOf"}

#: Modules that may spawn a process: module -> why, one each.
ALLOWED: Dict[str, str] = {
    "repro.experiments.runner": (
        "spawns Client.run per pair and waits on an AllOf of them, as "
        "bench/simbatch.py does with the same adapter"
    ),
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _process_uses(tree: ast.AST) -> List[str]:
    """``line: what`` for every spawn call or waitable built in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in _WAITABLES or (name == "spawn" and isinstance(func, ast.Attribute)):
            found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def process_users() -> Dict[str, List[str]]:
    users = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        if module == "repro.sim" or module.startswith("repro.sim."):
            continue
        uses = _process_uses(ast.parse(path.read_text(), str(path)))
        if uses:
            users[module] = uses
    return users


def test_only_the_allowlist_spawns_processes():
    users = process_users()
    offenders = {m: uses for m, uses in users.items() if m not in ALLOWED}
    assert offenders == {}, (
        f"process code in the model: {offenders}.  Write the component as "
        "a callback core (a `then` continuation, `schedule_after` for each "
        "wait, a `# tick:` where a spawn's start tick must stay); ALLOWED "
        "takes a module only with the reason it drives a rack from outside"
    )
    stale = sorted(m for m in ALLOWED if m not in users)
    assert stale == [], f"drop from ALLOWED (no process use left): {stale}"
