#!/usr/bin/env python3
"""List the ``src/repro`` functions that no entry point reaches.

Runs the repository's entry points -- the quick figure report, every
``examples/`` script, each ``repro.cli`` subcommand, the benchmark smoke
run, live serve + loadgen drills and the figure benches -- with a trace
hook in every Python interpreter they start.  Then it prints each
function defined under ``src/repro`` that none of them entered, grouped
by module, and the modules none of whose functions ran::

    python tools/reachability.py                  # everything, ~10 min
    python tools/reachability.py --only cli --only serve
    python tools/reachability.py --work DIR       # hits accumulate in DIR

Standard library only.  The hook is a ``sitecustomize`` module put first
on ``PYTHONPATH``: it installs ``sys.settrace`` and ``threading.settrace``
with a function that records the code object of each new frame and
asks for no per-line tracing, and at exit it writes the ``src/repro``
ones to ``DIR/hits``.  What switches the hook off goes unseen:
pytest-benchmark clears it around a timed function (hence
``--benchmark-disable`` for the benches), a process that leaves through
``os._exit`` writes nothing (hence ``--jobs 1``), and a child whose
environment drops ``PYTHONPATH`` never loads it -- ``bench``'s served
children are such, so the drills below start ``repro.cli serve``
directly.

Functions are found with ``ast`` and matched to hits by file, first line
and name.  Lambdas and generated code (dataclass ``__init__`` and the
like) are not counted.  A function only tests call is unreached here
by design: tests are the contract, not an entry point.
"""

import argparse
import ast
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent

_HOOK = '''\
import atexit
import os
import sys
import tempfile
import threading

_PREFIX = os.environ["REACHABILITY_SRC"]
_OUT = os.environ["REACHABILITY_OUT"]
_codes = {}


def _enter(frame, event, arg, _codes=_codes, _id=id):
    code = frame.f_code
    _codes[_id(code)] = code


def _dump():
    sys.settrace(None)
    lines = sorted({
        f"{code.co_filename}\\t{code.co_firstlineno}\\t{code.co_name}\\n"
        for code in _codes.values() if code.co_filename.startswith(_PREFIX)
    })
    fd, _ = tempfile.mkstemp(dir=_OUT, suffix=".hits")
    with os.fdopen(fd, "w") as out:
        out.writelines(lines)


atexit.register(_dump)
threading.settrace(_enter)
sys.settrace(_enter)
'''


class Served(NamedTuple):
    """A ``repro.cli serve`` run: its arguments, then client commands
    (``{port}`` is the served port) run one after another before the
    server gets SIGTERM and must drain."""

    serve: List[str]
    clients: List[List[str]]


Action = Union[List[str], Served]

_BENCHES = (
    "test_fig*.py", "test_ablation_*.py", "test_predictor_accuracy.py",
    "test_validation_emulator.py", "test_soak_slo.py",
    "test_ycsb_named_suite.py",
)


def entry_points(work: Path) -> List[Tuple[str, List[Action]]]:
    """Every entry point, as ``(name, actions)``; argv lists start with
    the module or script, the interpreter is added when run."""
    cli = ["-m", "repro.cli"]
    raw = cli + ["loadgen", "--port", "{port}", "--clients", "4",
                 "--requests", "40", "--pipeline", "2", "--write-ratio", "0.2"]
    kv = cli + ["loadgen", "--port", "{port}", "--clients", "4",
                "--requests", "40", "--kind", "kv", "--keyspace", "512"]
    fleet = cli + ["fleet", "--port", "{port}"]
    tenants = work / "tenants.json"
    tenants.write_text(
        '{"tenants": [{"name": "gold", "weight": 4, "slo_ms": 50, '
        '"cache_share": 2}, {"name": "flood", "weight": 1, '
        '"rate_per_sec": 20, "burst": 4}], "cache_capacity": 1024}'
    )
    serve = cli + ["serve", "--port", "0", "--servers", "2", "--pairs", "2"]
    points: List[Tuple[str, List[Action]]] = [
        ("report", [["-m", "repro.experiments.report", "--quick", "--jobs",
                     "1", "--out", str(work / "report")]]),
        ("cli:run", [cli + ["run", "--workload", "ycsb-40", "--requests",
                            "200", "--servers", "3", "--pairs", "3"]]),
        ("cli:trace", [cli + ["trace", "--workload", "ycsb-50", "--requests",
                              "250", "--servers", "2", "--pairs", "2",
                              "--sample-rate", "1.0", "--trace-out",
                              str(work / "trace.json")]]),
        ("cli:chaos", [cli + ["chaos", "--schedule",
                              "examples/crash_recover.json", "--requests",
                              "200", "--rate", "3000"]]),
        ("cli:wear", [cli + ["wear", "--days", "365"]]),
        ("cli:figures", [cli + ["figures", "fig22", "--quick"]]),
        ("cli:compare", [
            ["-m", "repro.experiments.report", "--quick", "--jobs", "1",
             "--out", str(work / "fig22"), "fig22"],
            cli + ["compare", str(work / "fig22"), str(work / "fig22")],
        ]),
        ("cli:list", [cli + ["list"]]),
        ("bench:smoke", [["-m", "bench", "run", "--smoke"]]),
        ("serve:one-rack", [Served(serve, [raw, kv])]),
        ("serve:p2c-fleet", [Served(
            serve + ["--racks", "2", "--read-policy", "p2c"],
            [raw + ["--pairs", "4", "--key-dist", "zipf"], kv,
             fleet + ["add-rack"], kv, fleet + ["drain-rack", "--rack", "0"],
             fleet + ["status"]],
        )]),
        ("serve:process", [Served(
            serve + ["--racks", "2", "--shard-mode", "process"],
            [raw + ["--pairs", "4", "--protocol", "bin"],
             kv + ["--protocol", "json"]],
        )]),
        ("serve:tenants", [Served(
            serve + ["--racks", "2", "--tenants", str(tenants)],
            [kv + ["--tenants", "flood", "--retries", "0"],
             kv + ["--tenants", "gold", "--write-ratio", "0.2"]],
        )]),
        ("serve:faults", [Served(
            serve + ["--fault-schedule", "examples/live_crash_recover.json",
                     "--request-timeout-us", "30000"],
            [raw + ["--requests", "80", "--write-ratio", "0.3",
                    "--retries", "8"]],
        )]),
    ]
    for script in sorted((ROOT / "examples").glob("*.py")):
        points.append((f"example:{script.stem}", [[str(script)]]))
    for pattern in _BENCHES:
        for bench in sorted((ROOT / "benchmarks").glob(pattern)):
            points.append((f"bench:{bench.stem[len('test_'):]}", [
                ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "-p", "no:randomly", "--benchmark-disable", str(bench)],
            ]))
    return points


def _serve(action: Served, env: Dict[str, str], log) -> bool:
    served_log = Path(log.name + ".serve")
    with open(served_log, "w") as out:
        server = subprocess.Popen([sys.executable] + action.serve, cwd=ROOT,
                                  env=env, stdout=out,
                                  stderr=subprocess.STDOUT)
    port = None
    deadline = time.monotonic() + 120.0
    while port is None and server.poll() is None \
            and time.monotonic() < deadline:
        time.sleep(0.2)
        found = re.search(r"serving .* on [^ ]+:(\d+)", served_log.read_text())
        port = found.group(1) if found else None
    ok = port is not None
    for client in action.clients if ok else []:
        ok = _run([arg.replace("{port}", port) for arg in client], env, log) \
            and ok
    server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=120)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    return ok and server.returncode == 0 \
        and "served" in served_log.read_text()


def _run(argv: List[str], env: Dict[str, str], log) -> bool:
    log.write(f"$ {' '.join(argv)}\n")
    log.flush()
    done = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          stdout=log, stderr=subprocess.STDOUT)
    return done.returncode == 0


def run_entry_points(work: Path, only: Sequence[str]) -> List[str]:
    """Run the selected entry points under the hook; returns the names
    of those that failed."""
    hook, hits, logs = work / "hook", work / "hits", work / "logs"
    for directory in (hook, hits, logs):
        directory.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(_HOOK)
    src = ROOT / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook), str(src)])
    env["REACHABILITY_SRC"] = str(src / "repro") + os.sep
    env["REACHABILITY_OUT"] = str(hits)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    points = entry_points(work)
    known = [name for name, _ in points]
    unknown = [p for p in only if not any(n.startswith(p) for n in known)]
    if unknown:
        raise SystemExit(f"no entry point matches {unknown}; know {known}")
    failed = []
    for name, actions in points:
        if only and not any(name.startswith(prefix) for prefix in only):
            continue
        started = time.perf_counter()
        with open(logs / (name.replace(":", "_") + ".log"), "w") as log:
            ok = all([
                _serve(action, env, log) if isinstance(action, Served)
                else _run(action, env, log)
                for action in actions
            ])
        took = time.perf_counter() - started
        print(f"{'ok  ' if ok else 'FAIL'} {name} ({took:.0f} s)", flush=True)
        if not ok:
            failed.append(name)
    return failed


def defined_functions(src: Path) -> Dict[str, List[Tuple[Path, int, int, str]]]:
    """Every ``def`` under ``src/repro``, by module: ``(file, first line
    incl. decorators, def line, qualified name)``."""
    found: Dict[str, List[Tuple[Path, int, int, str]]] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        rows = found.setdefault(module, [])

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    name = prefix + child.name
                    rows.append((path, first, child.lineno, name))
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def read_hits(hits: Path) -> Set[Tuple[str, int, str]]:
    entered = set()
    for path in hits.glob("*.hits"):
        for line in path.read_text().splitlines():
            filename, lineno, name = line.split("\t")
            entered.add((os.path.realpath(filename), int(lineno), name))
    return entered


def report(work: Path) -> None:
    """Print the unreached functions, then the modules with functions
    none of which was reached."""
    entered = read_hits(work / "hits")
    total = reached = 0
    dead_modules = []
    lines = []
    for module, functions in defined_functions(ROOT / "src").items():
        missed = []
        for path, first, def_line, name in functions:
            filename = os.path.realpath(path)
            short = name.rsplit(".", 1)[-1]
            if (filename, first, short) in entered \
                    or (filename, def_line, short) in entered:
                reached += 1
            else:
                missed.append(f"  {name} (line {def_line})")
        total += len(functions)
        if missed:
            lines.append(module)
            lines.extend(missed)
        if functions and len(missed) == len(functions):
            dead_modules.append(f"  {module} ({len(functions)} functions)")
    print(f"\nunreached functions ({total - reached} of {total}):")
    print("\n".join(lines))
    print(f"\nmodules no entry point reaches ({len(dead_modules)}):")
    print("\n".join(dead_modules) if dead_modules else "  none")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the hook, logs and hits here (default: "
                             "a fresh temporary directory)")
    parser.add_argument("--only", action="append", default=[],
                        metavar="PREFIX",
                        help="run only entry points whose name starts "
                             "with PREFIX (repeatable)")
    args = parser.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="reachability-"))
    work = work.resolve()
    work.mkdir(parents=True, exist_ok=True)
    failed = run_entry_points(work, args.only)
    report(work)
    print(f"\nhits and logs in {work}")
    if failed:
        print(f"entry points that failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
