#!/usr/bin/env python3
"""List the ``src/repro`` functions that no entry point reaches.

Runs the repository's entry points -- the quick figure report, every
``examples/`` script, each ``repro.cli`` subcommand, the benchmark smoke
run, live serve + loadgen drills (the fleet adding and draining racks
under load in both shard modes, a chaos schedule with every documented
fault kind) and the figure benches -- with a trace hook in every Python
interpreter they start.  Then it prints each function defined under
``src/repro`` that none of them entered, grouped by module, and the
modules none of whose functions ran::

    python tools/reachability.py                  # everything, ~14 min
    python tools/reachability.py --only cli --only serve
    python tools/reachability.py --work DIR       # hits accumulate in DIR
    python tools/reachability.py --check          # CI: match the allowlist

``--check`` exits 1 unless the unreached functions are exactly those
``reachability_allowlist.txt`` (next to this file) lists, each with its
reason: an unreached function it does not list fails, and so does an
entry whose function is reached or gone.

Standard library only.  The hook is a ``usercustomize`` module in the
user site directory of a ``PYTHONUSERBASE`` the tool owns: it installs
``sys.settrace`` and ``threading.settrace`` with a function that
records the code object of each new frame and asks for no per-line
tracing, and at exit it writes the ``src/repro`` ones to ``DIR/hits``.
A child that replaces ``PYTHONPATH`` (``bench``'s served children do)
keeps ``PYTHONUSERBASE`` and so the hook.  What switches the hook off
goes unseen: pytest-benchmark clears it around a timed function (hence
``--benchmark-disable`` for the benches), a process that leaves through
``os._exit`` writes nothing (a pool worker; hence ``--jobs 1`` for the
report), and so does an interpreter started with ``-s`` or ``-I``.

Functions are found with ``ast`` and matched to hits by file, first line
and name.  Lambdas and generated code (dataclass ``__init__`` and the
like) are not counted.  A function only tests call is unreached here
by design: tests are the contract, not an entry point.
"""

import argparse
import ast
import json
import os
import re
import signal
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent
#: The functions no entry point may reach, each with its reason.
ALLOWLIST = Path(__file__).resolve().with_name("reachability_allowlist.txt")

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


class Concurrent(NamedTuple):
    """A client step that runs ``load`` in the background, starts
    ``admin`` a second later and waits for both: a membership change
    whose migration window is open under load."""

    load: List[str]
    admin: List[str]


Step = Union[List[str], Concurrent]


class Served(NamedTuple):
    """A ``repro.cli serve`` run: its arguments, then client steps run
    one after another before the server gets SIGTERM and must drain.
    ``{port}`` in a step is the served port; ``backend``, if given, is a
    second server started alongside (a joining rack), whose port is
    ``{backend}``."""

    serve: List[str]
    clients: List[Step]
    backend: Optional[List[str]] = None


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
    under_load = kv[:kv.index("--requests")] + [
        "--duration", "4", "--kind", "kv", "--keyspace", "512"]
    window = ["--batch-size", "4", "--pause-ms", "20"]
    tenants = work / "tenants.json"
    tenants.write_text(
        '{"tenants": [{"name": "gold", "weight": 4, "slo_ms": 50, '
        '"cache_share": 2}, {"name": "flood", "weight": 1, '
        '"rate_per_sec": 20, "burst": 4}], "cache_capacity": 1024}'
    )
    # Every event kind docs/fault-injection.md documents, in one run.
    every_fault = work / "every_fault.json"
    every_fault.write_text(json.dumps({
        "heartbeat_interval_us": 2000.0, "miss_threshold": 2,
        "op_timeout_us": 15000.0, "max_attempts": 4,
        "events": [
            {"at_us": 10000.0, "kind": "link_degrade", "target": "all",
             "factor": 2.0},
            {"at_us": 20000.0, "kind": "link_restore", "target": "all"},
            {"at_us": 25000.0, "kind": "channel_stall", "target": "server:1",
             "duration_us": 5000.0},
            {"at_us": 30000.0, "kind": "server_crash", "target": "server:0"},
            {"at_us": 40000.0, "kind": "heartbeat_jitter", "factor": 2.0,
             "duration_us": 10000.0},
            {"at_us": 60000.0, "kind": "rereplicate", "target": "pair:0"},
            {"at_us": 80000.0, "kind": "switch_fail_recover"},
            {"at_us": 100000.0, "kind": "link_partition", "target": "all",
             "duration_us": 2000.0},
            {"at_us": 150000.0, "kind": "server_recover",
             "target": "server:0"},
        ],
    }))
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
        ("cli:chaos-every-fault", [cli + ["chaos", "--schedule",
                                          str(every_fault), "--requests",
                                          "200", "--rate", "3000",
                                          "--json"]]),
        ("cli:wear", [cli + ["wear", "--days", "365"]]),
        ("cli:figures", [cli + ["figures", "fig22", "--quick", "--jobs", "0"]]),
        ("cli:compare", [
            ["-m", "repro.experiments.report", "--quick", "--jobs", "1",
             "--out", str(work / "fig22"), "fig22"],
            cli + ["compare", str(work / "fig22"), str(work / "fig22")],
        ]),
        ("cli:list", [cli + ["list"]]),
        ("bench:smoke", [["-m", "bench", "run", "--smoke"]]),
        ("serve:one-rack", [Served(
            serve + ["--client-rate", "20000", "--trace-sample-rate", "0.5"],
            [raw, kv, raw + ["--mode", "open", "--duration", "1",
                             "--rate", "400"],
             fleet + ["status"]],
        )]),
        ("serve:p2c-fleet", [Served(
            serve + ["--racks", "2", "--read-policy", "p2c"],
            [raw + ["--pairs", "4", "--key-dist", "zipf"], kv,
             Concurrent(under_load, fleet + ["add-rack"] + window),
             Concurrent(under_load,
                        fleet + ["drain-rack", "--rack", "0"] + window),
             fleet + ["status"]],
        )]),
        ("serve:process", [Served(
            serve + ["--racks", "2", "--shard-mode", "process",
                     "--read-policy", "p2c"],
            [raw + ["--pairs", "4", "--protocol", "bin"],
             kv + ["--protocol", "json"],
             Concurrent(under_load, fleet + [
                 "add-rack", "--backend-host", "127.0.0.1",
                 "--backend-port", "{backend}"] + window),
             Concurrent(under_load,
                        fleet + ["drain-rack", "--rack", "0"] + window),
             fleet + ["status"]],
            backend=serve + ["--racks", "1", "--seed", "13"],
        )]),
        ("serve:tenants", [Served(
            serve + ["--racks", "2", "--tenants", str(tenants)],
            [kv + ["--tenants", "flood", "--retries", "0"],
             kv + ["--tenants", "gold", "--write-ratio", "0.2"],
             fleet + ["add-rack"]],
        )]),
        ("serve:process-tenants", [Served(
            serve + ["--racks", "2", "--shard-mode", "process", "--tenants",
                     str(tenants)],
            [kv + ["--tenants", "gold", "--write-ratio", "0.2"]],
        )]),
        ("serve:faults", [Served(
            serve + ["--fault-schedule", "examples/live_crash_recover.json",
                     "--request-timeout-us", "30000"],
            [raw + ["--requests", "80", "--write-ratio", "0.3",
                    "--retries", "8"]],
        )]),
        ("serve:faults-fleet", [Served(
            serve + ["--racks", "2", "--system", "vdc", "--fault-schedule",
                     "examples/live_crash_recover.json",
                     "--request-timeout-us", "30000"],
            [raw + ["--pairs", "4", "--requests", "80", "--write-ratio",
                    "0.3", "--retries", "8"]],
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


def _start(argv: List[str], env: Dict[str, str], out: Path):
    with open(out, "w") as fh:
        return subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=env,
                                stdout=fh, stderr=subprocess.STDOUT)


def _port(server: subprocess.Popen, out: Path) -> Optional[str]:
    deadline = time.monotonic() + 120.0
    while server.poll() is None and time.monotonic() < deadline:
        found = re.search(r"serving .* on [^ ]+:(\d+)", out.read_text())
        if found:
            return found.group(1)
        time.sleep(0.2)
    return None


def _stop(server: subprocess.Popen) -> int:
    server.send_signal(signal.SIGTERM)
    try:
        return server.wait(timeout=120)
    except subprocess.TimeoutExpired:
        server.kill()
        return server.wait()


def _serve(action: Served, env: Dict[str, str], log) -> bool:
    served_log = Path(log.name + ".serve")
    servers = [_start(action.serve, env, served_log)]
    ports = {"{port}": _port(servers[0], served_log)}
    if action.backend is not None:
        backend_log = Path(log.name + ".backend")
        servers.append(_start(action.backend, env, backend_log))
        ports["{backend}"] = _port(servers[1], backend_log)
    ok = None not in ports.values()

    def fill(argv: List[str]) -> List[str]:
        for key, port in ports.items():
            argv = [arg.replace(key, port) for arg in argv]
        return argv

    for step in action.clients if ok else []:
        if isinstance(step, Concurrent):
            log.write(f"$ {' '.join(fill(step.load))} &\n")
            log.flush()
            load = subprocess.Popen([sys.executable] + fill(step.load),
                                    cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            time.sleep(1.0)
            ok = _run(fill(step.admin), env, log) and ok
            ok = load.wait() == 0 and ok
        else:
            ok = _run(fill(step), env, log) and ok
    codes = [_stop(server) for server in servers]
    return ok and not any(codes) and "served" in served_log.read_text()


def _run(argv: List[str], env: Dict[str, str], log) -> bool:
    log.write(f"$ {' '.join(argv)}\n")
    log.flush()
    done = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          stdout=log, stderr=subprocess.STDOUT)
    return done.returncode == 0


def run_entry_points(work: Path, only: Sequence[str]) -> List[str]:
    """Run the selected entry points under the hook; returns the names
    of those that failed."""
    userbase, hits, logs = work / "userbase", work / "hits", work / "logs"
    site_dir = Path(sysconfig.get_path("purelib", f"{os.name}_user",
                                       vars={"userbase": str(userbase)}))
    for directory in (site_dir, hits, logs):
        directory.mkdir(parents=True, exist_ok=True)
    (site_dir / "usercustomize.py").write_text(_HOOK)
    src = ROOT / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONUSERBASE"] = str(userbase)
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


def report(work: Path) -> Tuple[Set[str], Set[str]]:
    """Print the unreached functions, then the modules with functions
    none of which was reached; returns the ``module:name`` keys of the
    unreached functions and of all functions."""
    entered = read_hits(work / "hits")
    missed_keys: Set[str] = set()
    defined: Set[str] = set()
    total = reached = 0
    dead_modules = []
    lines = []
    for module, functions in defined_functions(ROOT / "src").items():
        missed = []
        for path, first, def_line, name in functions:
            filename = os.path.realpath(path)
            short = name.rsplit(".", 1)[-1]
            defined.add(f"{module}:{name}")
            if (filename, first, short) in entered \
                    or (filename, def_line, short) in entered:
                reached += 1
            else:
                missed.append(f"  {name} (line {def_line})")
                missed_keys.add(f"{module}:{name}")
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
    return missed_keys, defined


def read_allowlist(path: Path = ALLOWLIST) -> Dict[str, str]:
    """``module:name`` -> reason.  One entry a line, the key then its
    reason; blank lines and lines starting with ``#`` are skipped."""
    entries = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, reason = line.partition(" ")
            entries[key] = reason.strip()
    return entries


def check(missed: Set[str], defined: Set[str],
          allowed: Dict[str, str]) -> List[str]:
    """What makes the allowlist wrong for this run: an unreached function
    it does not list, or an entry whose function is reached or gone."""
    return (
        [f"unreached, not allowlisted: {key}"
         for key in sorted(missed - allowed.keys())]
        + [f"allowlisted, no such function: {key}"
           for key in sorted(allowed.keys() - defined)]
        + [f"allowlisted, but reached: {key}"
           for key in sorted((allowed.keys() & defined) - missed)]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the hook, logs and hits here (default: "
                             "a fresh temporary directory)")
    parser.add_argument("--only", action="append", default=[],
                        metavar="PREFIX",
                        help="run only entry points whose name starts "
                             "with PREFIX (repeatable)")
    parser.add_argument("--no-run", action="store_true",
                        help="run nothing: report on the hits already "
                             "in --work")
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 unless the unreached functions are "
                             f"exactly those {ALLOWLIST.name} lists")
    args = parser.parse_args(argv)
    if args.no_run and args.work is None:
        parser.error("--no-run needs --work")
    if args.check and args.only:
        parser.error("--check judges a full run; drop --only")
    work = args.work or Path(tempfile.mkdtemp(prefix="reachability-"))
    work = work.resolve()
    work.mkdir(parents=True, exist_ok=True)
    failed = [] if args.no_run else run_entry_points(work, args.only)
    missed, defined = report(work)
    print(f"\nhits and logs in {work}")
    if failed:
        print(f"entry points that failed: {', '.join(failed)}")
    problems = check(missed, defined, read_allowlist()) if args.check else []
    for problem in problems:
        print(problem)
    if args.check and not problems:
        print(f"allowlist matches: {len(missed)} unreached, all listed")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
