"""Protocol-matrix perf-smoke: the PR-6 acceptance artifact.

Two closed-loop rows against real TCP serve subprocesses --

* ``json-1core``   -- the v1 wire, one acceptor process (the baseline);
* ``bin-1core``    -- the negotiated binary fast path, same server.

Every run's admitted req/s lands in ``BENCH_serve.json`` (path override:
``BENCH_SERVE_OUT``).
"""

import json
import os
import re
import signal
import subprocess
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_PATH = os.environ.get(
    "BENCH_SERVE_OUT", os.path.join(_REPO_ROOT, "BENCH_serve.json"))

#: Absolute sanity floor for every row (localhost, admitted req/s).
ROW_FLOOR_RPS = 1_000.0

CLIENTS = 16
REQUESTS_PER_CLIENT = 200
PIPELINE = 6

SERVE_ARGS = ["--servers", "2", "--pairs", "4", "--queue-depth", "512",
              "--chunk-us", "8000", "--seed", "42"]

_rows = {}


def _spawn_serve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         *SERVE_ARGS],
        cwd=_REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"on 127\.0\.0\.1:(\d+)", line)
    assert match, f"server did not announce a port: {line!r}"
    return proc, int(match.group(1))


def _stop_serve(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise


def _loadgen_cmd(port, protocol):
    return [sys.executable, "-m", "repro.cli", "loadgen",
            "--port", str(port), "--protocol", protocol,
            "--clients", str(CLIENTS),
            "--requests", str(REQUESTS_PER_CLIENT),
            "--pipeline", str(PIPELINE),
            "--write-ratio", "0.0", "--pairs", "4", "--seed", "7"]


def _drive(port, protocol):
    """Run one loadgen subprocess; its admitted req/s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    proc = subprocess.Popen(_loadgen_cmd(port, protocol), cwd=_REPO_ROOT,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    out, _ = proc.communicate(timeout=300)
    assert proc.returncode == 0, f"loadgen failed:\n{out}"
    assert "errors 0" in out, f"loadgen saw errors:\n{out}"
    assert f"protocol {protocol}" in out, (
        f"negotiation landed off-target:\n{out}")
    match = re.search(r"throughput ([\d,]+) req/s", out)
    assert match, f"no throughput line:\n{out}"
    return float(match.group(1).replace(",", ""))


def _record(row, rps):
    _rows[row] = round(rps, 1)
    print(f"\n{row}: {rps:,.0f} req/s (admitted)")
    assert rps >= ROW_FLOOR_RPS, (
        f"{row} at {rps:,.0f} req/s is below the {ROW_FLOOR_RPS:,.0f} "
        f"req/s sanity floor"
    )


def test_json_one_core(benchmark):
    proc, port = _spawn_serve()
    try:
        rps = benchmark.pedantic(_drive, args=(port, "json"),
                                 rounds=1, iterations=1)
    finally:
        _stop_serve(proc)
    _record("json-1core", rps)


def test_bin_one_core(benchmark):
    proc, port = _spawn_serve()
    try:
        rps = benchmark.pedantic(_drive, args=(port, "bin"),
                                 rounds=1, iterations=1)
    finally:
        _stop_serve(proc)
    _record("bin-1core", rps)


def test_emit_artifact():
    # Runs last (definition order): the two rows above have filled
    # ``_rows``.
    assert set(_rows) == {"json-1core", "bin-1core"}, (
        f"rows missing (ran out of order?): {sorted(_rows)}")
    artifact = {
        "bench": "serve-protocol-matrix",
        "cores": os.cpu_count() or 1,
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "pipeline": PIPELINE,
        "rows_rps": dict(_rows),
    }
    with open(_OUT_PATH, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {_OUT_PATH}")
    print(json.dumps(artifact["rows_rps"], indent=2, sort_keys=True))
