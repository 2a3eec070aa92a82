"""Scale-out benchmark: 4 process-mode rack shards vs one rack.

The sharded acceptance run: the same closed-loop load is driven against
a single-rack ``serve`` and a ``--racks 4 --shard-mode process`` fleet
(one interpreter per rack behind the frame-relay proxy).  The functional
bar always holds -- zero errors, schema-valid sharded stats, all four
shards exercised; the >= 3x throughput bar only engages on hosts with
enough cores to actually run four simulators in parallel (each backend
plus the proxy and the loadgen want a core; a single-core CI box runs
the same bytes but measures only context switching).
"""

import asyncio
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.service.loadgen import run_loadgen

from tests import stats_schema

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Cores needed before the wall-clock scaling assertion is meaningful:
#: 4 backends + proxy + loadgen.
SCALING_CORE_FLOOR = 6
SCALING_FLOOR_X = 3.0

RACKS = 4
PAIRS_PER_RACK = 2
CLIENTS = 16
PIPELINE = 6
REQUESTS_PER_CLIENT = 250


def _spawn_serve(*extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--servers", "2", "--pairs", str(PAIRS_PER_RACK),
            "--queue-depth", "512", "--chunk-us", "8000", "--seed", "42",
            *extra_args,
        ],
        cwd=_REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 120.0
    while True:
        line = proc.stdout.readline()
        assert line or time.monotonic() < deadline, "serve never announced"
        match = re.search(r"on 127\.0\.0\.1:(\d+)", line)
        if match:
            return proc, int(match.group(1))


def _stop_serve(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()


def _drive(port, pairs):
    return asyncio.run(run_loadgen(
        "127.0.0.1", port, mode="closed", clients=CLIENTS,
        requests_per_client=REQUESTS_PER_CLIENT, pipeline=PIPELINE,
        write_ratio=0.2, kind="raw", pairs=pairs, seed=7,
    ))


@pytest.fixture(scope="module")
def measured():
    single_proc, single_port = _spawn_serve()
    try:
        single = _drive(single_port, PAIRS_PER_RACK)
    finally:
        _stop_serve(single_proc)
    sharded_proc, sharded_port = _spawn_serve(
        "--racks", str(RACKS), "--shard-mode", "process",
    )
    try:
        sharded = _drive(sharded_port, RACKS * PAIRS_PER_RACK)
    finally:
        _stop_serve(sharded_proc)
    return single, sharded


def test_sharded_run_is_functionally_clean(measured):
    single, sharded = measured
    print()
    print(f"single rack : {single.throughput_rps:>10,.0f} req/s")
    print(f"{RACKS} rack shards: {sharded.throughput_rps:>10,.0f} req/s")
    for report in (single, sharded):
        assert report.errors == 0
        assert report.ok == CLIENTS * REQUESTS_PER_CLIENT
    stats = sharded.server_stats
    stats_schema.validate_stats(stats)
    assert stats_schema.is_sharded(stats)
    assert stats_schema.shard_ids(stats) == list(range(RACKS))
    # Every shard simulated its slice of the keyspace-wide load.
    for shard_id, section in stats["shards"].items():
        assert section["bridge"]["submitted"] > 0, f"shard {shard_id} idle"
    assert not stats_schema.is_sharded(single.server_stats)


def test_four_racks_scale_throughput(measured):
    cores = os.cpu_count() or 1
    if cores < SCALING_CORE_FLOOR:
        pytest.skip(
            f"{cores} cores < {SCALING_CORE_FLOOR}: four backend "
            "interpreters cannot run in parallel, the speedup would "
            "measure scheduling noise"
        )
    single, sharded = measured
    speedup = sharded.throughput_rps / single.throughput_rps
    print()
    print(f"scale-out speedup: {speedup:.2f}x "
          f"({single.throughput_rps:,.0f} -> "
          f"{sharded.throughput_rps:,.0f} req/s)")
    assert speedup >= SCALING_FLOOR_X, (
        f"{RACKS} racks reached only {speedup:.2f}x over one rack "
        f"(floor {SCALING_FLOOR_X}x)"
    )
