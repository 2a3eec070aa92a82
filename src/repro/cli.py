"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``run`` -- one rack experiment with chosen system/workload parameters;
* ``trace`` -- a traced rack run: per-stage spans, tail-latency
  attribution, optional Chrome trace-event (Perfetto) export;
* ``serve`` -- expose a rack as a live asyncio TCP service (sim-time
  bridge, admission control, graceful drain on SIGINT/SIGTERM);
* ``loadgen`` -- open/closed-loop load generation against ``serve``;
* ``chaos`` -- replay a fault-injection schedule against a rack under
  load and print the availability/MTTR/invariant report (exit 1 if any
  recovery invariant broke);
* ``figures`` -- reproduce paper figures (same as
  ``python -m repro.experiments.report``);
* ``wear`` -- the long-horizon wear-leveling campaign;
* ``list`` -- enumerate available systems, workloads, and figures.

Exit codes are uniform across subcommands: ``0`` success, ``1`` runtime
failure (an experiment or service that ran and failed), ``2`` usage
error (bad arguments -- argparse's own convention, matched here for the
validation argparse cannot express).
"""

import argparse
import sys
from typing import List, Optional

from repro.cluster.config import RackConfig, SystemType
from repro.errors import ReproError
from repro.flash.timing import DEVICE_PROFILES, profile_by_name
from repro.net.latency import NETWORK_PROFILES
from repro.net.latency import profile_by_name as net_profile_by_name
from repro.workloads.spec import TABLE2_WORKLOADS, ycsb


class UsageError(Exception):
    """Bad subcommand arguments; exits 2 like argparse's own errors."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RackBlox (SOSP 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rack_args(p) -> None:
        p.add_argument("--system", default="rackblox",
                       choices=[s.value for s in SystemType])
        p.add_argument("--workload", default="ycsb-50",
                       help="'ycsb-<write%%>' or a Table 2 name "
                            f"({', '.join(sorted(TABLE2_WORKLOADS))})")
        p.add_argument("--requests", type=int, default=2000)
        p.add_argument("--rate", type=float, default=1500.0)
        p.add_argument("--servers", type=int, default=4)
        p.add_argument("--pairs", type=int, default=4)
        p.add_argument("--device", default="pssd", choices=sorted(DEVICE_PROFILES))
        p.add_argument("--network", default="medium",
                       choices=sorted(NETWORK_PROFILES))
        p.add_argument("--seed", type=int, default=42)

    run_p = sub.add_parser("run", help="run one rack experiment")
    add_rack_args(run_p)

    chaos_p = sub.add_parser(
        "chaos", help="replay a fault-injection schedule under load"
    )
    add_rack_args(chaos_p)
    chaos_p.add_argument("--schedule", required=True, metavar="PATH",
                         help="fault schedule JSON "
                              "(see examples/crash_recover.json)")
    chaos_p.add_argument("--json", action="store_true",
                         help="emit the report as JSON instead of text")

    trace_p = sub.add_parser(
        "trace", help="run one rack experiment with request tracing"
    )
    add_rack_args(trace_p)
    trace_p.add_argument("--sample-rate", type=float, default=1.0,
                         help="head-sampling probability in (0,1] "
                              "(default: trace every request)")
    trace_p.add_argument("--trace-out", metavar="PATH",
                         help="write Chrome trace-event JSON here "
                              "(load in Perfetto / chrome://tracing)")
    trace_p.add_argument("--percentile", type=float, default=99.0,
                         help="tail percentile to attribute (default 99)")

    serve_p = sub.add_parser(
        "serve", help="serve a rack live over TCP (length-prefixed JSON)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7337,
                         help="TCP port (0 picks a free one; default 7337)")
    serve_p.add_argument("--system", default="rackblox",
                         choices=[s.value for s in SystemType])
    serve_p.add_argument("--servers", type=int, default=2)
    serve_p.add_argument("--pairs", type=int, default=2)
    serve_p.add_argument("--device", default="pssd",
                         choices=sorted(DEVICE_PROFILES))
    serve_p.add_argument("--network", default="medium",
                         choices=sorted(NETWORK_PROFILES))
    serve_p.add_argument("--seed", type=int, default=42)
    serve_p.add_argument("--racks", type=int, default=1,
                         help="number of independent rack shards behind "
                              "one consistent-hash front-end (1 = the "
                              "plain single-rack service)")
    serve_p.add_argument("--read-policy", default="hash",
                         choices=["hash", "p2c"],
                         help="raw-read replica placement: hash pins "
                              "every read to its ring owner (the "
                              "default, byte-identical to older "
                              "servers); p2c races the two preference-"
                              "list replicas on queue depth x latency "
                              "EWMA and picks the cheaper (needs "
                              "--racks >= 2)")
    serve_p.add_argument("--shard-mode", default="inproc",
                         choices=["inproc", "process"],
                         help="inproc: all racks on one event loop "
                              "(deterministic, full semantics); process: "
                              "one backend serve process per rack behind "
                              "a relay proxy (scales across cores)")
    serve_p.add_argument("--queue-depth", type=int, default=256,
                         help="global in-flight cap before BUSY shedding")
    serve_p.add_argument("--client-rate", type=float, default=0.0,
                         help="per-client token-bucket rate in req/s "
                              "(0 disables per-client metering)")
    serve_p.add_argument("--client-burst", type=float, default=64.0,
                         help="per-client token-bucket burst size")
    serve_p.add_argument("--tenants", metavar="SPEC", default=None,
                         help="multi-tenant QoS: a tenant spec as a JSON "
                              "file path or inline JSON (enables the "
                              "weighted-fair scheduler and the DRAM "
                              "read cache; see docs/serving.md)")
    serve_p.add_argument("--pace", type=float, default=0.0,
                         help="sim-time speed vs wall-clock (1.0 = real "
                              "time; 0 = free-running, the default)")
    serve_p.add_argument("--trace-sample-rate", type=float, default=0.0,
                         help="request-tracing head-sample rate in [0,1]")
    serve_p.add_argument("--chunk-us", type=float, default=1000.0,
                         help="upper bound, in simulated microseconds, "
                              "per pump turn; the clock freezes at the "
                              "last live completion (default 1000)")
    serve_p.add_argument("--fault-schedule", metavar="PATH", default=None,
                         help="arm this fault-injection schedule JSON on "
                              "the served rack (chaos testing)")
    serve_p.add_argument("--request-timeout-us", type=float, default=None,
                         help="per-request simulated deadline; requests "
                              "stuck past it answer TIMEOUT (default 5s)")

    loadgen_p = sub.add_parser(
        "loadgen", help="drive a served rack with generated load"
    )
    loadgen_p.add_argument("--host", default="127.0.0.1")
    loadgen_p.add_argument("--port", type=int, default=7337)
    loadgen_p.add_argument("--mode", default="closed",
                           choices=["closed", "open"])
    loadgen_p.add_argument("--clients", type=int, default=32,
                           help="concurrent connections (default 32)")
    loadgen_p.add_argument("--requests", type=int, default=200,
                           help="requests per client (closed loop)")
    loadgen_p.add_argument("--pipeline", type=int, default=1,
                           help="outstanding requests per connection "
                                "(closed loop; default 1)")
    loadgen_p.add_argument("--duration", type=float, default=0.0,
                           help="run for this many seconds instead "
                                "(required for open loop)")
    loadgen_p.add_argument("--rate", type=float, default=5000.0,
                           help="aggregate req/s target (open loop)")
    loadgen_p.add_argument("--write-ratio", type=float, default=0.3)
    loadgen_p.add_argument("--kind", default="raw", choices=["raw", "kv"],
                           help="raw vSSD read/write or kvstore get/put")
    loadgen_p.add_argument("--pairs", type=int, default=2,
                           help="pair indices to target (match the server)")
    loadgen_p.add_argument("--keyspace", type=int, default=1024)
    loadgen_p.add_argument("--key-dist", default="uniform",
                           choices=["uniform", "zipf"],
                           help="key/pair popularity: uniform (default) "
                                "or seeded zipfian skew (rank-1 key "
                                "hottest)")
    loadgen_p.add_argument("--zipf-s", type=float, default=1.1,
                           help="zipfian skew exponent s > 0; larger "
                                "concentrates more load on the hottest "
                                "keys (default 1.1)")
    loadgen_p.add_argument("--seed", type=int, default=42)
    loadgen_p.add_argument("--retries", type=int, default=0,
                           help="re-send a request up to N times on "
                                "BUSY/TIMEOUT (default 0: fail fast)")
    loadgen_p.add_argument("--protocol", default="auto",
                           choices=["auto", "json", "bin"],
                           help="wire framing: auto negotiates via hello "
                                "and uses binary iff the server offers "
                                "it; json forces v1; bin fails if the "
                                "server cannot speak binary")
    loadgen_p.add_argument("--tenants", metavar="SPEC", default=None,
                           help="bind connections round-robin to these "
                                "tenants: comma-separated names, or the "
                                "same JSON spec (file path or inline) "
                                "the server's --tenants takes")

    fleet_p = sub.add_parser(
        "fleet", help="online fleet membership: add/drain racks, status"
    )
    fleet_p.add_argument("action", choices=["status", "add-rack",
                                            "drain-rack"])
    fleet_p.add_argument("--host", default="127.0.0.1")
    fleet_p.add_argument("--port", type=int, default=7337,
                         help="the fleet front-end (sharded serve or proxy)")
    fleet_p.add_argument("--rack", type=int, default=None,
                         help="rack index to drain (drain-rack)")
    fleet_p.add_argument("--backend-host", default="127.0.0.1",
                         help="new backend's host (proxy add-rack)")
    fleet_p.add_argument("--backend-port", type=int, default=None,
                         help="new backend's port (proxy add-rack: start "
                              "the serve process first, then hand its "
                              "address here)")
    fleet_p.add_argument("--batch-size", type=int, default=None,
                         help="keys per migration batch (default 64)")
    fleet_p.add_argument("--pause-ms", type=float, default=None,
                         help="pause between batches, milliseconds")
    fleet_p.add_argument("--attempts", type=int, default=None,
                         help="max migration attempts before abort")
    fleet_p.add_argument("--timeout", type=float, default=300.0,
                         help="seconds to wait for the cutover "
                              "(default 300)")
    fleet_p.add_argument("--json", action="store_true", dest="as_json",
                         help="print the raw response as JSON")

    figures_p = sub.add_parser("figures", help="reproduce paper figures")
    figures_p.add_argument("names", nargs="*",
                           help="subset of the figures `list` prints "
                                "(default all)")
    figures_p.add_argument("--quick", action="store_true")
    figures_p.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="fan independent rack runs out over N worker "
                                "processes (0 = all cores; default serial)")

    wear_p = sub.add_parser("wear", help="run the wear-leveling campaign")
    wear_p.add_argument("--servers", type=int, default=8)
    wear_p.add_argument("--ssds", type=int, default=16)
    wear_p.add_argument("--days", type=int, default=1095)
    wear_p.add_argument("--no-local", action="store_true")
    wear_p.add_argument("--no-global", action="store_true")
    wear_p.add_argument("--seed", type=int, default=3)

    compare_p = sub.add_parser(
        "compare", help="diff two saved figure runs (regression check)"
    )
    compare_p.add_argument("baseline", help="directory of baseline JSON figures")
    compare_p.add_argument("candidate", help="directory of candidate JSON figures")
    compare_p.add_argument("--tolerance", type=float, default=0.25,
                           help="allowed relative drift (default 0.25)")

    sub.add_parser("list", help="list systems, workloads, and figures")
    return parser


def _require(condition: bool, message: str) -> None:
    """Uniform usage validation: falsy condition -> exit 2 with message."""
    if not condition:
        raise UsageError(message)


def _resolve_workload(name: str):
    if name in TABLE2_WORKLOADS:
        return TABLE2_WORKLOADS[name]
    if name.startswith("ycsb-"):
        try:
            ratio = float(name.split("-", 1)[1]) / 100.0
        except ValueError:
            raise UsageError(f"bad YCSB spec {name!r}; use e.g. ycsb-50")
        return ycsb(ratio)
    raise UsageError(
        f"unknown workload {name!r}; use ycsb-<write%> or one of "
        f"{sorted(TABLE2_WORKLOADS)}"
    )


def _validate_rack_args(args) -> None:
    _require(args.requests > 0, f"--requests must be > 0, got {args.requests}")
    _require(args.rate > 0, f"--rate must be > 0, got {args.rate}")
    _require(args.servers >= 2, f"--servers must be >= 2, got {args.servers}")
    _require(args.pairs >= 1, f"--pairs must be >= 1, got {args.pairs}")


def _cmd_run(args, trace_sample_rate: float = 0.0) -> int:
    from repro.experiments.runner import run_rack_experiment

    _validate_rack_args(args)
    workload = _resolve_workload(args.workload)
    config = RackConfig(
        system=SystemType(args.system),
        num_servers=args.servers,
        num_pairs=args.pairs,
        device_profile=profile_by_name(args.device),
        network_profile=net_profile_by_name(args.network),
        seed=args.seed,
        trace_sample_rate=trace_sample_rate,
    )
    result = run_rack_experiment(
        config, workload, requests_per_pair=args.requests,
        rate_iops_per_pair=args.rate,
    )
    print(f"system={args.system} workload={workload.name} "
          f"device={args.device} network={args.network}")
    for key, value in sorted(result.summary().items()):
        print(f"  {key:24s} {value:12.1f}")
    for key, value in sorted(result.switch_counters.items()):
        print(f"  switch.{key:17s} {value:12d}")
    if trace_sample_rate > 0.0 and result.traces is not None:
        _report_traces(args, result.traces)
    return 0


def _cmd_chaos(args) -> int:
    import json as json_mod

    from repro.chaos.runner import run_chaos_experiment
    from repro.chaos.schedule import FaultSchedule

    _validate_rack_args(args)
    workload = _resolve_workload(args.workload)
    try:
        schedule = FaultSchedule.from_json_file(args.schedule)
    except ReproError as exc:
        raise UsageError(f"cannot load schedule {args.schedule!r}: {exc}")
    config = RackConfig(
        system=SystemType(args.system),
        num_servers=args.servers,
        num_pairs=args.pairs,
        device_profile=profile_by_name(args.device),
        network_profile=net_profile_by_name(args.network),
        seed=args.seed,
        fault_schedule=schedule,
    )
    _result, report = run_chaos_experiment(
        config, workload, requests_per_pair=args.requests,
        rate_iops_per_pair=args.rate,
    )
    if args.json:
        print(json_mod.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"system={args.system} workload={workload.name} "
              f"schedule={args.schedule} seed={args.seed}")
        print(report.describe())
    return 0 if report.clean else 1


def _report_traces(args, traces) -> None:
    from repro.trace.chrome import write_chrome_trace

    print()
    print(traces.attribution(percentile=args.percentile, kind="read").describe())
    writes = traces.of_kind("write")
    if writes:
        print()
        print(traces.attribution(percentile=args.percentile, kind="write").describe())
    if args.trace_out:
        events = write_chrome_trace(traces.traces, args.trace_out)
        print(f"\nwrote {events} trace events ({len(traces)} requests) "
              f"to {args.trace_out}")


def _load_qos(args):
    """Build the (QosScheduler, ReadCache) pair from ``--tenants``.

    Returns ``(None, None)`` when no spec was given -- the served stack
    then runs exactly the pre-tenancy code paths.  A malformed spec is
    a usage error: it fails at startup, not at request time.
    """
    if getattr(args, "tenants", None) is None:
        return None, None
    from repro.service.qos import (
        QosScheduler,
        TenantSpecError,
        load_tenant_specs,
    )
    from repro.service.readcache import ReadCache

    try:
        spec = load_tenant_specs(args.tenants)
    except TenantSpecError as exc:
        raise UsageError(f"bad --tenants spec: {exc}")
    qos = QosScheduler(spec.tenants, max_queue_depth=args.queue_depth)
    cache = ReadCache(spec.cache_capacity, shares=qos.cache_shares(),
                      segments=spec.cache_segments)
    return qos, cache


def _serve_until_signal(start) -> None:
    """Run one served deployment: ``stop = await start()`` brings it up
    and prints the "serving ... on host:port" line, then wait for
    SIGINT/SIGTERM and ``await stop()`` -- the graceful drain, run on
    any exit once ``start`` has returned."""
    import asyncio
    import signal

    async def main() -> None:
        stop = await start()
        try:
            stopping = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stopping.set)
                except NotImplementedError:  # pragma: no cover - non-POSIX
                    pass
            await stopping.wait()
            print("draining in-flight requests...", flush=True)
        finally:
            await stop()

    asyncio.run(main())


def _cmd_serve(args) -> int:
    from repro.service.admission import AdmissionController
    from repro.service.server import RackService

    _require(args.servers >= 2, f"--servers must be >= 2, got {args.servers}")
    _require(args.pairs >= 1, f"--pairs must be >= 1, got {args.pairs}")
    _require(args.racks >= 1, f"--racks must be >= 1, got {args.racks}")
    _require(args.shard_mode == "inproc" or args.fault_schedule is None,
             "--fault-schedule requires --shard-mode inproc (backend "
             "processes cannot share one schedule deterministically)")
    _require(args.queue_depth >= 1,
             f"--queue-depth must be >= 1, got {args.queue_depth}")
    _require(args.client_rate >= 0,
             f"--client-rate must be >= 0, got {args.client_rate}")
    _require(args.pace >= 0, f"--pace must be >= 0, got {args.pace}")
    _require(args.chunk_us > 0, f"--chunk-us must be > 0, got {args.chunk_us}")
    _require(0.0 <= args.trace_sample_rate <= 1.0,
             "--trace-sample-rate must be in [0,1], "
             f"got {args.trace_sample_rate}")
    _require(args.request_timeout_us is None or args.request_timeout_us > 0,
             "--request-timeout-us must be > 0, "
             f"got {args.request_timeout_us}")
    _require(args.read_policy == "hash" or args.racks >= 2,
             "--read-policy p2c needs --racks >= 2 (one rack has no "
             "second replica to race)")
    fault_schedule = None
    if args.fault_schedule is not None:
        from repro.chaos.schedule import FaultSchedule

        try:
            fault_schedule = FaultSchedule.from_json_file(args.fault_schedule)
        except ReproError as exc:
            raise UsageError(
                f"cannot load schedule {args.fault_schedule!r}: {exc}"
            )
    config = RackConfig(
        system=SystemType(args.system),
        num_servers=args.servers,
        num_pairs=args.pairs,
        device_profile=profile_by_name(args.device),
        network_profile=net_profile_by_name(args.network),
        seed=args.seed,
        trace_sample_rate=args.trace_sample_rate,
        fault_schedule=fault_schedule,
    )
    qos, read_cache = _load_qos(args)
    label = f"{args.system} rack"
    if args.racks > 1:
        label += f" x{args.racks}"
        if args.read_policy != "hash":
            label += f" [{args.read_policy} reads]"
    if qos is not None:
        label += " [qos]"
    if args.racks > 1 and args.shard_mode == "process":
        return _serve_proxy(args, label, qos, read_cache)

    if args.racks == 1:
        # The single-rack special case: exactly the unsharded service.
        service = RackService(
            config, host=args.host, port=args.port,
            admission=AdmissionController(
                max_queue_depth=args.queue_depth,
                client_rate_per_sec=args.client_rate,
                client_burst=args.client_burst,
            ),
            pace=args.pace,
            chunk_us=args.chunk_us,
            request_timeout_us=args.request_timeout_us,
            qos=qos,
            read_cache=read_cache,
        )
    else:
        from repro.service.router import ShardedRackService, ShardRouter

        bridge_kwargs = dict(pace=args.pace, chunk_us=args.chunk_us)
        if args.request_timeout_us is not None:
            bridge_kwargs["request_timeout_us"] = args.request_timeout_us
        router = ShardRouter.from_config(
            config, args.racks,
            read_policy=args.read_policy,
            queue_depth=args.queue_depth,
            client_rate_per_sec=args.client_rate,
            client_burst=args.client_burst,
            **bridge_kwargs,
        )
        service = ShardedRackService(router, host=args.host, port=args.port,
                                     qos=qos, read_cache=read_cache)

    async def start():
        await service.start()
        print(f"serving {label} "
              f"({args.pairs} pairs / {args.servers} servers) "
              f"on {service.host}:{service.port}", flush=True)
        return stop

    async def stop() -> None:
        await service.stop()
        stats = service.bridge.stats()
        print(f"served {stats.completed} requests "
              f"({stats.timed_out} timed out) over "
              f"{stats.sim_now_us / 1e6:.3f} simulated seconds", flush=True)

    _serve_until_signal(start)
    return 0


def _serve_proxy(args, label: str, qos, read_cache) -> int:
    """``serve --racks N --shard-mode process``: one backend serve
    process per rack behind a frame-relay proxy (scales across cores).
    Tenancy lives at the proxy front-end: the relay schedules and caches
    per tenant while the backend racks keep plain admission (a backend
    never sees ``--tenants``)."""
    from repro.service.router import (
        ShardProxy,
        launch_backends,
        shutdown_backends,
    )

    backend_args = [
        "--racks", "1",
        "--system", args.system,
        "--servers", str(args.servers),
        "--pairs", str(args.pairs),
        "--device", args.device,
        "--network", args.network,
        "--queue-depth", str(args.queue_depth),
        "--client-rate", str(args.client_rate),
        "--client-burst", str(args.client_burst),
        "--pace", str(args.pace),
        "--chunk-us", str(args.chunk_us),
        "--trace-sample-rate", str(args.trace_sample_rate),
    ]
    if args.request_timeout_us is not None:
        backend_args += ["--request-timeout-us", str(args.request_timeout_us)]

    async def start():
        procs, endpoints = await launch_backends(
            args.racks, backend_args, seed=args.seed
        )
        proxy = ShardProxy(endpoints, host=args.host, port=args.port,
                           pairs_per_rack=args.pairs,
                           read_policy=args.read_policy,
                           qos=qos, read_cache=read_cache)

        async def stop() -> None:
            try:
                await proxy.stop()
            finally:
                await shutdown_backends(procs)
            print(f"served {proxy.routed} requests "
                  f"(relayed across {args.racks} racks)", flush=True)

        try:
            await proxy.start()
        except BaseException:
            await shutdown_backends(procs)
            raise
        print(f"serving {label} "
              f"({args.pairs} pairs / {args.servers} servers, "
              f"process shards) "
              f"on {proxy.host}:{proxy.port}", flush=True)
        return stop

    _serve_until_signal(start)
    return 0


def _loadgen_tenants(source: str) -> List[str]:
    """``--tenants`` for loadgen: names, or the server's spec format.

    Inline JSON / an existing file goes through the real spec parser
    (so the same file can configure both ends); anything else is a
    comma-separated name list.
    """
    import os

    from repro.service.qos import TenantSpecError, load_tenant_specs

    if source.lstrip().startswith(("{", "[")) or os.path.exists(source):
        try:
            spec = load_tenant_specs(source)
        except TenantSpecError as exc:
            raise UsageError(f"bad --tenants spec: {exc}")
        _require(bool(spec.tenants), "--tenants spec declares no tenants")
        return list(spec.tenants)
    names = [name.strip() for name in source.split(",")]
    _require(all(names), f"--tenants has an empty name in {source!r}")
    return names


def _cmd_loadgen(args) -> int:
    import asyncio

    from repro.service.loadgen import run_loadgen

    _require(args.clients >= 1, f"--clients must be >= 1, got {args.clients}")
    _require(args.requests >= 1 or args.duration > 0,
             "need --requests >= 1 or --duration > 0")
    _require(0.0 <= args.write_ratio <= 1.0,
             f"--write-ratio must be in [0,1], got {args.write_ratio}")
    _require(args.mode != "open" or args.duration > 0,
             "open-loop mode needs --duration > 0")
    _require(args.rate > 0, f"--rate must be > 0, got {args.rate}")
    _require(args.pairs >= 1, f"--pairs must be >= 1, got {args.pairs}")
    _require(args.keyspace >= 1,
             f"--keyspace must be >= 1, got {args.keyspace}")
    _require(args.pipeline >= 1,
             f"--pipeline must be >= 1, got {args.pipeline}")
    _require(args.retries >= 0,
             f"--retries must be >= 0, got {args.retries}")
    _require(args.zipf_s > 0,
             f"--zipf-s must be > 0, got {args.zipf_s}")
    tenants = _loadgen_tenants(args.tenants) if args.tenants else None
    try:
        report = asyncio.run(run_loadgen(
            args.host, args.port,
            mode=args.mode, clients=args.clients,
            requests_per_client=args.requests, duration_s=args.duration,
            pipeline=args.pipeline,
            rate_rps=args.rate, write_ratio=args.write_ratio,
            kind=args.kind, pairs=args.pairs, keyspace=args.keyspace,
            key_dist=args.key_dist, zipf_s=args.zipf_s,
            seed=args.seed, retries=args.retries,
            wire_protocol=args.protocol,
            tenants=tenants,
        ))
    except OSError as exc:
        print(f"repro loadgen: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(report.describe())
    return 0 if report.ok > 0 and report.errors == 0 else 1


def _cmd_fleet(args) -> int:
    import asyncio
    import json as json_mod

    from repro.service.client import ClientConfig, ServiceClient, ServiceError

    _require(args.action != "drain-rack" or args.rack is not None,
             "drain-rack needs --rack")
    _require(args.timeout > 0, f"--timeout must be > 0, got {args.timeout}")
    options = {}
    if args.batch_size is not None:
        _require(args.batch_size >= 1,
                 f"--batch-size must be >= 1, got {args.batch_size}")
        options["batch_size"] = args.batch_size
    if args.pause_ms is not None:
        _require(args.pause_ms >= 0,
                 f"--pause-ms must be >= 0, got {args.pause_ms}")
        options["pause_s"] = args.pause_ms / 1000.0
    if args.attempts is not None:
        _require(args.attempts >= 1,
                 f"--attempts must be >= 1, got {args.attempts}")
        options["max_attempts"] = args.attempts

    async def _go():
        client = ServiceClient(
            args.host, args.port, "fleet-cli",
            config=ClientConfig(request_timeout_s=args.timeout),
        )
        await client.connect()
        try:
            if args.action == "status":
                return await client.fleet_status()
            if args.action == "add-rack":
                if args.backend_port is not None:
                    options["host"] = args.backend_host
                    options["port"] = args.backend_port
                return await client.fleet_add_rack(**options)
            return await client.fleet_drain_rack(args.rack, **options)
        finally:
            await client.close()

    try:
        response = asyncio.run(_go())
    except (ConnectionError, OSError) as exc:
        print(f"repro fleet: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    except asyncio.TimeoutError:
        print(f"repro fleet: {args.action} did not finish within "
              f"{args.timeout:.0f}s", file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"repro fleet: {args.action} failed: {exc}", file=sys.stderr)
        return 1
    body = {k: v for k, v in response.items()
            if k not in ("ok", "id", "v")}
    if args.as_json:
        print(json_mod.dumps(body, indent=2, sort_keys=True))
        return 0
    if args.action == "status":
        racks = body.get("racks", [])
        print(f"epoch {body.get('epoch')}  racks {racks}  "
              f"migrating {body.get('migrating')}  "
              f"phase {body.get('phase')}")
        change = body.get("change")
        if change:
            print(f"  in flight: {change.get('kind')} rack "
                  f"{change.get('rack')} attempt {change.get('attempt')}")
        counters = body.get("counters", {})
        if counters:
            moved = counters.get("keys_moved", 0)
            print(f"  lifetime: keys_moved {moved:.0f}  "
                  f"cutovers {counters.get('cutovers', 0):.0f}  "
                  f"aborts {counters.get('aborts', 0):.0f}")
        return 0
    print(f"{body.get('kind')} rack {body.get('rack')}: epoch "
          f"{body.get('epoch')}  keys_moved {body.get('keys_moved')}  "
          f"moved_fraction {body.get('moved_fraction')}  "
          f"attempts {body.get('attempts')}  racks {body.get('racks')}")
    return 0


def _cmd_wear(args) -> int:
    from repro.wear.simulate import WearSimulation

    _require(args.servers >= 1, f"--servers must be >= 1, got {args.servers}")
    _require(args.ssds >= 1, f"--ssds must be >= 1, got {args.ssds}")
    _require(args.days >= 1, f"--days must be >= 1, got {args.days}")
    sim = WearSimulation(
        num_servers=args.servers,
        ssds_per_server=args.ssds,
        enable_local=not args.no_local,
        enable_global=not args.no_global,
        seed=args.seed,
    )
    result = sim.run(days=args.days)
    print(f"{args.servers} servers x {args.ssds} SSDs over {args.days} days")
    print(f"  worst server lambda   {result.final_server_imbalance():10.2f}")
    print(f"  mean server lambda    {result.mean_final_server_imbalance():10.2f}")
    print(f"  rack wear variance    {result.final_rack_variance():10.1f}")
    print(f"  local / global swaps  {result.local_swaps:6d} / "
          f"{result.global_swaps}")
    return 0


def _cmd_list() -> int:
    from repro.experiments.figures import ALL_FIGURES

    print("systems:   " + ", ".join(s.value for s in SystemType))
    print("workloads: ycsb-<write%>, " + ", ".join(sorted(TABLE2_WORKLOADS)))
    print("devices:   " + ", ".join(sorted(DEVICE_PROFILES)))
    print("networks:  " + ", ".join(sorted(NETWORK_PROFILES)))
    print("figures:   " + ", ".join(sorted(ALL_FIGURES)))
    return 0


def _cmd_compare(args) -> int:
    from repro.experiments.regression import compare_runs
    from repro.experiments.results_io import load_figures

    _require(args.tolerance > 0,
             f"--tolerance must be > 0, got {args.tolerance}")
    try:
        baseline = load_figures(args.baseline)
        candidate = load_figures(args.candidate)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load figures: {exc}")
    report = compare_runs(baseline, candidate, tolerance=args.tolerance)
    print(report.describe())
    return 0 if report.clean else 1


def _dispatch(args) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        _require(0.0 < args.sample_rate <= 1.0,
                 f"--sample-rate must be in (0, 1], got {args.sample_rate}")
        return _cmd_run(args, trace_sample_rate=args.sample_rate)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "figures":
        from repro.experiments.figures import ALL_FIGURES
        from repro.experiments.report import run_figures

        _require(args.jobs is None or args.jobs >= 0,
                 f"--jobs must be >= 0, got {args.jobs}")
        unknown = [n for n in args.names if n not in ALL_FIGURES]
        _require(not unknown,
                 f"unknown figure(s) {unknown}; choose from "
                 f"{sorted(ALL_FIGURES)}")
        run_figures(args.names or None, quick=args.quick, jobs=args.jobs)
        return 0
    if args.command == "wear":
        return _cmd_wear(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "list":
        return _cmd_list()
    raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments and dispatch to a subcommand.

    Returns 0 on success, 1 on runtime failure, 2 on usage errors.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
