"""One runner per figure of the paper's evaluation (§4).

Every ``figN_*`` function sweeps the relevant parameter space, runs the
simulated rack, and returns a :class:`FigureResult` whose rows mirror the
series the paper plots.  Absolute values come from our simulated devices
and network, so EXPERIMENTS.md compares *shapes* (who wins, by what
factor) rather than microseconds.

Runs are memoized per parameter set within the process, so figures that
share a sweep (9/10/11/12 all read the same YCSB runs) pay for it once.

Every figure runner *declares* its full point list up front and executes
it through the active :class:`~repro.experiments.parallel.ParallelRunner`
(see ``--jobs``), so independent rack simulations fan out across worker
processes while row assembly stays serial and deterministic.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.config import SystemType
from repro.experiments.parallel import RunSpec, get_runner, shared_cache
from repro.experiments.runner import RackResult
from repro.flash.timing import profile_by_name
from repro.net.latency import profile_by_name as net_profile_by_name
from repro.wear.simulate import WearSimulation
from repro.workloads.spec import TABLE2_WORKLOADS, WorkloadSpec, ycsb


@dataclass
class FigureResult:
    """A reproduced figure: labelled rows of measured values."""

    figure: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def to_table(self) -> str:
        """Render as an aligned text table (what EXPERIMENTS.md records)."""
        widths = {
            col: max(
                len(col),
                max((len(_fmt(row.get(col))) for row in self.rows), default=0),
            )
            for col in self.columns
        }
        header = "  ".join(col.ljust(widths[col]) for col in self.columns)
        sep = "  ".join("-" * widths[col] for col in self.columns)
        lines = [f"{self.figure}: {self.title}", header, sep]
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(col)).ljust(widths[col]) for col in self.columns)
            )
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


#: Labels used in tables for each system.
_LABEL = {
    SystemType.VDC: "VDC",
    SystemType.RACKBLOX_SOFTWARE: "RackBlox (Software)",
    SystemType.RACKBLOX: "RackBlox",
    SystemType.RACKBLOX_COORD_IO: "RackBlox-Coord I/O",
}

MAIN_SYSTEMS = (SystemType.VDC, SystemType.RACKBLOX_SOFTWARE, SystemType.RACKBLOX)
BREAKDOWN_SYSTEMS = (
    SystemType.VDC,
    SystemType.RACKBLOX_COORD_IO,
    SystemType.RACKBLOX_SOFTWARE,
    SystemType.RACKBLOX,
)

DEFAULT_WRITE_RATIOS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

#: The shared, bounded run cache (kept under its historical name for
#: callers and tests that reach in).
_run_cache = shared_cache


def clear_cache() -> None:
    """Drop memoized runs (tests use this to force fresh racks)."""
    shared_cache.clear()


def _spec(
    system: SystemType,
    workload: WorkloadSpec,
    requests: int,
    rate: float,
    seed: int,
    **config_overrides,
) -> RunSpec:
    return RunSpec.create(system, workload, requests, rate, seed, **config_overrides)


def _run_all(specs: Sequence[RunSpec]) -> Dict[RunSpec, RackResult]:
    """Execute a figure's declared point list through the active runner."""
    results = get_runner().run_specs(list(specs))
    return dict(zip(specs, results))


def _safe(recorder, method: str) -> Optional[float]:
    if recorder.count == 0:
        return None
    return getattr(recorder, method)()


# --------------------------------------------------------------- Figs 9-12


def _ycsb_sweep_rows(
    metric_fn,
    columns_suffix: str,
    write_ratios: Sequence[float],
    systems: Sequence[SystemType],
    requests: int,
    rate: float,
    seed: int,
) -> List[Dict[str, object]]:
    results = _run_all([
        _spec(system, ycsb(ratio), requests, rate, seed)
        for ratio in write_ratios
        for system in systems
    ])
    rows = []
    for ratio in write_ratios:
        row: Dict[str, object] = {"write_ratio": f"{int(ratio * 100)}%"}
        for system in systems:
            result = results[_spec(system, ycsb(ratio), requests, rate, seed)]
            read_val, write_val = metric_fn(result)
            row[f"{_LABEL[system]} read {columns_suffix}"] = read_val
            row[f"{_LABEL[system]} write {columns_suffix}"] = write_val
        rows.append(row)
    return rows


def _sweep_figure(
    figure: str,
    title: str,
    metric_fn,
    suffix: str,
    write_ratios: Sequence[float],
    systems: Sequence[SystemType],
    requests: int,
    rate: float,
    seed: int,
    notes: str = "",
) -> FigureResult:
    rows = _ycsb_sweep_rows(metric_fn, suffix, write_ratios, systems, requests, rate, seed)
    columns = ["write_ratio"]
    for system in systems:
        columns.append(f"{_LABEL[system]} read {suffix}")
        columns.append(f"{_LABEL[system]} write {suffix}")
    return FigureResult(figure=figure, title=title, columns=columns, rows=rows,
                        notes=notes)


def fig9_p999_latency(
    write_ratios: Sequence[float] = DEFAULT_WRITE_RATIOS,
    requests: int = 3000,
    rate: float = 1500.0,
    seed: int = 42,
) -> FigureResult:
    """Figure 9: P99.9 end-to-end latency, YCSB zipfian, write-ratio sweep."""
    return _sweep_figure(
        "Figure 9", "P99.9 end-to-end latency (us), YCSB zipfian",
        lambda r: (_safe(r.metrics.read_total, "p999"),
                   _safe(r.metrics.write_total, "p999")),
        "P99.9", write_ratios, MAIN_SYSTEMS, requests, rate, seed,
        notes="paper: RackBlox improves read P99.9 up to 4.4x over VDC, "
              "write up to 1.4x; RackBlox (Software) sits in between",
    )


def fig10_p99_latency(
    write_ratios: Sequence[float] = DEFAULT_WRITE_RATIOS,
    requests: int = 3000,
    rate: float = 1500.0,
    seed: int = 42,
) -> FigureResult:
    """Figure 10: P99 end-to-end latency for the same sweep."""
    return _sweep_figure(
        "Figure 10", "P99 end-to-end latency (us), YCSB zipfian",
        lambda r: (_safe(r.metrics.read_total, "p99"),
                   _safe(r.metrics.write_total, "p99")),
        "P99", write_ratios, MAIN_SYSTEMS, requests, rate, seed,
        notes="paper: read up to 2.1x, write up to 1.3x",
    )


def fig11_avg_latency(
    write_ratios: Sequence[float] = DEFAULT_WRITE_RATIOS,
    requests: int = 3000,
    rate: float = 1500.0,
    seed: int = 42,
) -> FigureResult:
    """Figure 11: average latency -- RackBlox must not hurt the mean."""
    return _sweep_figure(
        "Figure 11", "Average end-to-end latency (us), YCSB zipfian",
        lambda r: (_safe(r.metrics.read_total, "mean"),
                   _safe(r.metrics.write_total, "mean")),
        "avg", write_ratios, MAIN_SYSTEMS, requests, rate, seed,
        notes="paper: averages rise with write ratio; RackBlox never worse",
    )


def fig12_throughput(
    write_ratios: Sequence[float] = DEFAULT_WRITE_RATIOS,
    requests: int = 3000,
    rate: float = 1500.0,
    seed: int = 42,
) -> FigureResult:
    """Figure 12: throughput parity across systems."""
    results = _run_all([
        _spec(system, ycsb(ratio), requests, rate, seed)
        for ratio in write_ratios
        for system in MAIN_SYSTEMS
    ])
    rows = []
    for ratio in write_ratios:
        row: Dict[str, object] = {"write_ratio": f"{int(ratio * 100)}%"}
        for system in MAIN_SYSTEMS:
            result = results[_spec(system, ycsb(ratio), requests, rate, seed)]
            row[f"{_LABEL[system]} kIOPS"] = result.metrics.total_kiops()
        rows.append(row)
    columns = ["write_ratio"] + [f"{_LABEL[s]} kIOPS" for s in MAIN_SYSTEMS]
    return FigureResult(
        "Figure 12", "Average throughput (kIOPS), YCSB zipfian", columns, rows,
        notes="paper: RackBlox does not affect throughput (tail-focused)",
    )


# -------------------------------------------------------------- Figs 13-14


def fig13_workloads_tail(
    requests: int = 3000,
    rate: float = 1500.0,
    seed: int = 42,
    percentile: float = 99.9,
) -> FigureResult:
    """Figure 13: tail latency across the BenchBase workloads (Table 2)."""
    ordered = sorted(TABLE2_WORKLOADS.items(), key=lambda kv: kv[1].write_ratio)
    results = _run_all([
        _spec(system, spec, requests, rate, seed)
        for _name, spec in ordered
        for system in MAIN_SYSTEMS
    ])
    rows = []
    for name, spec in ordered:
        row: Dict[str, object] = {
            "workload": name, "write%": f"{spec.write_ratio * 100:.1f}",
        }
        for system in MAIN_SYSTEMS:
            result = results[_spec(system, spec, requests, rate, seed)]
            row[f"{_LABEL[system]} read P{percentile}"] = (
                result.metrics.read_total.p(percentile)
                if result.metrics.read_total.count else None
            )
            row[f"{_LABEL[system]} write P{percentile}"] = (
                result.metrics.write_total.p(percentile)
                if result.metrics.write_total.count else None
            )
        rows.append(row)
    columns = ["workload", "write%"]
    for system in MAIN_SYSTEMS:
        columns.append(f"{_LABEL[system]} read P{percentile}")
        columns.append(f"{_LABEL[system]} write P{percentile}")
    return FigureResult(
        "Figure 13", f"P{percentile} latency (us) across BenchBase workloads",
        columns, rows,
        notes="paper: up to 7.9x read improvement; write-heavy workloads gain "
              "most; AuctionMark gains less than its write ratio suggests "
              "(phased write bursts)",
    )


def fig14_workloads_tput(
    requests: int = 3000, rate: float = 1500.0, seed: int = 42
) -> FigureResult:
    """Figure 14: throughput across the BenchBase workloads."""
    ordered = sorted(TABLE2_WORKLOADS.items(), key=lambda kv: kv[1].write_ratio)
    results = _run_all([
        _spec(system, spec, requests, rate, seed)
        for _name, spec in ordered
        for system in MAIN_SYSTEMS
    ])
    rows = []
    for name, spec in ordered:
        row: Dict[str, object] = {"workload": name}
        for system in MAIN_SYSTEMS:
            result = results[_spec(system, spec, requests, rate, seed)]
            row[f"{_LABEL[system]} kIOPS"] = result.metrics.total_kiops()
        rows.append(row)
    columns = ["workload"] + [f"{_LABEL[s]} kIOPS" for s in MAIN_SYSTEMS]
    return FigureResult(
        "Figure 14", "Throughput (kIOPS) across BenchBase workloads", columns,
        rows, notes="paper: parity across systems",
    )


# ------------------------------------------------------------------ Fig 15


def fig15_breakdown(
    write_ratios: Sequence[float] = (0.2, 0.5, 0.8),
    requests: int = 3000,
    rate: float = 1500.0,
    seed: int = 42,
) -> FigureResult:
    """Figure 15: storage vs end-to-end P99.9, with the Coord-I/O ablation."""
    results = _run_all([
        _spec(system, ycsb(ratio), requests, rate, seed)
        for ratio in write_ratios
        for system in BREAKDOWN_SYSTEMS
    ])
    rows = []
    for ratio in write_ratios:
        for system in BREAKDOWN_SYSTEMS:
            result = results[_spec(system, ycsb(ratio), requests, rate, seed)]
            m = result.metrics
            rows.append({
                "write_ratio": f"{int(ratio * 100)}%",
                "system": _LABEL[system],
                "read storage P99.9": _safe(m.read_storage, "p999"),
                "read total P99.9": _safe(m.read_total, "p999"),
                "read total P99": _safe(m.read_total, "p99"),
                "write storage P99.9": _safe(m.write_storage, "p999"),
                "write total P99.9": _safe(m.write_total, "p999"),
            })
    return FigureResult(
        "Figure 15", "P99.9 latency breakdown (us): storage vs end-to-end",
        ["write_ratio", "system", "read storage P99.9", "read total P99.9",
         "read total P99", "write storage P99.9", "write total P99.9"],
        rows,
        notes="paper: Coord I/O alone gives 1.1-1.23x reads; coordinated GC "
              "adds up to 4.3x more",
    )


# ------------------------------------------------------------------ Fig 16


def fig16_read_cdf(
    write_ratio: float = 0.5,
    requests: int = 3000,
    rate: float = 1500.0,
    seed: int = 42,
    points: int = 12,
) -> FigureResult:
    """Figure 16: cumulative distribution of read latency."""
    quantiles = [50.0, 90.0, 95.0, 99.0, 99.5, 99.9][: max(2, points)]
    results = _run_all([
        _spec(system, ycsb(write_ratio), requests, rate, seed)
        for system in BREAKDOWN_SYSTEMS
    ])
    rows = []
    for q in quantiles:
        row: Dict[str, object] = {"percentile": f"P{q}"}
        for system in BREAKDOWN_SYSTEMS:
            result = results[_spec(system, ycsb(write_ratio), requests, rate, seed)]
            row[_LABEL[system]] = result.metrics.read_total.p(q)
        rows.append(row)
    return FigureResult(
        "Figure 16", f"Read latency CDF (us), YCSB {int(write_ratio*100)}% writes",
        ["percentile"] + [_LABEL[s] for s in BREAKDOWN_SYSTEMS], rows,
        notes="paper: RackBlox's curve dominates; the GC knee above P99 is "
              "removed by redirection",
    )


# ------------------------------------------------------------------ Fig 17


def fig17_storage_schedulers(
    schedulers: Sequence[str] = ("fifo", "deadline", "kyber"),
    write_ratio: float = 0.5,
    requests: int = 3000,
    rate: float = 1500.0,
    seed: int = 42,
) -> FigureResult:
    """Figure 17: coordinated I/O scheduling under each storage scheduler."""
    results = _run_all([
        _spec(system, ycsb(write_ratio), requests, rate, seed,
              storage_scheduler=scheduler)
        for scheduler in schedulers
        for system in (SystemType.VDC, SystemType.RACKBLOX)
    ])
    rows = []
    for scheduler in schedulers:
        base = results[_spec(
            SystemType.VDC, ycsb(write_ratio), requests, rate, seed,
            storage_scheduler=scheduler,
        )]
        coordinated = results[_spec(
            SystemType.RACKBLOX, ycsb(write_ratio), requests, rate, seed,
            storage_scheduler=scheduler,
        )]
        base_p999 = base.metrics.read_total.p999()
        coord_p999 = coordinated.metrics.read_total.p999()
        rows.append({
            "scheduler": scheduler,
            "baseline read P99.9": base_p999,
            "RackBlox read P99.9": coord_p999,
            "speedup": base_p999 / coord_p999,
        })
    return FigureResult(
        "Figure 17", "P99.9 read latency (us) per storage I/O scheduler",
        ["scheduler", "baseline read P99.9", "RackBlox read P99.9", "speedup"],
        rows,
        notes="paper: coordination always wins; FIFO gains most (1.5x), "
              "Kyber 1.24x, Deadline 1.36x",
    )


# ------------------------------------------------------------------ Fig 18


def fig18_network_schedulers(
    policies: Sequence[str] = ("tb", "fq", "priority"),
    write_ratio: float = 0.5,
    requests: int = 3000,
    rate: float = 1500.0,
    seed: int = 42,
) -> FigureResult:
    """Figure 18: coordinated I/O under each network scheduling policy."""
    def _overrides(policy: str) -> Dict[str, object]:
        # Constrain the egress line rate so the policy actually binds (the
        # paper's setup has four clients competing for one server); the
        # Priority run injects the periodic high-priority traffic of
        # §4.5.2.
        overrides = dict(
            network_scheduler=policy,
            egress_rate_kb_per_us=0.05,
            background_traffic=(policy == "priority"),
        )
        if policy == "tb":
            # Low enough to shape bursts, high enough to carry the load.
            overrides["tb_flow_rate_kb_per_sec"] = 6_000.0
        return overrides

    results = _run_all([
        _spec(system, ycsb(write_ratio), requests, rate, seed,
              **_overrides(policy))
        for policy in policies
        for system in (SystemType.VDC, SystemType.RACKBLOX)
    ])
    rows = []
    for policy in policies:
        overrides = _overrides(policy)
        base = results[_spec(
            SystemType.VDC, ycsb(write_ratio), requests, rate, seed, **overrides
        )]
        coordinated = results[_spec(
            SystemType.RACKBLOX, ycsb(write_ratio), requests, rate, seed,
            **overrides,
        )]
        base_p999 = base.metrics.read_total.p999()
        coord_p999 = coordinated.metrics.read_total.p999()
        rows.append({
            "policy": policy,
            "baseline read P99.9": base_p999,
            "RackBlox read P99.9": coord_p999,
            "speedup": base_p999 / coord_p999,
        })
    return FigureResult(
        "Figure 18", "P99.9 read latency (us) per network scheduler",
        ["policy", "baseline read P99.9", "RackBlox read P99.9", "speedup"],
        rows,
        notes="paper: benefits under every policy; FQ 1.21x and Priority "
              "1.15x average gains",
    )


# -------------------------------------------------------------- Figs 19-20


def fig19_device_network_matrix(
    devices: Sequence[str] = ("optane", "intel-dc", "pssd"),
    networks: Sequence[str] = ("fast", "medium", "slow"),
    write_ratio: float = 0.5,
    requests: int = 2000,
    rate: float = 1500.0,
    seed: int = 42,
) -> FigureResult:
    """Figure 19: read latency distribution across SSD x network."""
    def _pairing(device: str, network: str) -> Dict[str, object]:
        return dict(
            device_profile=profile_by_name(device),
            network_profile=net_profile_by_name(network),
        )

    results = _run_all([
        _spec(SystemType.RACKBLOX, ycsb(write_ratio), requests, rate, seed,
              **_pairing(device, network))
        for device in devices
        for network in networks
    ])
    rows = []
    for device in devices:
        for network in networks:
            result = results[_spec(
                SystemType.RACKBLOX, ycsb(write_ratio), requests, rate, seed,
                **_pairing(device, network),
            )]
            reads = result.metrics.read_total
            rows.append({
                "ssd": device, "network": network,
                "P50": reads.p50(), "P99": reads.p99(), "P99.9": reads.p999(),
            })
    return FigureResult(
        "Figure 19", "RackBlox read latency (us) across SSD x network (YCSB-A)",
        ["ssd", "network", "P50", "P99", "P99.9"], rows,
        notes="paper: upgrading only the slower side of the pair moves the "
              "distribution; matched speeds benefit most",
    )


def fig20_improvement_matrix(
    devices: Sequence[str] = ("optane", "intel-dc", "pssd"),
    networks: Sequence[str] = ("fast", "medium", "slow"),
    write_ratios: Sequence[float] = (0.5,),
    requests: int = 2000,
    rate: float = 1500.0,
    seed: int = 42,
) -> FigureResult:
    """Figure 20: VDC -> RackBlox P99.9 read improvement per pairing."""
    def _pairing(device: str, network: str) -> Dict[str, object]:
        return dict(
            device_profile=profile_by_name(device),
            network_profile=net_profile_by_name(network),
        )

    results = _run_all([
        _spec(system, ycsb(ratio), requests, rate, seed,
              **_pairing(device, network))
        for device in devices
        for network in networks
        for ratio in write_ratios
        for system in (SystemType.VDC, SystemType.RACKBLOX)
    ])
    rows = []
    for device in devices:
        for network in networks:
            overrides = _pairing(device, network)
            improvements = []
            for ratio in write_ratios:
                vdc = results[_spec(
                    SystemType.VDC, ycsb(ratio), requests, rate, seed, **overrides
                )]
                rb = results[_spec(
                    SystemType.RACKBLOX, ycsb(ratio), requests, rate, seed,
                    **overrides,
                )]
                improvements.append(
                    vdc.metrics.read_total.p999() / rb.metrics.read_total.p999()
                )
            rows.append({
                "ssd": device, "network": network,
                "P99.9 improvement": sum(improvements) / len(improvements),
            })
    return FigureResult(
        "Figure 20", "P99.9 read improvement of RackBlox over VDC per pairing",
        ["ssd", "network", "P99.9 improvement"], rows,
        notes="paper: the diagonal (matched SSD/network speeds) dominates",
    )


# ------------------------------------------------------------------ Fig 21


def fig21_isolation(
    write_ratio: float = 0.5,
    requests: int = 3000,
    rate: float = 1500.0,
    seed: int = 42,
) -> FigureResult:
    """Figure 21: software- vs hardware-isolated vSSDs."""
    results = _run_all([
        _spec(system, ycsb(write_ratio), requests, rate, seed, sw_isolated=sw)
        for sw in (False, True)
        for system in (SystemType.VDC, SystemType.RACKBLOX)
    ])
    rows = []
    for label, sw in (("HW-isolated", False), ("SW-isolated", True)):
        vdc = results[_spec(
            SystemType.VDC, ycsb(write_ratio), requests, rate, seed,
            sw_isolated=sw,
        )]
        rb = results[_spec(
            SystemType.RACKBLOX, ycsb(write_ratio), requests, rate, seed,
            sw_isolated=sw,
        )]
        vdc_p999 = vdc.metrics.read_total.p999()
        rb_p999 = rb.metrics.read_total.p999()
        rows.append({
            "isolation": label,
            "VDC read P99.9": vdc_p999,
            "RackBlox read P99.9": rb_p999,
            "speedup": vdc_p999 / rb_p999,
        })
    return FigureResult(
        "Figure 21", "Read tail latency (us) with different vSSD isolation",
        ["isolation", "VDC read P99.9", "RackBlox read P99.9", "speedup"], rows,
        notes="paper: 1.47x (SW) and 1.51x (HW) -- RackBlox helps both, "
              "hardware isolation marginally more",
    )


# -------------------------------------------------------------- Figs 22-23


def _wear_point(params: Dict[str, object]):
    """Top-level worker: one wear-campaign configuration (picklable)."""
    kwargs = dict(params)
    days = kwargs.pop("days")
    sample_every = kwargs.pop("sample_every")
    return WearSimulation(**kwargs).run(days=days, sample_every=sample_every)


def fig22_local_wear(
    num_servers: int = 8,
    ssds_per_server: int = 16,
    days: int = 1095,
    seed: int = 3,
) -> FigureResult:
    """Figure 22: per-server wear balance, local balancer vs No Swap."""
    kwargs = dict(
        num_servers=num_servers, ssds_per_server=ssds_per_server, seed=seed,
        replacement_rate_per_year=0.0, days=days, sample_every=30,
    )
    noswap, balanced = get_runner().map(_wear_point, [
        dict(enable_local=False, enable_global=False, **kwargs),
        dict(enable_local=True, enable_global=False, **kwargs),
    ])
    rows = [
        {
            "policy": "No Swap",
            "mean server lambda": noswap.mean_final_server_imbalance(),
            "worst server lambda": noswap.final_server_imbalance(),
            "swaps": noswap.local_swaps,
        },
        {
            "policy": "RackBlox (local)",
            "mean server lambda": balanced.mean_final_server_imbalance(),
            "worst server lambda": balanced.final_server_imbalance(),
            "swaps": balanced.local_swaps,
        },
    ]
    return FigureResult(
        "Figure 22",
        f"Per-server wear imbalance after {days} days "
        f"({num_servers} servers x {ssds_per_server} SSDs)",
        ["policy", "mean server lambda", "worst server lambda", "swaps"], rows,
        notes="paper: No Swap shows significant imbalance; periodic swapping "
              "keeps servers near-optimal",
    )


def fig23_rack_wear(
    num_servers: int = 32,
    ssds_per_server: int = 16,
    days: int = 1095,
    seed: int = 3,
) -> FigureResult:
    """Figure 23: rack-scale wear balance, global balancer vs No Swap."""
    kwargs = dict(
        num_servers=num_servers, ssds_per_server=ssds_per_server, seed=seed,
        replacement_rate_per_year=0.08, days=days, sample_every=30,
    )
    noswap, local_only, both = get_runner().map(_wear_point, [
        dict(enable_local=False, enable_global=False, **kwargs),
        dict(enable_local=True, enable_global=False, **kwargs),
        dict(enable_local=True, enable_global=True, **kwargs),
    ])
    rows = [
        {"policy": "No Swap", "rack wear variance": noswap.final_rack_variance(),
         "rack lambda": noswap.final_rack_imbalance(), "global swaps": 0},
        {"policy": "Local only", "rack wear variance": local_only.final_rack_variance(),
         "rack lambda": local_only.final_rack_imbalance(), "global swaps": 0},
        {"policy": "RackBlox (two-level)", "rack wear variance": both.final_rack_variance(),
         "rack lambda": both.final_rack_imbalance(),
         "global swaps": both.global_swaps},
    ]
    return FigureResult(
        "Figure 23",
        f"Rack-scale wear balance after {days} days "
        f"({num_servers} servers x {ssds_per_server} SSDs, with SSD "
        "replacement churn)",
        ["policy", "rack wear variance", "rack lambda", "global swaps"], rows,
        notes="paper: the global balancer maintains rack balance despite the "
              "relaxed 8-week cadence (lower is better)",
    )


# ------------------------------------------------------------ §3.4 predictor


def predictor_accuracy(
    networks: Sequence[str] = ("fast", "medium", "slow"),
    samples: int = 5000,
    window: int = 100,
    seed: int = 9,
) -> FigureResult:
    """§3.4's claim: the sliding-window predictor tracks return latency.

    Feeds a latency process into the predictor the way the server does
    (incoming packets) and scores predictions against the next outgoing
    sample.  The paper reports predictions within 25 us of the true value
    95% of the time, within 10% in the worst case, with mispredictions at
    congestion boundaries.
    """
    import random

    from repro.net.latency import LatencyProcess
    from repro.server.predictor import ReturnLatencyPredictor

    rows = []
    for network in networks:
        process = LatencyProcess(net_profile_by_name(network), random.Random(seed))
        predictor = ReturnLatencyPredictor(window=window)
        now = 0.0
        errors = []
        relative_errors = []
        for _ in range(samples):
            now += 200.0  # one request every 200 us
            incoming = process.sample(now)
            prediction = predictor.predict(1, "read")
            actual = process.sample(now)
            if predictor.window_fill(1, "read") >= window // 2:
                errors.append(abs(prediction - actual))
                relative_errors.append(abs(prediction - actual) / actual)
            predictor.observe(1, "read", incoming)
        errors.sort()
        relative_errors.sort()
        rows.append({
            "network": network,
            "median abs error (us)": errors[len(errors) // 2],
            "P95 abs error (us)": errors[int(len(errors) * 0.95)],
            "median rel error (%)": 100 * relative_errors[len(relative_errors) // 2],
            "samples": len(errors),
        })
    return FigureResult(
        "§3.4 predictor", "Sliding-window return-latency prediction accuracy",
        ["network", "median abs error (us)", "P95 abs error (us)",
         "median rel error (%)", "samples"],
        rows,
        notes="paper: within 25 us of the true value 95% of the time; "
              "mispredictions cluster at congestion boundaries",
    )


ALL_FIGURES = {
    "fig9": fig9_p999_latency,
    "fig10": fig10_p99_latency,
    "fig11": fig11_avg_latency,
    "fig12": fig12_throughput,
    "fig13": fig13_workloads_tail,
    "fig14": fig14_workloads_tput,
    "fig15": fig15_breakdown,
    "fig16": fig16_read_cdf,
    "fig17": fig17_storage_schedulers,
    "fig18": fig18_network_schedulers,
    "fig19": fig19_device_network_matrix,
    "fig20": fig20_improvement_matrix,
    "fig21": fig21_isolation,
    "fig22": fig22_local_wear,
    "fig23": fig23_rack_wear,
    "predictor": predictor_accuracy,
}
