#!/usr/bin/env python3
"""Keep ``BENCH_trajectory.json``: one row of benchmark medians per change.

A change measures its parent and itself with alternating runs of the same
benchmark (``python3 -m bench run --workload W --seed S``, one seed per
pair, saved to a file per run) and appends one row::

    python tools/trajectory.py append \\
        --parent runs/fleet_mixed.parent.*.txt \\
        --change runs/fleet_mixed.change.*.txt \\
        --claim fleet_mixed:peak_rss_mb --parent-sha c3e8f42 --note "..."
    python tools/trajectory.py --check        # CI: every row is well formed

A row holds both commits' shas, the host the runs were taken on, and for
each workload x end-to-end metric the median and quartiles of each side
with the change's median over the parent's.  With ``--claim`` it also
holds the claim's verdict by the rule ``BENCHMARK.json`` sets for one: the
change wins at least nine of every ten pairs (a pair is the two runs of
one seed; ties win for neither side) and the medians differ by more than
the distance between the parent's quartiles, over at least ten pairs.
A row lands in the commit it measures, which cannot name its own sha: its
``change`` is ``"self"`` (``git log -- BENCH_trajectory.json`` finds the
commit), and its ``parent`` is the ``--parent-sha`` given.  ``--check``
recomputes every derived field from the quartiles and pair outcomes it
records.

Standard library only.
"""

import argparse
import json
import math
import re
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: A claim holds when the change wins this share of its pairs ...
WIN_SHARE = 0.9
#: ... and has at least this many of them.
MIN_PAIRS = 10
#: The host record's fields a row keeps, read off the runs' ``# host``
#: lines (``calib_ms`` is the median over every run).
HOST_FIELDS = ("nproc", "python", "platform")
_SHA = re.compile(r"^[0-9a-f]{7,40}$")


class TrajectoryError(Exception):
    """A run file or a row that does not fit the format."""


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1), interpolated between ranks."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: Sequence[float]) -> Dict[str, float]:
    return {"q1": quantile(values, 0.25), "median": quantile(values, 0.5),
            "q3": quantile(values, 0.75)}


def end_to_end() -> Dict[str, Dict[str, Any]]:
    """``BENCHMARK.json``'s end-to-end metrics by name."""
    declared = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in declared["end_to_end"]}


# ------------------------------------------------------------------ runs


def read_run(path: Path) -> List[Dict[str, Any]]:
    """The workloads one saved ``bench run`` printed: for each, its name,
    seed, host record and result line."""
    out: List[Dict[str, Any]] = []
    current: Optional[Dict[str, Any]] = None
    for line in path.read_text().splitlines():
        if line.startswith("# workload "):
            current = {"workload": line.split()[2]}
        elif line.startswith("# host ") and current is not None:
            current["host"] = json.loads(line[len("# host "):])
        elif line.startswith("{") and current is not None:
            result = json.loads(line)
            if not result.get("correct"):
                raise TrajectoryError(f"{path}: a run with a wrong answer")
            current["result"] = result
            out.append(current)
            current = None
    if not out:
        raise TrajectoryError(f"{path}: no result line")
    for run in out:
        if "host" not in run or "seed" not in run["host"]:
            raise TrajectoryError(f"{path}: {run['workload']} has no host "
                                  f"line with its seed")
    return out


def _by_workload(paths: Iterable[Path]) -> Dict[str, Dict[int, Dict]]:
    """Runs keyed by workload, then seed."""
    out: Dict[str, Dict[int, Dict]] = {}
    for path in paths:
        for run in read_run(Path(path)):
            seeds = out.setdefault(run["workload"], {})
            seed = int(run["host"]["seed"])
            if seed in seeds:
                raise TrajectoryError(
                    f"{path}: a second {run['workload']} run of seed {seed}")
            seeds[seed] = run
    return out


def _verdict(pairs: Sequence[Tuple[float, float]], better: str,
             parent_iqr: float) -> Dict[str, Any]:
    """The claim verdict from (parent, change) values of each pair."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gain = sign * (statistics.median(c for _, c in pairs)
                   - statistics.median(p for p, _ in pairs))
    return {"wins": wins, "losses": losses,
            "median_gain": gain, "parent_iqr": parent_iqr,
            "met": (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                    and gain > parent_iqr)}


def build_row(parent_paths: Sequence[Path], change_paths: Sequence[Path],
              claim: Optional[str], parent_sha: str,
              note: str) -> Dict[str, Any]:
    metrics = end_to_end()
    sides = {"parent": _by_workload(parent_paths),
             "change": _by_workload(change_paths)}
    if sorted(sides["parent"]) != sorted(sides["change"]):
        raise TrajectoryError("parent and change ran different workloads")
    all_runs = [run for side in sides.values() for seeds in side.values()
                for run in seeds.values()]
    host = {field: all_runs[0]["host"].get(field) for field in HOST_FIELDS}
    host["calib_ms"] = statistics.median(
        run["host"]["host.calib_ms"] for run in all_runs)
    workloads: Dict[str, Any] = {}
    for workload in sorted(sides["parent"]):
        runs = {side: sides[side][workload] for side in sides}
        seeds = sorted(set(runs["parent"]) & set(runs["change"]))
        body: Dict[str, Any] = {
            "seeds": seeds,
            "runs": {side: len(runs[side]) for side in runs},
            "attempted": {side: sum(r["result"]["attempted"]
                                    for r in runs[side].values())
                          for side in runs},
            "failed": {side: sum(r["result"]["failed"]
                                 for r in runs[side].values())
                       for side in runs},
            "metrics": {},
        }
        for name in metrics:
            values = {side: [r["result"]["metrics"][name]["value"]
                             for r in runs[side].values()] for side in runs}
            entry = {side: spread(values[side]) for side in runs}
            entry["ratio"] = (entry["change"]["median"]
                              / entry["parent"]["median"])
            body["metrics"][name] = entry
        workloads[workload] = body
    row: Dict[str, Any] = {"parent": parent_sha, "change": "self",
                           "host": host, "workloads": workloads}
    if claim:
        workload, _, name = claim.partition(":")
        if workload not in workloads or name not in metrics:
            raise TrajectoryError(f"claim {claim!r}: no such workload:metric")
        seeds = workloads[workload]["seeds"]
        pairs = [[sides[side][workload][seed]["result"]["metrics"][name]
                  ["value"] for side in ("parent", "change")]
                 for seed in seeds]
        parent = workloads[workload]["metrics"][name]["parent"]
        row["claim"] = dict(
            {"workload": workload, "metric": name,
             "better": metrics[name]["better"], "pairs": pairs},
            **_verdict(pairs, metrics[name]["better"],
                       parent["q3"] - parent["q1"]))
    if note:
        row["note"] = note
    return row


# ----------------------------------------------------------------- check


def check_row(row: Dict[str, Any], index: int) -> List[str]:
    """What is wrong with one row (nothing: an empty list)."""
    where = f"row {index}"
    problems = []
    if not _SHA.match(str(row.get("parent", ""))):
        problems.append(f"{where}: parent is not a sha")
    if row.get("change") != "self" and not _SHA.match(
            str(row.get("change", ""))):
        problems.append(f"{where}: change is neither a sha nor 'self'")
    elif row.get("change") == row.get("parent"):
        problems.append(f"{where}: change is its own parent")
    host = row.get("host", {})
    for field in HOST_FIELDS + ("calib_ms",):
        if field not in host:
            problems.append(f"{where}: host record lacks {field}")
    metrics = end_to_end()
    workloads = row.get("workloads") or {}
    if not workloads:
        problems.append(f"{where}: no workloads")
    for workload, body in workloads.items():
        for side in ("parent", "change"):
            if body["runs"][side] < 1 or body["failed"][side] < 0:
                problems.append(f"{where}: {workload} {side} run counts")
        if sorted(body["metrics"]) != sorted(metrics):
            problems.append(f"{where}: {workload} does not hold every "
                            f"end-to-end metric")
            continue
        for name, entry in body["metrics"].items():
            for side in ("parent", "change"):
                s = entry[side]
                if not all(math.isfinite(s[k]) for k in s) or not (
                        s["q1"] <= s["median"] <= s["q3"]):
                    problems.append(f"{where}: {workload} {name} {side} "
                                    f"quartiles out of order")
            ratio = entry["change"]["median"] / entry["parent"]["median"]
            if not math.isclose(entry["ratio"], ratio, rel_tol=1e-9):
                problems.append(f"{where}: {workload} {name} ratio")
    claim = row.get("claim")
    if claim is not None:
        body = workloads.get(claim["workload"], {})
        entry = body.get("metrics", {}).get(claim["metric"])
        if entry is None:
            problems.append(f"{where}: claim names no recorded metric")
        elif claim["better"] != metrics[claim["metric"]]["better"]:
            problems.append(f"{where}: claim direction")
        elif len(claim["pairs"]) != len(body["seeds"]):
            problems.append(f"{where}: claim pairs are not one a seed")
        else:
            parent = entry["parent"]
            again = _verdict(claim["pairs"], claim["better"],
                             parent["q3"] - parent["q1"])
            for key, value in again.items():
                if not (value == claim[key] or (
                        isinstance(value, float)
                        and math.isclose(value, claim[key], rel_tol=1e-9))):
                    problems.append(f"{where}: claim {key} is {claim[key]}, "
                                    f"its pairs say {value}")
    return problems


def read_rows(path: Path) -> List[Dict[str, Any]]:
    if not path.exists():
        return []
    body = json.loads(path.read_text())
    if not isinstance(body, dict) or not isinstance(body.get("rows"), list):
        raise TrajectoryError(f"{path}: expected an object with a rows list")
    return body["rows"]


def check(path: Path) -> List[str]:
    rows = read_rows(path)
    if not rows:
        return [f"{path}: no rows"]
    problems = []
    for index, row in enumerate(rows):
        try:
            problems.extend(check_row(row, index))
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            problems.append(f"row {index}: malformed ({exc!r})")
    return problems


# ------------------------------------------------------------------ main


def describe(row: Dict[str, Any]) -> str:
    """The row as a table: each workload x metric, parent | change."""
    lines = [f"{row['parent']} -> {row['change']}  host {row['host']}"]
    for workload, body in row["workloads"].items():
        lines.append(f"{workload} ({len(body['seeds'])} pairs, failed "
                     f"{body['failed']['parent']}/{body['failed']['change']})")
        for name, entry in body["metrics"].items():
            p, c = entry["parent"], entry["change"]
            lines.append(
                f"  {name:20s} {p['median']:12.4f} [{p['q1']:.4f}, "
                f"{p['q3']:.4f}]  ->  {c['median']:12.4f} [{c['q1']:.4f}, "
                f"{c['q3']:.4f}]  x{entry['ratio']:.3f}")
    claim = row.get("claim")
    if claim:
        lines.append(
            f"claim {claim['workload']}:{claim['metric']}: "
            f"{claim['wins']}/{len(claim['pairs'])} pairs won, median gain "
            f"{claim['median_gain']:.4f} vs parent IQR "
            f"{claim['parent_iqr']:.4f} -> {'met' if claim['met'] else 'NOT met'}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--file", type=Path, default=TRAJECTORY,
                        help="the trajectory file (default: the repo's)")
    parser.add_argument("--check", action="store_true",
                        help="validate every row; exit 1 on a problem")
    commands = parser.add_subparsers(dest="command")
    append = commands.add_parser("append", help="append one row")
    append.add_argument("--parent", nargs="+", type=Path, required=True,
                        help="saved bench run outputs of the parent")
    append.add_argument("--change", nargs="+", type=Path, required=True,
                        help="saved bench run outputs of the change")
    append.add_argument("--claim", default=None,
                        help="WORKLOAD:METRIC the change claims a gain on")
    append.add_argument("--parent-sha", required=True,
                        help="the sha of the parent commit")
    append.add_argument("--note", default="")
    args = parser.parse_args(argv)
    if args.command == "append":
        try:
            row = build_row(args.parent, args.change, args.claim,
                            args.parent_sha, args.note)
            rows = read_rows(args.file)
        except TrajectoryError as exc:
            print(f"trajectory: {exc}", file=sys.stderr)
            return 1
        rows.append(row)
        args.file.write_text(json.dumps({"rows": rows}, indent=1) + "\n")
        print(describe(row))
    if args.check:
        try:
            problems = check(args.file)
        except (TrajectoryError, ValueError) as exc:
            problems = [str(exc)]
        for problem in problems:
            print(f"trajectory: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"trajectory: {len(read_rows(args.file))} row(s) ok")
    elif args.command is None:
        parser.print_help()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
