"""``python -m bench run|noise`` -- see bench/README.md."""

import argparse
import os
import sys

from bench.workloads import RUN_SECONDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", default=None,
                     help="one workload by name (default: all four)")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                     help="how long one run measures")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="1: the per-layer run")
    run.add_argument("--smoke", action="store_true",
                     help="a few seconds per workload; numbers mean nothing")
    noise = sub.add_parser(
        "noise", help="two alternating sets of runs of the same code")
    noise.add_argument("--rounds", type=int, default=5,
                       help="runs per set and workload")
    noise.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    noise.add_argument("--seed", type=int, default=42)
    noise.add_argument("--workload", default=None)
    noise.add_argument("--trace", action="store_true",
                       help="compare the traced runs' exact counts instead")
    child = sub.add_parser("sim-child")   # internal: sim_batch's process
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--warmup", type=int, required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"bench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.command == "sim-child":
        from bench.simbatch import child_main
        return child_main(args.seed, args.warmup)

    from bench import workloads
    from bench.driver import DriverError
    from bench.host import RunFailed

    names = workloads.NAMES if args.workload is None else (args.workload,)
    for name in names:
        if name not in workloads.NAMES:
            print(f"bench: unknown workload {name!r}; "
                  f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
            return 2
    try:
        if args.command == "noise":
            from bench.noise import run_noise
            return run_noise(names, args.seed, args.seconds, args.rounds,
                             args.trace)
        from bench.run import report, run_workload
        seconds = RUN_SECONDS / 10 if args.smoke else args.seconds
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace),
                                  args.smoke)
            report(name, args.seed, result)
    except (RunFailed, DriverError) as exc:
        print(f"bench: run failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
