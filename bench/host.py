"""Host facts: where the benchmark ran and what its children cost.

Everything here reads the operating system, never the program under
test.  CPU time and peak memory of a child come from ``/proc/<pid>``,
so they are taken from outside the process they describe.
"""

import contextlib
import os
import platform
import subprocess
import sys
import time
from typing import Dict, Iterator, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RunFailed(RuntimeError):
    """The run broke a correctness rule; it reports no metrics."""


def child_env() -> Dict[str, str]:
    """The environment of a child that imports the program under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # String hashing is randomised per process, and with it how dict
    # probes collide: pin it, so two children differ only by the host.
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_seconds(pid: int) -> float:
    """CPU seconds (user + system) process ``pid`` has consumed so far.

    Summed over its threads from ``/proc/<pid>/task/*/schedstat``, the
    scheduler's own nanosecond count: ``/proc/<pid>/stat`` holds the same
    time in 10 ms ticks, too coarse for a one-second window.
    """
    total_ns = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
            total_ns += int(fh.read().split()[0])
    return total_ns / 1e9


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of process ``pid``: the most memory it ever held."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


#: Kernel iterations per calibration slice: about 0.1 s on this host.
CALIB_ITERATIONS = 500_000
CALIB_REPEATS = 5
#: Slowest calibration slice this far over the fastest: the host was disturbed.
DISTURBED_SPREAD = 0.15


def calibrate() -> List[float]:
    """Seconds each of ``CALIB_REPEATS`` fixed slices of pure Python took.

    A disturbance probe, run before and after the workload: it tells a
    reader how much to trust a run, and is never used to scale a metric
    (dividing by it adds more noise than it removes on these hosts).
    """
    out = []
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(CALIB_ITERATIONS):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            if acc & 1:
                table[acc & 1023] = i
            else:
                acc ^= table.get(i & 1023, 0)
        out.append(time.perf_counter() - t0)
    return out


def cpu_ticks() -> List[int]:
    """(stolen, all) CPU ticks of this machine since boot, ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(field) for field in fh.readline().split()[1:9]]
    return [fields[7], sum(fields)]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the machine's CPU time the hypervisor gave to others
    between two :func:`cpu_ticks` readings."""
    ticks = after[1] - before[1]
    return (after[0] - before[0]) / ticks if ticks else 0.0


def calibration_summary(slices: List[float]) -> Dict[str, float]:
    """``host.calib_ms``: the fastest slice.  ``host.calib_spread``: how
    far over it the slowest ran."""
    fastest = min(slices)
    return {"host.calib_ms": fastest * 1000.0,
            "host.calib_spread": max(slices) / fastest - 1.0}


@contextlib.contextmanager
def keep_awake() -> Iterator[None]:
    """Keep the server's CPU from halting while a QD1 latency is measured.

    Between two QD1 requests the server sleeps and its virtual CPU halts;
    waking a halted virtual CPU is the hypervisor's work, and on a busy
    host it takes half a round trip longer for minutes at a time, which
    is no property of the program.  An idle-priority spinner takes the
    CPU nobody uses (the driver polls on the other): anything else
    preempts it at once, but the CPU never halts.  Alternating 4 s QD1
    phases on one ``fleet_mixed`` server in a disturbed quarter of an
    hour: spread 0.33 and range 1.04 without it, 0.19 and 0.33 with it.
    """
    # The loop ends with its parent, so a killed benchmark leaves no spinner.
    spinner = subprocess.Popen([
        sys.executable, "-c",
        "import os\nparent = os.getppid()\nwhile os.getppid() == parent: pass"])
    try:
        try:
            os.sched_setscheduler(spinner.pid, os.SCHED_IDLE, os.sched_param(0))
        except OSError:
            spinner.kill()      # would compete with the server: do without
        yield
    finally:
        spinner.kill()
        spinner.wait()


def _git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"    # a bare checkout: do not search its parents
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record() -> Dict[str, object]:
    """The facts printed with every result, so a number names its host."""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }
