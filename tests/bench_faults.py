"""Minor page faults, CPU and wall time per run of each perfbench workload.

Its name does not match test_*.py, so the tier-1 suite does not collect it.
Run it from the root of a checkout, for every workload or the ones named:

    python tests/bench_faults.py [avalanche-small errorprop-256 uniformity-large]

For each workload it replays perfbench's closed loop at seed 0: one
Bench.set_up(), then RUNS calls of Bench.run().  It prints the minor page
faults (ru_minflt of this process plus its reaped children, so a pool's
workers count), CPU ms and wall ms per run, each as the median over the
runs with the mean and the quartiles beside it: a median of small fault
counts sits on an integer, while the mean and the quartiles show a shift
of the distribution.  A run that faults in fresh pages shows as a high
fault count; a warm heap reads close to 0.
"""

from __future__ import annotations

import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402  (perfbench/harness.py, from the path above)

RUNS = 40
SEED = 0


def minor_faults() -> int:
    """Minor page faults of this process and of every child it has reaped."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def measure(workload: harness.Workload) -> tuple[list[float], list[float], list[float]]:
    """Minor faults, CPU ms and wall ms of each of RUNS runs after one set-up."""
    bench = harness.Bench(workload, SEED)
    faults, cpus, walls = [], [], []
    try:
        bench.set_up()
        for _ in range(RUNS):
            before = minor_faults()
            wall, cpu = bench.run()
            faults.append(minor_faults() - before)
            walls.append(1000.0 * wall)
            cpus.append(1000.0 * cpu)
        if bench.failed:
            raise SystemExit(f"{workload.name}: {bench.failed} failed trials: {bench.problems}")
    finally:
        bench.close()
    return faults, cpus, walls


def summary(values: list[float], fmt: str) -> str:
    """Median, then mean and quartiles (statistics.quantiles, exclusive)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    parts = (statistics.median(values), statistics.fmean(values), q1, q3)
    return "{} (mean {}, q1 {}, q3 {})".format(*(format(v, fmt) for v in parts))


def main(names: list[str]) -> int:
    for name in names or list(harness.WORKLOADS):
        faults, cpus, walls = measure(harness.WORKLOADS[name])
        print(f"{name}: minor faults/run {summary(faults, '.3g')}, "
              f"cpu ms/run {summary(cpus, '.1f')}, wall ms/run {summary(walls, '.1f')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
