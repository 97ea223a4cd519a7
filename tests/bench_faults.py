"""Minor page faults, CPU and wall time per run of each perfbench workload.

Its name does not match test_*.py, so the tier-1 suite does not collect it.
Run it from the root of a checkout, for every workload or the ones named:

    python tests/bench_faults.py [avalanche-small errorprop-256 uniformity-large]

For each workload it replays perfbench's closed loop at seed 0: one
Bench.set_up(), then RUNS calls of Bench.run().  It prints the median over
the runs of the minor page faults (ru_minflt of this process plus its reaped
children, so a pool's workers count), CPU ms and wall ms per run.  A run
that faults in fresh pages shows as a high fault count; a warm heap reads
close to 0.
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


def measure(workload: harness.Workload) -> tuple[float, float, float]:
    """Median minor faults, CPU ms and wall ms over RUNS runs after one set-up."""
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
    return statistics.median(faults), statistics.median(cpus), statistics.median(walls)


def main(names: list[str]) -> int:
    for name in names or list(harness.WORKLOADS):
        faults, cpu_ms, wall_ms = measure(harness.WORKLOADS[name])
        print(f"{name}: minor faults/run {faults:g}, cpu ms/run {cpu_ms:.1f}, wall ms/run {wall_ms:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
