"""Minor page faults, CPU and wall time per run of each perfbench workload.

Its name does not match test_*.py, so the tier-1 suite does not collect it.
Run it from the root of a checkout, for every workload or the ones named:

    python tests/bench_faults.py [avalanche-small errorprop-256 uniformity-large]

A name that is not a workload (--help among them) ends it with exit code 2
and one line that lists the workloads, before any run.

For each workload it replays perfbench's closed loop at seed 0: one
Bench.set_up(), then RUNS calls of Bench.run().  It prints the minor page
faults (ru_minflt) and CPU ms per run of this process (caller), of the
children it reaped during the run (children: a pooled sweep's workers), and
their sum, then the wall ms per run.  Each is the median over the runs with
the mean and the quartiles beside it: a median of small fault counts sits
on an integer, while the mean and the quartiles show a shift of the
distribution.  A run that faults in fresh pages shows as a high fault
count; a warm heap reads close to 0.
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


WHO = {"caller": resource.RUSAGE_SELF, "children": resource.RUSAGE_CHILDREN}


def usage() -> dict[str, float]:
    """Minor page faults and CPU ms so far, of this process and of its reaped children."""
    out = {}
    for name, who in WHO.items():
        ru = resource.getrusage(who)
        out[f"faults {name}"] = ru.ru_minflt
        out[f"cpu ms {name}"] = 1000.0 * (ru.ru_utime + ru.ru_stime)
    return out


def measure(workload: harness.Workload) -> tuple[dict[str, list[float]], list[float]]:
    """Faults and CPU ms of the caller, its children and both ("total"), and
    wall ms, of each of RUNS runs after one set-up."""
    bench = harness.Bench(workload, SEED)
    series: dict[str, list[float]] = {}
    walls = []
    try:
        bench.set_up()
        for _ in range(RUNS):
            before = usage()
            wall, _ = bench.run()
            after = usage()
            walls.append(1000.0 * wall)
            for kind in ("faults", "cpu ms"):
                parts = [after[f"{kind} {name}"] - before[f"{kind} {name}"] for name in WHO]
                for name, value in zip([*WHO, "total"], [*parts, sum(parts)]):
                    series.setdefault(f"{kind} {name}", []).append(value)
        if bench.failed:
            raise SystemExit(f"{workload.name}: {bench.failed} failed trials: {bench.problems}")
    finally:
        bench.close()
    return series, walls


def summary(values: list[float], fmt: str) -> str:
    """Median, then mean and quartiles (statistics.quantiles, exclusive)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    parts = (statistics.median(values), statistics.fmean(values), q1, q3)
    return "{} (mean {}, q1 {}, q3 {})".format(*(format(v, fmt) for v in parts))


def main(names: list[str]) -> int:
    # every name is checked before the first workload's set-up and runs
    for name in names:
        if name not in harness.WORKLOADS:
            print(f"bench_faults: unknown workload {name!r}, choose from {', '.join(harness.WORKLOADS)}",
                  file=sys.stderr)
            return 2
    for name in names or list(harness.WORKLOADS):
        series, walls = measure(harness.WORKLOADS[name])
        print(f"{name}:")
        for label, values in series.items():
            fmt = ".4g" if label.startswith("faults") else ".1f"
            print(f"  {label}/run {summary(values, fmt)}")
        print(f"  wall ms/run {summary(walls, '.1f')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
