"""In-process A/B of two checkouts on one perfbench workload.

    python tests/bench_ab.py --base PATH [--workload NAME] [--pairs N] [--seed N]

Run it from the root of a checkout.  It loads this checkout's package as
cipher_audit and PATH/src/cipher_audit under a second package name,
cipher_audit_base, into one process, and calls each side's cli.main on the
workload's perfbench command line (perfbench/harness.py's WORKLOADS, at
--seed, by default perfbench's seed 0) in alternating pairs, the side that
runs first switching from pair to pair.  After one untimed warm-up call per
side, it prints the seed, each side's median and quartiles in milliseconds,
the ratio of the medians, and the number of pairs this checkout ran faster;
it exits 1 if the two sides ever write different CSV bytes.  Its name keeps
it out of the test suite.

Both packages share one numpy and one heap, so the pairs see the same host
state; a pooled workload (--jobs above 1) needs the fork start method, under
which the helpers inherit the loaded packages.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_PACKAGE = "cipher_audit_base"


def load_package(source: Path, name: str):
    """The package at source/cipher_audit, imported as name (with its submodules)."""
    init = source / "cipher_audit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench_ab: no package source at {init.parent}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def timed_main(main, argv: list[str]) -> tuple[float, bytes]:
    """Wall seconds of one main(argv) call, and the bytes it wrote to its --out, the last argument."""
    csv = Path(argv[-1])
    csv.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"bench_ab: {argv[0]} exited with {code}")
    return wall, csv.read_bytes()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="root of the checkout to compare against")
    parser.add_argument("--workload", default="avalanche-small")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=None, help="the workload's seed (default: perfbench's)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import harness  # perfbench's: the workloads, their argv and inputs
    from cipher_audit import cli

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, choose from {', '.join(harness.WORKLOADS)}")
    base = load_package(args.base.resolve() / "src", BASE_PACKAGE)
    __import__(f"{BASE_PACKAGE}.cli")
    workload = harness.WORKLOADS[args.workload]
    bench = harness.Bench(workload, harness.DEFAULT_SEED if args.seed is None else args.seed)
    try:
        bench.write_input()
        sides = {"change": cli.main, "base": base.cli.main}
        argvs = {side: bench.argv(workload.trials, workload.jobs)[:-1] + [str(bench.workdir / f"{side}.csv")]
                 for side in sides}
        times = {side: [] for side in sides}
        outputs = set()
        for pair in range(-1, args.pairs):  # pair -1: the untimed warm-up
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                wall, data = timed_main(sides[side], argvs[side])
                outputs.add(data)
                if pair >= 0:
                    times[side].append(wall)
    finally:
        bench.close()

    print(f"{args.workload}: {args.pairs} pairs, seed {bench.seed}, base {args.base}")
    for side, walls in times.items():
        q1, median, q3 = (1e3 * t for t in quartiles(walls))
        print(f"  {side:6s} median {median:9.3f} ms  q1 {q1:9.3f}  q3 {q3:9.3f}")
    ratio = statistics.median(times["change"]) / statistics.median(times["base"])
    won = sum(c < b for c, b in zip(times["change"], times["base"]))
    print(f"  change/base median x{ratio:.3f}; change faster in {won} of {args.pairs} pairs")
    if len(outputs) != 1:
        print("  the two sides wrote different CSV bytes")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
