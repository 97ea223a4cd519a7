"""Helper process that times the reference kernel and fresh-interpreter set-ups.

    python3 perfbench/sampler.py --workload NAME --seed N --sizes 16,32 --float-passes 0 --jobs 1

It never imports the package under test.  Running apart from the measured
process keeps that process's state (heap growth, cached arrays, a pool kept
alive) from reaching the reference, and the set-up children it starts are
reaped here, so they do not count in the measured process's peak RSS.

One command per line on stdin, one reply per line on stdout:

    ref    ->  seconds of one reference timing: the mean, over --jobs worker
               processes that run the kernel at once, of each one's median
               of five calls
    setup  ->  "<wall s> <cpu s>" of one fresh `run.py --setup-only`: wall time
               from its start until it prints "ready", and the user plus
               system CPU time it reports with "ready" (its own and that of
               the warm-up's pool workers)

It prints "ready" once its tables are built and exits when stdin closes.
"""

from __future__ import annotations

import argparse
import multiprocessing
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

RUN = Path(__file__).resolve().parent / "run.py"


class Reference:
    """Fixed numpy work on arrays of the workload's own sizes.

    On a shared host the machine's speed drifts by a third over minutes, and
    the workload's time drifts with it; its time divided by this kernel's
    time, measured moments apart, does not.  The kernel is the benchmark's
    own code, so no change to the package moves it.  One call runs the
    cipher's kinds of operation: a gather, an XOR and a per-position bit
    rotation at every size, plus, for errorprop, the float64 integral images
    that SSIM builds.
    """

    def __init__(self, sizes: list[int], float_passes: int) -> None:
        rng = np.random.default_rng(0x524546)
        self.tables = []
        for m in sizes:
            image = rng.integers(0, 256, size=(m, m), dtype=np.uint8)
            order = rng.permutation(m * m)
            shift = rng.integers(0, 8, size=(m, m)).astype(np.uint16)
            self.tables.append((image, order, shift, max(4, 200_000 // (m * m))))
        self.float_passes = float_passes

    def _once(self) -> None:
        for image, order, shift, steps in self.tables:
            out = image
            for _ in range(steps):
                wide = (out.reshape(-1)[order].reshape(image.shape) ^ image).astype(np.uint16)
                out = (((wide << shift) | (wide >> (8 - shift))) & 0xFF).astype(np.uint8)
            for _ in range(self.float_passes):
                plane = out.astype(np.float64)
                np.cumsum(np.cumsum(plane * plane, axis=0), axis=1)

    def seconds(self) -> float:
        """Median of five timed calls, after one untimed call that warms the caches."""
        self._once()
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


_reference: Reference | None = None


def _build_reference(sizes: list[int], float_passes: int) -> None:
    global _reference
    _reference = Reference(sizes, float_passes)


def _time_reference(_: int) -> float:
    return _reference.seconds()


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """Wall time until a fresh run.py --setup-only is ready, and the CPU time it reports."""
    cmd = [sys.executable, str(RUN), "--setup-only", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        words = proc.stdout.readline().split()
        wall = time.perf_counter() - t0
        proc.stdout.read()
    if len(words) != 2 or words[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup of {workload} failed (exit {proc.returncode})")
    return wall, float(words[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", required=True)
    parser.add_argument("--float-passes", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True,
                        help="processes the workload keeps busy; the reference runs on as many")
    args = parser.parse_args()
    sizes = [int(m) for m in args.sizes.split(",")]
    # A workload that runs on all cores is timed against a reference that
    # loads them all too, so both meet the same contention for the cores.
    with multiprocessing.Pool(args.jobs, _build_reference, (sizes, args.float_passes)) as pool:

        def reference_s() -> float:
            return statistics.mean(pool.map(_time_reference, range(args.jobs), chunksize=1))

        reference_s()  # warm-up
        print("ready", flush=True)
        for command in sys.stdin:
            command = command.strip()
            if command == "ref":
                print(repr(reference_s()), flush=True)
            elif command == "setup":
                wall, cpu = setup_sample(args.workload, args.seed)
                print(f"{wall!r} {cpu!r}", flush=True)
            else:
                raise SystemExit(f"sampler: unknown command {command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
