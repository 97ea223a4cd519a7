"""Workloads, correctness gate and measurements of the cipher-audit benchmark.

Every workload runs one sweep command in-process through cipher_audit.cli.main,
which writes the real CSV; each CSV is then checked (see check_csv).  All runs
of one process use the same --seed, so they do the same work and must write
the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cipher_audit
from cipher_audit import cipher, cli, image_io
from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# sha256 of each workload's CSV at DEFAULT_SEED, recorded from the code the
# benchmark was defined on.  The CSV bytes must not change (ROADMAP aim 1).
GOLDEN = json.loads((HERE / "golden.json").read_text())
DEFAULT_SEED = 0

NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 11
PROBE_SIZES = (16, 64, 256, 512)
PROBE_ROUNDS = (1, 7)
ERROR_PERCENTS = (0.01, 0.1, 1.0, 5.0)  # errorprop's default --percents


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    sizes: tuple[int, ...]
    rounds_arg: str  # as passed to --rounds
    rounds: tuple[int, ...]
    trials: int  # per grid cell; sets the length of one run
    jobs: int

    @property
    def trials_per_run(self) -> int:
        cells = 1 if self.command == "errorprop" else len(self.sizes) * len(self.rounds)
        return cells * self.trials


WORKLOADS = {w.name: w for w in (
    # Small images: per-call numpy overhead dominates and half of the encrypts
    # take the all-zero image.  Never calls decrypt or ssim.
    Workload("avalanche-small", "avalanche", (16, 32, 64), "1..7", tuple(range(1, 8)),
             trials=20, jobs=1),
    # The only workload that calls decrypt and ssim (sparse-error decrypts,
    # the same clean reference on every ssim call of a trial).
    Workload("errorprop-256", "errorprop", (256,), "6", (6,), trials=4, jobs=1),
    # Large images through the process pool, one size not a power of two;
    # encrypt is almost all of the work.
    Workload("uniformity-large", "uniformity", (256, 300, 512), "1,6", (1, 6),
             trials=10, jobs=NPROC),
)}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _band(problems: list[str], row: dict, column: str, lo: float, hi: float,
          open_above: bool = False) -> None:
    value = float(row[column])
    if not (lo <= value < hi if open_above else lo <= value <= hi):
        close = ")" if open_above else "]"
        problems.append(f"{column}={value} outside [{lo}, {hi}{close} in row {row}")


def errorprop_labels(m: int) -> list[tuple[str, str, str]]:
    """(mode, percent, flipped_bits) of each errorprop row for an M x M image, in order."""
    bits = 8 * m * m
    return [("single-bit", f"{100.0 / bits:.4f}", "1")] + [
        ("percent", f"{p:.4f}", str(math.ceil(p * bits / 100.0))) for p in ERROR_PERCENTS]


def check_csv(workload: Workload, data: bytes, trials: int) -> list[str]:
    """Shape of the report and the paper's acceptance bands on its r >= 6 rows."""
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode("ascii"))))
    except UnicodeDecodeError:
        return ["CSV is not ASCII"]
    if workload.command == "errorprop":
        columns = ("mode", "percent", "flipped_bits")
        expected = errorprop_labels(workload.sizes[0])
    else:
        columns = ("size", "rounds")
        expected = [(str(m), str(r)) for m in workload.sizes for r in workload.rounds]
    if len(rows) != len(expected):
        return [f"CSV has {len(rows)} rows, expected {len(expected)}"]
    problems: list[str] = []
    try:
        for row, cell in zip(rows, expected):
            if int(row["trials"]) != trials:
                problems.append(f"trials={row['trials']} in row {row}, expected {trials}")
            if tuple(row[c] for c in columns) != cell:
                problems.append(f"row {row} is not {dict(zip(columns, cell))}, the next in order")
            if workload.command == "avalanche" and int(row["rounds"]) >= 6:
                _band(problems, row, "ps_mean", 49.0, 51.0)
            elif workload.command == "uniformity" and int(row["rounds"]) >= 6:
                _band(problems, row, "chi2_mean", 0.0, 293.0)
            elif workload.command == "errorprop":
                if row["mode"] == "single-bit":
                    _band(problems, row, "dif_mean", 49.7, 50.3)
                _band(problems, row, "psnr_mean", 8.8, 9.8)
                _band(problems, row, "ssim_mean", -1.0, 0.05, open_above=True)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed CSV: {exc!r}")
    return problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# one workload at one seed
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """User plus system CPU of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak resident set of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


class Bench:
    """One workload at one seed: its input files, its runs and their failures."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = OUT / f"work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv = self.workdir / f"{workload.name}.csv"
        self.pgm = self.workdir / "portrait.pgm"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_csv: bytes | None = None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def argv(self, trials: int, jobs: int) -> list[str]:
        w = self.workload
        if w.command == "errorprop":
            head = ["errorprop", "--image", str(self.pgm)]
        else:
            head = [w.command, "--sizes", ",".join(map(str, w.sizes))]
        return head + ["--rounds", w.rounds_arg, "--trials", str(trials), "--jobs", str(jobs),
                       "--seed", str(self.seed), "--out", str(self.csv)]

    def write_input(self) -> None:
        """The seeded 256x256 portrait PGM that errorprop reads; nothing for the others."""
        if self.workload.command == "errorprop":
            image = image_io.make_portrait_image(256, seed=image_io.PORTRAIT_SEED + self.seed)
            image_io.write_pgm(image, self.pgm)

    def set_up(self) -> None:
        """Everything before the first timed run: input file and a one-trial warm-up."""
        self.write_input()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(trials=1, jobs=self.workload.jobs))
        if code != 0:
            raise RuntimeError(f"warm-up run of {self.workload.name} exited with {code}")

    def record(self, trials: int, problems: list[str]) -> None:
        self.attempted += trials
        if problems:
            self.failed += trials
            self.problems.extend(problems[: 20 - len(self.problems)])

    def run(self, jobs: int | None = None) -> tuple[float, float]:
        """One call of cli.main, timed; returns (wall s, cpu s) and checks the CSV after."""
        w = self.workload
        argv = self.argv(w.trials, jobs or w.jobs)
        self.csv.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                outcome = cli.main(argv)
            except Exception:  # a run that raises is a failed run, not a crashed benchmark
                outcome = traceback.format_exc(limit=-1).strip()
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
        if outcome != 0:
            problems = [f"cli.main {argv[0]}: {outcome}"]
        else:
            problems = self.check(self.csv.read_bytes())
        self.record(w.trials_per_run, problems)
        return wall, cpu

    def check(self, data: bytes) -> list[str]:
        problems = check_csv(self.workload, data, self.workload.trials)
        if self.seed == DEFAULT_SEED and sha256(data) != GOLDEN.get(self.workload.name):
            problems.append(f"CSV sha256 {sha256(data)} differs from golden.json")
        if self.first_csv is None:
            if not problems:
                self.first_csv = data
        elif data != self.first_csv:
            problems.append("CSV bytes differ from the first run's")
        return problems

    def roundtrip(self) -> None:
        """decrypt(encrypt(x)) == x at each workload size, outside any timed region."""
        rng = np.random.default_rng((self.seed, 0x5254))
        rounds = max(self.workload.rounds)
        for m in self.workload.sizes:
            image = rng.integers(0, 256, size=(m, m), dtype=np.uint8)
            key = cipher.key_from_stream(rng, m, rounds)
            back = cipher.decrypt(cipher.encrypt(image, key), key)
            ok = np.array_equal(back, image)
            self.record(1, [] if ok else [f"decrypt(encrypt(x)) != x at M={m}"])

    def result(self, metrics: dict[str, tuple[float, str]], detail: dict) -> dict:
        detail.update(
            workload=self.workload.name,
            seed=self.seed,
            trials_per_run=self.workload.trials_per_run,
            failed_ratio=self.failed / self.attempted,
            problems=self.problems,
            csv_sha256=sha256(self.first_csv) if self.first_csv is not None else None,
            machine=machine_info(),
        )
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "detail": detail,
        }


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one timing."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def setup_only(workload: Workload, seed: int) -> int:
    """Set up as timed_run does, then print "ready" and the CPU seconds spent so far."""
    bench = Bench(workload, seed)
    try:
        bench.set_up()
    finally:
        bench.close()
    print(f"ready {cpu_seconds()!r}", flush=True)
    return 0


class Sampler:
    """The helper process of sampler.py: reference timings and set-up samples.

    It runs apart from this process, so nothing the package leaves behind
    here reaches the reference kernel, and the set-up children it starts do
    not count in this process's peak RSS.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        cmd = [sys.executable, str(HERE / "sampler.py"), "--workload", workload.name,
               "--seed", str(seed), "--sizes", ",".join(map(str, workload.sizes)),
               "--float-passes", "2" if workload.command == "errorprop" else "0",
               "--jobs", str(workload.jobs)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError(f"sampler failed to start (exit {self.proc.returncode})")

    def _ask(self, command: str) -> list[float]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"sampler exited on {command!r} (exit {self.proc.wait()})")
        return [float(word) for word in line.split()]

    def reference_s(self) -> float:
        return self._ask("ref")[0]

    def setup(self) -> tuple[float, float]:
        """(wall s, CPU s) of one fresh interpreter from its start until it is ready."""
        wall, cpu = self._ask("setup")
        return wall, cpu

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def timed_run(workload: Workload, seed: int, seconds: float,
              setup_samples: int = SETUP_SAMPLES) -> dict:
    """Closed-loop runs for `seconds`, each followed by a reference timing.

    The set-up samples are spread over the same span, one after every run
    that crosses the next of `setup_samples` equal time steps, so they see
    the host as the runs do rather than in one burst.
    """
    bench = Bench(workload, seed)
    sampler = Sampler(workload, seed)
    try:
        bench.set_up()
        walls, cpus, refs, setups = [], [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, cpu = bench.run()
            walls.append(wall)
            cpus.append(cpu)
            refs.append(sampler.reference_s())
            due = len(setups) * seconds / setup_samples
            if len(setups) < setup_samples and time.perf_counter() - start >= due:
                setups.append(sampler.setup())
        while len(setups) < setup_samples:
            setups.append(sampler.setup())
        peak = peak_rss_mib()
        bench.roundtrip()
    finally:
        bench.close()
        sampler.close()
    trials = workload.trials_per_run
    rates = [trials / wall for wall in walls]
    cpu_ms = [1000.0 * cpu / trials for cpu in cpus]
    trials_per_ref = [rate * ref for rate, ref in zip(rates, refs)]
    cpu_ref = [cpu / trials / ref for cpu, ref in zip(cpus, refs)]
    setup_cpu = [cpu for _, cpu in setups]
    metrics = {
        "trials_per_ref": (statistics.median(trials_per_ref), "1/ref"),
        "cpu_ref_per_trial": (statistics.median(cpu_ref), "ref"),
        "setup_s": (statistics.median(setup_cpu), "s"),
        "peak_rss_mb": (peak, "MiB"),
    }
    detail = {
        "trials_per_ref": summary(trials_per_ref),
        "cpu_ref_per_trial": summary(cpu_ref),
        "trials_per_s": summary(rates),
        "cpu_ms_per_trial": summary(cpu_ms),
        "ref_ms": summary([1000.0 * ref for ref in refs]),
        "setup_s": summary(setup_cpu),
        "setup_wall_s": summary([wall for wall, _ in setups]),
        "run_wall_s": summary(walls),
        "jobs": workload.jobs,
    }
    return bench.result(metrics, detail)


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------

def traced_run(workload: Workload, seed: int, seconds: float,
               probe_seconds: float = 0.15, pool_pairs: int = 3) -> dict:
    """Per-layer metrics at jobs=1, from spans recorded around the public calls.

    One repetition is what a user does: write the input (errorprop only) and
    run the command.  Untraced and traced repetitions alternate, so the
    overhead ratio compares like with like.
    """
    bench = Bench(workload, seed)
    tracer = Tracer()
    try:
        bench.set_up()
        plain, traced = [], []
        start = time.perf_counter()
        while len(traced) < 3 or time.perf_counter() - start < seconds:
            plain.append(_repetition(bench))
            with tracer:
                traced.append(_repetition(bench))
        metrics = layer_metrics(tracer, plain, traced, workload.trials_per_run)
        metrics.update(pool_metrics(bench, pool_pairs))
        metrics.update(cipher_probe(seed, probe_seconds))
        bench.roundtrip()
    finally:
        bench.close()
    OUT.mkdir(exist_ok=True)
    spans = [{"id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name,
              "start": s.start, "end": s.end} for s in tracer.spans]
    (OUT / f"{workload.name}-seed{seed}-spans.json").write_text(json.dumps(spans))
    detail = {"traced_wall_s": summary(traced), "untraced_wall_s": summary(plain),
              "spans": len(spans), "jobs": 1}
    return bench.result(metrics, detail)


def _repetition(bench: Bench) -> float:
    t0 = time.perf_counter()
    bench.write_input()
    input_s = time.perf_counter() - t0
    wall, _ = bench.run(jobs=1)
    return input_s + wall


def layer_metrics(tracer: Tracer, plain: list[float], traced: list[float],
                  trials_per_rep: int) -> dict[str, tuple[float, str]]:
    reps = len(traced)
    wall = sum(traced)
    own = self_times(tracer.spans)
    busy: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    ssim_ms = []
    for span, self_s in zip(tracer.spans, own):
        busy[span.name] += self_s
        calls[span.name] += 1
        if span.name == "metrics.ssim":
            ssim_ms.append(1000.0 * span.duration)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("cipher.encrypt", "cipher.decrypt"):
        out[f"{name}.calls"] = (calls[name] / reps, "count")
        out[f"{name}.busy_s"] = (busy[name] / reps, "s")
        out[f"{name}.share"] = (busy[name] / wall, "ratio")
    cipher_calls = calls["cipher.encrypt"] + calls["cipher.decrypt"]
    out["cipher.calls_per_trial"] = (cipher_calls / (reps * trials_per_rep), "count")
    out["cipher.encrypt.zero_input_ratio"] = (
        ratio(tracer.counts["cipher.encrypt.zero_input"], calls["cipher.encrypt"]), "ratio")
    out["metrics.ssim.calls"] = (calls["metrics.ssim"] / reps, "count")
    out["metrics.ssim.busy_s"] = (busy["metrics.ssim"] / reps, "s")
    out["metrics.ssim.ms_p50"] = (statistics.median(ssim_ms) if ssim_ms else 0.0, "ms")
    out["metrics.ssim.repeat_ref_ratio"] = (
        ratio(tracer.counts["metrics.ssim.repeat_ref"], calls["metrics.ssim"]), "ratio")
    for name in ("psnr", "hamming_percent", "byte_histogram", "chi_square"):
        out[f"metrics.{name}.busy_s"] = (busy[f"metrics.{name}"] / reps, "s")
    sweep_self = sum(v for k, v in busy.items() if k.startswith("experiments."))
    out["experiments.self_s"] = (sweep_self / reps, "s")
    out["experiments.self_share"] = (sweep_self / wall, "ratio")
    for name in ("read_pgm", "write_pgm", "make_portrait_image"):
        out[f"image_io.{name}.busy_s"] = (busy[f"image_io.{name}"] / reps, "s")
    out["cli.self_s"] = (busy["cli.main"] / reps, "s")
    out["trace.traced_wall_s"] = (statistics.median(traced), "s")
    out["trace.untraced_wall_s"] = (statistics.median(plain), "s")
    out["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain) - 1.0,
                                   "ratio")
    # cli.self_s is left out: work done in cli.main outside every traced
    # function, or outside any span, lowers this share.
    layers = sum(v for k, v in busy.items() if not k.startswith("cli."))
    out["trace.accounted_share"] = (layers / wall, "ratio")
    return out


def pool_metrics(bench: Bench, pairs: int) -> dict[str, tuple[float, str]]:
    """Untraced wall time at jobs=1 against jobs=nproc, alternating."""
    serial, pooled = [], []
    for _ in range(pairs):
        serial.append(bench.run(jobs=1)[0])
        pooled.append(bench.run(jobs=NPROC)[0])
    speedup = statistics.median(serial) / statistics.median(pooled)
    return {"experiments.pool_speedup": (speedup, "x"),
            "experiments.pool_efficiency": (speedup / NPROC, "ratio")}


def cipher_probe(seed: int, seconds_per_point: float) -> dict[str, tuple[float, str]]:
    """Per-round slope and fixed per-call cost of the public encrypt and decrypt.

    t(r) = call + r * round, fitted through the medians at r=1 and r=7, with
    a fresh key on every call as in the sweeps.  Bytes per round are the
    computed M*M image bytes, not a measurement.
    """
    rng = np.random.default_rng((seed, 0x50524F42))
    out: dict[str, tuple[float, str]] = {}
    for m in PROBE_SIZES:
        image = rng.integers(0, 256, size=(m, m), dtype=np.uint8)
        for prefix, op in (("cipher", cipher.encrypt), ("cipher.decrypt", cipher.decrypt)):
            times: dict[int, list[float]] = {r: [] for r in PROBE_ROUNDS}
            start = time.perf_counter()
            while len(times[1]) < 5 or time.perf_counter() - start < seconds_per_point:
                for r in PROBE_ROUNDS:
                    key = cipher.key_from_stream(rng, m, r)
                    t0 = time.perf_counter()
                    op(image, key)
                    times[r].append(time.perf_counter() - t0)
            lo, hi = (statistics.median(times[r]) for r in PROBE_ROUNDS)
            per_round = (hi - lo) / (PROBE_ROUNDS[1] - PROBE_ROUNDS[0])
            out[f"{prefix}.round_us.m{m}"] = (1e6 * per_round, "us")
            out[f"{prefix}.call_us.m{m}"] = (1e6 * (lo - PROBE_ROUNDS[0] * per_round), "us")
            if m == max(PROBE_SIZES):
                out[f"{prefix}.round_ns_per_byte.m{m}"] = (1e9 * per_round / (m * m), "ns/B")
    return out


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def machine_info() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": NPROC, "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__, "cipher_audit": cipher_audit.__version__}
