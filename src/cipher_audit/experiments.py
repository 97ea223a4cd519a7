"""Experiment sweeps: plaintext sensitivity, histogram uniformity, error propagation.

Every sweep runs W independent trials per grid cell.  A trial is fully
determined by (master_seed, trial_index, M, rounds): the key and every other
random draw come from one counter-derived stream, so reports are bit-identical
no matter how trials are scheduled across workers.  Aggregation happens in
task order after all trials return.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import cipher, metrics

# Grid of the reference experiment: image sizes and round counts swept by
# the avalanche and uniformity studies.
DEFAULT_SIZES = (16, 32, 64, 128, 196, 256, 300, 512)
DEFAULT_ROUNDS = (1, 2, 3, 4, 5, 6, 7)
DEFAULT_TRIALS = 1000
DEFAULT_ERROR_PERCENTS = (0.01, 0.1, 1.0, 5.0)

# Round count at which the cipher reaches the avalanche effect; error
# propagation is measured in this configuration.
SECURE_ROUNDS = 6

SINGLE_BIT = "single-bit"
PERCENT = "percent"

PLAINTEXT_SINGLE_LSB = "single-lsb"
PLAINTEXT_ALL_ZERO = "all-zero"


@dataclass(frozen=True)
class ExperimentConfig:
    sizes: tuple[int, ...] = DEFAULT_SIZES
    rounds: tuple[int, ...] = DEFAULT_ROUNDS
    trials: int = DEFAULT_TRIALS
    master_seed: int = 0
    error_percents: tuple[float, ...] = DEFAULT_ERROR_PERCENTS

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("at least one image size is required")
        for m in self.sizes:
            if m < 4 or m % 4 != 0:
                raise ValueError(f"image sizes must be multiples of 4 and >= 4, got {m}")
        if not self.rounds:
            raise ValueError("at least one round count is required")
        for r in self.rounds:
            if r < 1:
                raise ValueError(f"round counts must be >= 1, got {r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"the master seed must be >= 0, got {self.master_seed}")
        for p in self.error_percents:
            if not 0.0 <= p <= 100.0:
                raise ValueError(f"error percents must be within [0, 100], got {p}")


@dataclass(frozen=True)
class Stats:
    """min/mean/max/std (population) of one metric over the trials it was
    finite for; count says how many that was."""

    minimum: float
    mean: float
    maximum: float
    std: float
    count: int

    @classmethod
    def from_values(cls, values: list[float] | np.ndarray) -> "Stats":
        arr = np.asarray(values, dtype=np.float64)
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            return cls(math.inf, math.inf, math.inf, 0.0, 0)
        return cls(
            minimum=float(arr.min()),
            mean=float(arr.mean()),
            maximum=float(arr.max()),
            std=float(arr.std()),
            count=int(arr.size),
        )


@dataclass(frozen=True)
class SweepCell:
    """Avalanche results for one (M, rounds) cell."""

    size: int
    rounds: int
    ps: Stats
    diff: Stats


@dataclass(frozen=True)
class UniformityCell:
    """Ciphertext chi-square results for one (M, rounds) cell."""

    size: int
    rounds: int
    chi2: Stats
    threshold: float = metrics.CHI2_THRESHOLD


@dataclass(frozen=True)
class ErrorPropagationRow:
    """Decryption damage from channel errors, one row per corruption level."""

    mode: str  # SINGLE_BIT or PERCENT
    percent: float  # flipped bits as percentage of T = 8*M*M
    flipped_bits: int
    dif: Stats
    psnr: Stats
    ssim: Stats


@dataclass(frozen=True)
class KeySpaceReport:
    """Size of the permutation-key space and a brute-force feasibility note.

    key_space is the nominal 2^(4q) serialized keys.  effective_key_space is
    the number of distinct one-round permutations, M^4: the cat map reduces
    each q-bit parameter mod M, and distinct parameter tuples mod M give
    distinct maps.  The two agree when M is a power of two.  A brute-force
    search only has to try the distinct permutations.
    """

    size: int
    param_bits: int
    key_bits: int
    key_space: int
    effective_key_space: int
    guesses_per_second: float
    brute_force_seconds: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "brute_force_seconds", self.effective_key_space / self.guesses_per_second
        )


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports
    one (a taskset or cpuset can pin it to fewer than the machine has)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(jobs: int, n_tasks: int) -> int:
    """Processes worth starting: no more than requested, usable CPUs, or tasks."""
    return max(1, min(jobs, usable_cpus(), n_tasks))


def _run_tasks(fn, tasks: list, jobs: int, sizes=()) -> list:
    """Map fn over tasks, optionally across processes; order is preserved.

    The static cipher tables of every image size in sizes are built first,
    in this process, whether the tasks then run serially or not: forked pool
    workers inherit them, and the loaded numpy.random, instead of each
    building its own.  Under a spawn or forkserver start method the workers
    still build them; the results are the same.  Everything else a task
    needs travels in the task itself.
    """
    for m in sizes:
        cipher.build_static_tables(m)
    workers = _worker_count(jobs, len(tasks))
    if workers == 1:
        return [fn(task) for task in tasks]
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


# ---------------------------------------------------------------------------
# batched sweep cells
# ---------------------------------------------------------------------------

# Most pixels that one batch of trials encrypts in one call: one 512 x 512
# image.  Batch boundaries depend only on M and the trial count.
BATCH_PIXELS = 1 << 18


def _sweep(batch_fn, cfg: ExperimentConfig, jobs: int, *extra) -> list[tuple[int, int, list]]:
    """Per-trial results of every (M, rounds) cell, as (M, rounds, results).

    Each cell's trials are cut into consecutive batches of at most
    BATCH_PIXELS pixels (at least one trial); batch_fn maps the task
    (master_seed, M, rounds, start, stop, *extra) to the results of trials
    start..stop-1 in order.
    """
    cells = [(m, r) for m in sorted(cfg.sizes) for r in sorted(cfg.rounds)]
    tasks = []
    for m, r in cells:
        step = max(1, BATCH_PIXELS // (m * m))
        for start in range(0, cfg.trials, step):
            stop = min(start + step, cfg.trials)
            tasks.append((cfg.master_seed, m, r, start, stop, *extra))
    batches = _run_tasks(batch_fn, tasks, jobs, sizes=cfg.sizes)
    results = [value for batch in batches for value in batch]
    return [
        (m, r, results[i * cfg.trials : (i + 1) * cfg.trials]) for i, (m, r) in enumerate(cells)
    ]


def _draw_trials(master_seed: int, m: int, rounds: int, start: int, stop: int, single_lsb: bool):
    """Stream, key and plaintext of trials start..stop-1, each drawn from its
    own trial stream: the key first, then, if single_lsb, the pixel whose LSB
    is set in the otherwise all-zero plaintext."""
    plains = np.zeros((stop - start, m, m), dtype=np.uint8)
    rngs, keys = [], []
    for index, plain in zip(range(start, stop), plains):
        rng = cipher.trial_stream(master_seed, index, m, rounds)
        rngs.append(rng)
        keys.append(cipher.key_from_stream(rng, m, rounds))
        if single_lsb:
            x, y = (int(v) for v in rng.integers(0, m, size=2))
            plain[x, y] = 1
    return rngs, keys, plains


# ---------------------------------------------------------------------------
# avalanche (plaintext sensitivity)
# ---------------------------------------------------------------------------

def _bit_weights(stack: np.ndarray) -> np.ndarray:
    """Number of set bits in each image of a (W, M, M) stack, as int64."""
    return np.bitwise_count(stack).reshape(len(stack), -1).sum(axis=1, dtype=np.int64)


def _avalanche_batch(task: tuple[int, int, int, int, int]) -> list[tuple[float, float]]:
    """PS and Diff of each trial of a batch.

    PS compares E(I) with E(I') for the all-zero I.  The cipher is linear
    over GF(2), so E(0) = 0 for every key, and PS is the bit weight of E(I'):
    only I' is encrypted, the whole batch in one call.  Both scores of every
    trial come from two popcount reductions over the batch, with the
    arithmetic of metrics.hamming_percent.
    """
    rngs, keys, plains = _draw_trials(*task, single_lsb=True)
    ciphers = cipher.encrypt(plains, keys)
    total_bits = 8 * ciphers[0].size
    return [
        (100.0 * int(ps) / total_bits, 100.0 * int(diff) / total_bits)
        for ps, diff in zip(_bit_weights(ciphers), _bit_weights(plains ^ ciphers))
    ]


def avalanche_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[SweepCell]:
    """PS (ciphertext change from a one-bit plaintext change) and Diff
    (plain-vs-cipher distance of the flipped image) per grid cell."""
    return [
        SweepCell(
            size=m,
            rounds=r,
            ps=Stats.from_values([ps for ps, _ in chunk]),
            diff=Stats.from_values([diff for _, diff in chunk]),
        )
        for m, r, chunk in _sweep(_avalanche_batch, cfg, jobs)
    ]


# ---------------------------------------------------------------------------
# uniformity (chi-square of ciphertext histograms)
# ---------------------------------------------------------------------------

def _uniformity_batch(task: tuple[int, int, int, int, int, str, bool]) -> list[float]:
    master_seed, m, rounds, start, stop, plaintext, control_random = task
    rngs, keys, plains = _draw_trials(
        master_seed, m, rounds, start, stop, single_lsb=plaintext == PLAINTEXT_SINGLE_LSB
    )
    if control_random:
        # Sanity oracle: uniform random bytes in place of the ciphertext
        # should score around 255 (the degrees of freedom).
        data = [rng.integers(0, 256, size=m * m, dtype=np.uint8) for rng in rngs]
    else:
        data = cipher.encrypt(plains, keys)
    return [metrics.chi_square(metrics.byte_histogram(d)) for d in data]


def uniformity_sweep(
    cfg: ExperimentConfig,
    jobs: int = 1,
    plaintext: str = PLAINTEXT_SINGLE_LSB,
    control_random: bool = False,
) -> list[UniformityCell]:
    """Chi-square of ciphertext byte histograms per grid cell.

    The default plaintext carries a single set LSB: the cipher is linear, so
    the all-zero image encrypts to itself for every key and round (chi-square
    255 * M * M, the single-bin maximum).  That degenerate mode is available
    as plaintext="all-zero" to demonstrate the weakness.
    """
    if plaintext not in (PLAINTEXT_SINGLE_LSB, PLAINTEXT_ALL_ZERO):
        raise ValueError(f"unknown plaintext mode {plaintext!r}")
    return [
        UniformityCell(size=m, rounds=r, chi2=Stats.from_values(chunk))
        for m, r, chunk in _sweep(_uniformity_batch, cfg, jobs, plaintext, control_random)
    ]


# ---------------------------------------------------------------------------
# error propagation
# ---------------------------------------------------------------------------

def _flip_bits(data: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """data with bit p % 8 of byte p // 8 (row-major) flipped for every position p.

    The positions must be distinct (the trials draw them without
    replacement): they are scattered into a bit array, which would set a
    repeated position once instead of flipping it back.
    """
    bits = np.zeros(8 * data.size, dtype=np.uint8)
    bits[positions] = 1
    return data ^ np.packbits(bits, bitorder="little").reshape(data.shape)


def _flip_counts(m: int, percents: tuple[float, ...]) -> list[int]:
    """Bits flipped in each row of a trial: one, then ceil(p * T / 100) per percentage."""
    total_bits = 8 * m * m
    return [1] + [math.ceil(p * total_bits / 100.0) for p in percents]


def _errprop_batch(task: tuple) -> list[list[tuple[float, float, float]]]:
    """Dif, PSNR and SSIM of every row of each trial of a batch.

    A trial draws its key, then the distinct bit positions of each row's
    error vector e in row order (a row that flips no bits draws nothing).
    The damaged decryption is I xor D(e), so only the error vectors are
    decrypted: a trial's rows as one stack under the trial's key.  Dif is
    the bit weight of D(e), with the arithmetic of metrics.hamming_percent.
    """
    master_seed, m, rounds, start, stop, percents, image = task
    rngs, keys, _ = _draw_trials(master_seed, m, rounds, start, stop, single_lsb=False)
    total_bits = 8 * m * m
    no_error = np.zeros((m, m), dtype=np.uint8)
    out = []
    for rng, key in zip(rngs, keys):
        errors = np.stack([
            _flip_bits(no_error, rng.choice(total_bits, size=flips, replace=False))
            if flips else no_error
            for flips in _flip_counts(m, percents)
        ])
        damage = cipher.decrypt(errors, key)
        out.append([
            (100.0 * int(w) / total_bits, metrics.psnr(image, d), metrics.ssim(image, d))
            for w, d in zip(_bit_weights(damage), image ^ damage)
        ])
    return out


def error_propagation(
    cfg: ExperimentConfig,
    image: np.ndarray,
    jobs: int = 1,
    rounds: int = SECURE_ROUNDS,
) -> list[ErrorPropagationRow]:
    """Damage to the decrypted image when ciphertext bits flip in the channel.

    Per trial the image is encrypted under a fresh key, the ciphertext is
    corrupted, and the corrupted decryption is compared against the clean
    one.  The first row flips exactly one uniformly random bit; one further
    row per configured percentage flips ceil(p * T / 100) distinct bits.

    The cipher is linear over GF(2) and D(E(I)) = I, so the corrupted
    decryption is D(E(I) xor e) = I xor D(e) and the clean one is I itself.
    A trial therefore decrypts only the sparse error vectors e, as one stack,
    and encrypts nothing; the random draws are those of the direct route.
    The trials run on the shared sweep driver as one (M, rounds) cell, cut
    into batches like the other sweeps; the image travels in every task.
    """
    m = cipher.validate_image(image)
    cell = replace(cfg, sizes=(m,), rounds=(rounds,))
    [(_, _, results)] = _sweep(_errprop_batch, cell, jobs, cfg.error_percents, image)

    labels = zip(
        [SINGLE_BIT] + [PERCENT] * len(cfg.error_percents),
        [100.0 / (8 * m * m), *cfg.error_percents],
        _flip_counts(m, cfg.error_percents),
    )
    report = []
    for pos, (mode, percent, flips) in enumerate(labels):
        rows = [trial[pos] for trial in results]
        report.append(
            ErrorPropagationRow(
                mode=mode,
                percent=percent,
                flipped_bits=flips,
                dif=Stats.from_values([r[0] for r in rows]),
                psnr=Stats.from_values([r[1] for r in rows]),
                ssim=Stats.from_values([r[2] for r in rows]),
            )
        )
    return report


# ---------------------------------------------------------------------------
# key space
# ---------------------------------------------------------------------------

def keyspace_report(m: int, guesses_per_second: float = 1e9) -> KeySpaceReport:
    """Nominal key space 2^(4q) and effective M^4 for side length M, and the
    time to sweep the effective one."""
    if m < 4:
        raise ValueError(f"side length must be >= 4, got {m}")
    if not (math.isfinite(guesses_per_second) and guesses_per_second > 0):
        raise ValueError(f"the guess rate must be finite and above 0, got {guesses_per_second}")
    q = cipher.param_bits(m)
    return KeySpaceReport(
        size=m,
        param_bits=q,
        key_bits=4 * q,
        key_space=1 << (4 * q),
        effective_key_space=m**4,
        guesses_per_second=guesses_per_second,
    )
