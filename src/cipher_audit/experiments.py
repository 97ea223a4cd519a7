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
from dataclasses import dataclass, field

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


def _worker_count(jobs: int, n_tasks: int) -> int:
    """Processes worth starting: no more than requested, cores, or tasks."""
    return max(1, min(jobs, os.cpu_count() or 1, n_tasks))


def _run_tasks(fn, tasks: list, jobs: int, initializer=None, initargs: tuple = ()) -> list:
    """Map fn over tasks, optionally across processes; order is preserved.

    initializer(*initargs) runs once in every process that calls fn,
    this one included when the tasks run serially.
    """
    workers = _worker_count(jobs, len(tasks))
    if workers == 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(task) for task in tasks]
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    ) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


# ---------------------------------------------------------------------------
# avalanche (plaintext sensitivity)
# ---------------------------------------------------------------------------

def _single_lsb_plain(rng: np.random.Generator, m: int) -> np.ndarray:
    """All-zero image with the LSB of one uniformly random pixel set to 1."""
    x, y = (int(v) for v in rng.integers(0, m, size=2))
    image = np.zeros((m, m), dtype=np.uint8)
    image[x, y] = 1
    return image


def _avalanche_trial(task: tuple[int, int, int, int]) -> tuple[float, float]:
    """PS and Diff of one trial.

    PS compares E(I) with E(I') for the all-zero I.  The cipher is linear
    over GF(2), so E(0) = 0 for every key, and PS is the bit weight of E(I'):
    only I' is encrypted.
    """
    master_seed, m, rounds, index = task
    rng = cipher.trial_stream(master_seed, index, m, rounds)
    key = cipher.key_from_stream(rng, m, rounds)
    plain_flipped = _single_lsb_plain(rng, m)
    c1 = cipher.encrypt(plain_flipped, key)
    ps = metrics.hamming_percent(np.zeros_like(c1), c1)
    diff = metrics.hamming_percent(plain_flipped, c1)
    return ps, diff


def avalanche_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[SweepCell]:
    """PS (ciphertext change from a one-bit plaintext change) and Diff
    (plain-vs-cipher distance of the flipped image) per grid cell."""
    cells = [(m, r) for m in sorted(cfg.sizes) for r in sorted(cfg.rounds)]
    tasks = [
        (cfg.master_seed, m, r, w) for (m, r) in cells for w in range(cfg.trials)
    ]
    results = _run_tasks(_avalanche_trial, tasks, jobs)
    report = []
    for i, (m, r) in enumerate(cells):
        chunk = results[i * cfg.trials : (i + 1) * cfg.trials]
        report.append(
            SweepCell(
                size=m,
                rounds=r,
                ps=Stats.from_values([ps for ps, _ in chunk]),
                diff=Stats.from_values([diff for _, diff in chunk]),
            )
        )
    return report


# ---------------------------------------------------------------------------
# uniformity (chi-square of ciphertext histograms)
# ---------------------------------------------------------------------------

def _uniformity_trial(task: tuple[int, int, int, int, str, bool]) -> float:
    master_seed, m, rounds, index, plaintext, control_random = task
    rng = cipher.trial_stream(master_seed, index, m, rounds)
    key = cipher.key_from_stream(rng, m, rounds)
    if plaintext == PLAINTEXT_ALL_ZERO:
        plain = np.zeros((m, m), dtype=np.uint8)
    else:
        plain = _single_lsb_plain(rng, m)
    if control_random:
        # Sanity oracle: uniform random bytes in place of the ciphertext
        # should score around 255 (the degrees of freedom).
        data = rng.integers(0, 256, size=m * m, dtype=np.uint8)
    else:
        data = cipher.encrypt(plain, key)
    return metrics.chi_square(metrics.byte_histogram(data))


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
    cells = [(m, r) for m in sorted(cfg.sizes) for r in sorted(cfg.rounds)]
    tasks = [
        (cfg.master_seed, m, r, w, plaintext, control_random)
        for (m, r) in cells
        for w in range(cfg.trials)
    ]
    results = _run_tasks(_uniformity_trial, tasks, jobs)
    report = []
    for i, (m, r) in enumerate(cells):
        chunk = results[i * cfg.trials : (i + 1) * cfg.trials]
        report.append(UniformityCell(size=m, rounds=r, chi2=Stats.from_values(chunk)))
    return report


# ---------------------------------------------------------------------------
# error propagation
# ---------------------------------------------------------------------------

_ERRPROP_IMAGE: np.ndarray | None = None


def _errprop_init(image: np.ndarray) -> None:
    global _ERRPROP_IMAGE
    _ERRPROP_IMAGE = image


def _flip_bits(data: np.ndarray, positions: np.ndarray) -> np.ndarray:
    corrupted = data.reshape(-1).copy()
    np.bitwise_xor.at(corrupted, positions // 8, (1 << (positions % 8)).astype(np.uint8))
    return corrupted.reshape(data.shape)


def _errprop_trial(task: tuple[int, int, int, int, tuple[float, ...]]) -> list[tuple[float, float, float]]:
    master_seed, m, rounds, index, percents = task
    image = _ERRPROP_IMAGE
    assert image is not None, "error-propagation worker not initialized"
    rng = cipher.trial_stream(master_seed, index, m, rounds)
    key = cipher.key_from_stream(rng, m, rounds)
    total_bits = 8 * m * m
    no_error = np.zeros((m, m), dtype=np.uint8)

    out = []
    flip_counts = [1] + [math.ceil(p * total_bits / 100.0) for p in percents]
    for flips in flip_counts:
        if flips == 0:
            damaged = image
        else:
            positions = rng.choice(total_bits, size=flips, replace=False)
            error = _flip_bits(no_error, positions)
            damaged = image ^ cipher.decrypt(error, key)
        out.append(
            (
                metrics.hamming_percent(image, damaged),
                metrics.psnr(image, damaged),
                metrics.ssim(image, damaged),
            )
        )
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
    A trial therefore decrypts only the sparse error vector e of each row
    and encrypts nothing; the random draws are those of the direct route.
    """
    m = cipher.validate_image(image)
    total_bits = 8 * m * m
    tasks = [
        (cfg.master_seed, m, rounds, w, cfg.error_percents) for w in range(cfg.trials)
    ]
    results = _run_tasks(_errprop_trial, tasks, jobs, _errprop_init, (image,))

    labels: list[tuple[str, float, int]] = [(SINGLE_BIT, 100.0 / total_bits, 1)]
    for p in cfg.error_percents:
        labels.append((PERCENT, p, math.ceil(p * total_bits / 100.0)))

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
    q = cipher.param_bits(m)
    return KeySpaceReport(
        size=m,
        param_bits=q,
        key_bits=4 * q,
        key_space=1 << (4 * q),
        effective_key_space=m**4,
        guesses_per_second=guesses_per_second,
    )
