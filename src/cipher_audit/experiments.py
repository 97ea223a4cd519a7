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
from dataclasses import dataclass, replace
from multiprocessing import get_context
from multiprocessing.connection import wait
from typing import ClassVar

import numpy as np

from . import cipher, metrics, streams

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
            cipher.check_side(m)
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
    threshold: ClassVar[float] = metrics.CHI2_THRESHOLD


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

    @property
    def brute_force_seconds(self) -> float:
        return self.effective_key_space / self.guesses_per_second


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports
    one (a taskset or cpuset can pin it to fewer than the machine has)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(jobs: int, n_tasks: int) -> int:
    """Processes worth starting: no more than requested, usable CPUs, or tasks."""
    return max(1, min(jobs, usable_cpus(), n_tasks))


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
    start..stop-1 in order.  Everything else a batch needs travels in its task.

    The static cipher tables of every size are built first, in this process,
    whether the batches then run serially or not.  Before the workers start,
    the scramble positions of every size are built as well: forked workers
    inherit both, and the loaded numpy.random, where each fresh worker would
    otherwise build them again.  Under a spawn or forkserver start method the
    workers build their own; the results are the same.

    With more than one worker, the batches run in _run_pool's processes
    while this process waits.  The workers take the tasks largest first, by
    M*M*rounds (stable, so a cell's batches keep their order), so that no
    large cell starts last while the other workers sit idle; the results
    are put back in task order.
    """
    cells = [(m, r) for m in sorted(cfg.sizes) for r in sorted(cfg.rounds)]
    tasks = []
    for m, r in cells:
        step = max(1, BATCH_PIXELS // (m * m))
        for start in range(0, cfg.trials, step):
            stop = min(start + step, cfg.trials)
            tasks.append((cfg.master_seed, m, r, start, stop, *extra))
    for m in cfg.sizes:
        cipher.static_tables(m)
    workers = _worker_count(jobs, len(tasks))
    if workers == 1:
        batches = [batch_fn(task) for task in tasks]
    else:
        for m in cfg.sizes:
            cipher.scramble_positions(m)
        order = sorted(range(len(tasks)), key=lambda i: -tasks[i][1] ** 2 * tasks[i][2])
        done = _run_pool(batch_fn, tasks, order, workers)
        batches = [done[i] for i in range(len(tasks))]
    results = [value for batch in batches for value in batch]
    return [
        (m, r, results[i * cfg.trials : (i + 1) * cfg.trials]) for i, (m, r) in enumerate(cells)
    ]


def _pool_worker(batch_fn, tasks, order, counter, conn) -> None:
    """Run tasks[order[k]] for each position k this worker takes from counter.

    Sends (None, {task index: batch}) once the order runs out, or
    (exception, None) for the first batch that raises, through conn.
    """
    results = {}
    try:
        while True:
            with counter.get_lock():
                k = counter.value
                counter.value = k + 1
            if k >= len(order):
                break
            results[order[k]] = batch_fn(tasks[order[k]])
    except Exception as exc:
        conn.send((exc, None))
    else:
        conn.send((None, results))
    conn.close()


def _run_pool(batch_fn, tasks, order, workers: int) -> dict:
    """{task index: batch} of every task, from workers _pool_worker processes
    of the default start method.

    The workers share one counter of positions in order.  A batch that
    raises raises here; a worker that exits without sending its results
    raises RuntimeError.  Every worker is joined before this returns or
    raises, and after an error those still running are terminated first.
    """
    context = get_context()
    counter = context.Value("q", 0)
    procs, pending, batches = [], [], {}
    try:
        for _ in range(workers):
            receive, send = context.Pipe(duplex=False)
            proc = context.Process(target=_pool_worker, args=(batch_fn, tasks, order, counter, send))
            proc.start()
            procs.append(proc)
            pending.append(receive)
            # Now only the worker holds the sending end, so the pipe ends when the
            # worker does, and no worker forked later inherits it.
            send.close()
        while pending:
            for receive in wait(pending):
                pending.remove(receive)
                try:
                    error, results = receive.recv()
                except EOFError:
                    raise RuntimeError("a sweep worker exited without sending its results") from None
                if error is not None:
                    raise error
                batches.update(results)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
    return batches


def _trial_streams(master_seed: int, m: int, rounds: int, indices, single_lsb: bool):
    """Each trial of indices through its own Generator, as (rng, key, pixel).

    Trial index draws from default_rng((master_seed, index, M, rounds)): its
    key's four q-bit parameters, then, if single_lsb, the row and column of
    the pixel whose LSB is set in the otherwise all-zero plaintext (pixel is
    None without).  rng is yielded after those draws, so a sweep that keeps
    drawing goes on from the trial's own stream.
    """
    for index in indices:
        rng = np.random.default_rng((master_seed, index, m, rounds))
        key = cipher.key_from_stream(rng, m, rounds)
        pixel = tuple(int(v) for v in rng.integers(0, m, size=2)) if single_lsb else None
        yield rng, key, pixel


def _draw_trials(master_seed: int, m: int, rounds: int, start: int, stop: int, single_lsb: bool):
    """Key parameters and plaintexts of trials start..stop-1: the draws of _trial_streams, batched.

    numpy draws each bounded value from one 32-bit half of a 64-bit word,
    low half first, so a trial's six draws are the six halves of the first
    three words of its stream, which streams.first_words gives for the whole
    batch.  By numpy's rule (Lemire's), a draw below n takes x to
    (x*n) >> 32 and rejects x when (x*n) mod 2**32 < (2**32 - n) mod n.  The
    key's bound 2**q never rejects and takes the top q bits; a coordinate,
    bound M, may.  A trial with a rejected coordinate, or every trial of a
    batch that first_words does not cover, is drawn through _trial_streams.
    The parameters are cipher._run's: (a, b, rx, ry) mod M, int32, one row
    per trial; a trial that first_words covers builds no CipherKey.
    """
    count = stop - start
    plains = np.zeros((count, m, m), dtype=np.uint8)
    params = np.empty((count, 4), dtype=np.int32)
    words = streams.first_words(master_seed, start, stop, m, rounds, 3)
    if words is None:
        replay = range(count)
    else:
        halves = words.astype("<u8", copy=False).view("<u4")
        params[:] = halves[:, :4] >> (32 - cipher.param_bits(m))
        replay = []
        if single_lsb:
            scaled = halves[:, 4:] * np.uint64(m)
            rows, cols = (scaled >> 32).T
            plains[np.arange(count), rows, cols] = 1
            rejected = ((scaled & 0xFFFFFFFF) < (2**32 - m) % m).any(axis=1)
            replay = np.flatnonzero(rejected).tolist()
    draws = _trial_streams(master_seed, m, rounds, [start + i for i in replay], single_lsb)
    for i, (_, key, pixel) in zip(replay, draws):
        params[i] = key.params()
        if single_lsb:
            plains[i] = 0
            plains[i][pixel] = 1
    params %= m
    return params, plains


# ---------------------------------------------------------------------------
# avalanche (plaintext sensitivity)
# ---------------------------------------------------------------------------

def _avalanche_batch(task: tuple[int, int, int, int, int]) -> list[tuple[float, float]]:
    """PS and Diff of each trial of a batch.

    PS compares E(I) with E(I') for the all-zero I.  The cipher is linear
    over GF(2), so E(0) = 0 for every key, and PS is the bit weight of E(I'):
    only I' is encrypted, the whole batch in one cipher._run call.  Both
    scores of every trial come from two bit-percentage reductions over the
    batch.
    """
    _, m, rounds, _, _ = task
    params, plains = _draw_trials(*task, single_lsb=True)
    ciphers = cipher._run(plains.reshape(-1), params, m, rounds, False).reshape(plains.shape)
    return list(zip(metrics.bit_percents(ciphers), metrics.bit_percents(plains ^ ciphers)))


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
    single_lsb = plaintext == PLAINTEXT_SINGLE_LSB
    if control_random:
        # Sanity oracle: uniform random bytes in place of the ciphertext
        # should score around 255 (the degrees of freedom).
        draws = _trial_streams(master_seed, m, rounds, range(start, stop), single_lsb)
        data = [rng.integers(0, 256, size=m * m, dtype=np.uint8) for rng, _, _ in draws]
    else:
        params, plains = _draw_trials(master_seed, m, rounds, start, stop, single_lsb)
        data = cipher._run(plains.reshape(-1), params, m, rounds, False).reshape(plains.shape)
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

def _flip_counts(m: int, percents: tuple[float, ...]) -> list[int]:
    """Bits flipped in each row of a trial: one, then ceil(p * T / 100) per percentage."""
    total_bits = 8 * m * m
    return [1] + [math.ceil(p * total_bits / 100.0) for p in percents]


def _error_vectors(rng: np.random.Generator, m: int, counts: list[int]) -> np.ndarray:
    """The error vectors of one trial's rows, as one (rows, M, M) stack.

    Row i flips counts[i] distinct bit positions, which rng.choice draws
    without replacement, row by row (a row that flips no bits draws
    nothing); position p is bit p % 8 of byte p // 8 (row-major).  The
    bits are added into a zeroed stack: distinct positions add distinct
    powers of two to a byte, so the sum is their OR.
    """
    errors = np.zeros((len(counts), m * m), dtype=np.uint8)
    for row, flips in zip(errors, counts):
        if flips:
            positions = rng.choice(8 * m * m, size=flips, replace=False)
            np.add.at(row, positions >> 3, (1 << (positions & 7)).astype(np.uint8))
    return errors.reshape(-1, m, m)


def _errprop_batch(task: tuple) -> list[list[tuple[float, float, float]]]:
    """Dif, PSNR and SSIM of every row of each trial of a batch.

    A trial draws its key, then its error vectors e.  The damaged
    decryption is I xor D(e), so only the error vectors are decrypted: a
    trial's rows as one stack under the trial's key.  Dif is the bit
    percentage of D(e).  The window sums of I are computed once per batch.
    """
    master_seed, m, rounds, start, stop, percents, image = task
    counts = _flip_counts(m, percents)
    reference = metrics._reference_sums(image)
    out = []
    for rng, key, _ in _trial_streams(master_seed, m, rounds, range(start, stop), False):
        damage = cipher.decrypt(_error_vectors(rng, m, counts), key)
        out.append([
            (dif, *metrics._psnr_ssim(reference, d))
            for dif, d in zip(metrics.bit_percents(damage), image ^ damage)
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
    An image smaller than one SSIM window is rejected before any trial runs.
    """
    m = cipher.validate_image(image)
    metrics.check_ssim_image(image)
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
    cipher.check_side(m)
    if not (math.isfinite(guesses_per_second) and guesses_per_second > 0):
        raise ValueError(f"the guess rate must be finite and above 0, got {guesses_per_second}")
    bits = cipher.key_bits(m)
    return KeySpaceReport(
        size=m,
        param_bits=cipher.param_bits(m),
        key_bits=bits,
        key_space=1 << bits,
        effective_key_space=m**4,
        guesses_per_second=guesses_per_second,
    )
