"""Experiment sweeps: plaintext sensitivity, histogram uniformity, error propagation.

Every sweep runs W independent trials per grid cell.  A trial is fully
determined by (master_seed, trial_index, M, rounds): the key and every other
random draw come from one counter-derived stream, so reports are bit-identical
no matter how trials are scheduled across workers.  Aggregation happens in
task order after all trials return.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
        # Stored as Python integers: a numpy integer behaves as its int twin,
        # and a float is refused rather than truncated into a different sweep.
        for name in ("sizes", "rounds", "trials", "master_seed"):
            value = getattr(self, name)
            try:
                value = tuple(map(operator.index, value)) if name in ("sizes", "rounds") else operator.index(value)
            except TypeError:
                raise TypeError(f"{name} must be integral, got {value!r}") from None
            object.__setattr__(self, name, value)
        if not self.sizes:
            raise ValueError("at least one image size is required")
        for m in self.sizes:
            cipher.check_side(m)
        if not self.rounds:
            raise ValueError("at least one round count is required")
        for r in self.rounds:
            cipher.check_rounds(r)
        # Each trial index is one 32-bit word of its stream's seed.
        if not 1 <= self.trials <= 2**32:
            raise ValueError(f"trials must be within 1..{2**32}, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"the master seed must be >= 0, got {self.master_seed}")
        for p in self.error_percents:
            if not 0.0 <= p <= 100.0:
                raise ValueError(f"error percents must be within [0, 100], got {p}")


@dataclass(frozen=True)
class Stats:
    """min/mean/max/std (population) of one metric over the trials it was
    finite for; count says how many that was.

    _column_stats builds every sweep's Stats with from_rows, from one
    (cells * columns, trials) array; from_values takes one column's values.
    """

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

    @classmethod
    def from_rows(cls, values: np.ndarray) -> list["Stats"]:
        """from_values of each row of a 2-D array, in one row-wise pass.

        numpy reduces each contiguous row of a C-ordered float64 array with
        the routine it uses on a 1-D array (pairwise summation for the mean
        and the std), so every figure equals from_values' to the last bit.
        A row that holds a non-finite value goes through from_values, which
        drops those values.
        """
        arr = np.ascontiguousarray(values, dtype=np.float64)
        finite = np.isfinite(arr).all(axis=1)
        rows = arr if finite.all() else arr[finite]
        figures = zip(rows.min(axis=1).tolist(), rows.mean(axis=1).tolist(),
                      rows.max(axis=1).tolist(), rows.std(axis=1).tolist())
        count = arr.shape[1]
        return [cls(*next(figures), count) if whole else cls.from_values(row)
                for whole, row in zip(finite.tolist(), arr)]


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


def _sweep(batch_fn, cfg: ExperimentConfig, jobs: int, *extra) -> list[tuple[int, int, np.ndarray]]:
    """Per-trial results of every (M, rounds) cell, as (M, rounds, rows).

    A task is one size and one range of trials under every round count:
    each size's trials are cut into consecutive batches of at most
    BATCH_PIXELS pixels per round count (at least one trial).  batch_fn maps
    the task (master_seed, M, rounds, start, stop, *extra), rounds
    ascending, to the finished values of trials start..stop-1 under each
    round count in that order, as one float64 (trials, columns) array:
    _avalanche_batch, with no extra, _cipher_batch, whose extra is
    (single_lsb, score), for uniformity, or _errprop_batch.  Everything else
    a batch needs travels in its task.  A cell's rows are its size's task
    arrays concatenated in trial order, so row i is trial i.

    The static cipher tables of every size are built first, in this process:
    forked helpers inherit them, and the loaded numpy.random, where each
    fresh helper would otherwise build them again.  Under a spawn or
    forkserver start method the helpers build their own; the results are
    the same.

    The batches run in _run_pool, in this process and, with more than one
    worker, in workers - 1 helper processes beside it.  The tasks are built
    in the order they run: largest M first (every task carries the same
    round counts), each size's batches in trial order, so that no large
    task starts last while the other workers sit idle.  The results are
    grouped by M and come back cell by cell, in ascending (M, rounds).
    """
    rounds = tuple(sorted(cfg.rounds))
    tasks = []
    for m in sorted(set(cfg.sizes), reverse=True):
        step = max(1, BATCH_PIXELS // (m * m))
        for start in range(0, cfg.trials, step):
            tasks.append((cfg.master_seed, m, rounds, start, min(start + step, cfg.trials), *extra))
    for m in cfg.sizes:
        cipher.static_tables(m)
    done = _run_pool(batch_fn, tasks, _worker_count(jobs, len(tasks)))
    by_size = {}
    for k, (_, m, *_) in enumerate(tasks):
        by_size.setdefault(m, []).append(done[k])
    return [(m, r, np.concatenate(parts))
            for m in sorted(cfg.sizes) for r, parts in zip(rounds, zip(*by_size[m]))]


def _column_stats(cells) -> list[list[Stats]]:
    """The Stats of every column of each cell's (trials, columns) rows, per
    cell in column order: one Stats.from_rows pass over the cells' rows
    transposed into one (cells * columns, trials) array."""
    stats = iter(Stats.from_rows(np.concatenate([rows.T for _, _, rows in cells])))
    return [[next(stats) for _ in range(rows.shape[1])] for _, _, rows in cells]


def _next_position(counter) -> int:
    """The next position of the shared counter, taken under its lock."""
    with counter.get_lock():
        k = counter.value
        counter.value = k + 1
    return k


def _run_batches(batch_fn, tasks, take) -> dict:
    """{task index: batch} of tasks[k] for each index k that take()
    returns, until one runs past the tasks.  The task loop of the caller
    and of every helper."""
    results = {}
    while (k := take()) < len(tasks):
        results[k] = batch_fn(tasks[k])
    return results


def _pool_worker(batch_fn, tasks, counter, conn) -> None:
    """A helper process: run the task loop on the shared counter.

    Sends (None, {task index: batch}) once the tasks run out, or
    (exception, None) for the first batch that raises, through conn.
    """
    try:
        results = _run_batches(batch_fn, tasks, functools.partial(_next_position, counter))
    except Exception as exc:
        conn.send((exc, None))
    else:
        conn.send((None, results))
    conn.close()


def _run_pool(batch_fn, tasks, workers: int) -> dict:
    """{task index: batch} of every task, from workers processes: this one
    and workers - 1 _pool_worker helpers of the default start method.

    With one worker nothing is started: this process runs the tasks in
    order.  Otherwise the helpers and this process share one counter of
    task indices, and before each index it takes this process
    checks the helpers' pipes without blocking, so a helper's failure ends the sweep
    after at most one more batch here.  A batch that raises, here or in a
    helper, raises here; a helper that exits without sending its results
    raises ChildProcessError with its exit code.  Every helper is joined
    before this returns or raises, and after an error those still running
    are terminated first.
    """
    if workers == 1:
        return _run_batches(batch_fn, tasks, itertools.count().__next__)
    context = get_context()
    counter = context.Value("q", 0)
    procs, pending, batches = [], {}, {}

    def collect(timeout):
        for receive in wait(list(pending), timeout):
            proc = pending.pop(receive)
            try:
                error, results = receive.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(
                    f"a sweep worker exited with code {proc.exitcode} without sending its results"
                ) from None
            if error is not None:
                raise error
            batches.update(results)

    def take():
        collect(0)
        return _next_position(counter)

    try:
        for _ in range(workers - 1):
            receive, send = context.Pipe(duplex=False)
            proc = context.Process(target=_pool_worker, args=(batch_fn, tasks, counter, send))
            proc.start()
            procs.append(proc)
            pending[receive] = proc
            # Now only the helper holds the sending end, so the pipe ends when the
            # helper does, and no helper forked later inherits it.
            send.close()
        batches.update(_run_batches(batch_fn, tasks, take))
        while pending:
            collect(None)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
    return batches


def _trial_streams(master_seed: int, m: int, rounds: int, indices):
    """Each trial of indices through its own Generator, as (rng, params).

    Trial index draws from default_rng((master_seed, index, M, rounds)) its
    key's four q-bit parameters, yielded as cipher._run's int32 row
    (a, b, rx, ry) mod M.  rng is yielded after that draw, so a sweep that
    keeps drawing goes on from the trial's own stream: the single-LSB pixel
    is rng.integers(0, M, size=2), its row and column.
    """
    for index in indices:
        rng = np.random.default_rng((master_seed, index, m, rounds))
        yield rng, cipher._key_row(cipher.key_from_stream(rng, m, rounds), m)


def _draw_trials(master_seed: int, m: int, rounds: tuple[int, ...], start: int, stop: int):
    """Key parameters and single-LSB pixels of trials start..stop-1 under
    each round count, as (params, framed) arrays: the draws of
    _trial_streams and the pixel after them, batched.

    params is int32 (round counts, trials, 4): cipher._run's rows (a, b,
    rx, ry) mod M, one per trial; no trial builds a CipherKey.  framed is
    intp (round counts, trials): the position, in encryption's frame, of
    the byte whose LSB the trial's single-LSB plaintext sets, the pixel at
    natural position p = row*M + column being at cipher._framed(p).  The
    round counts are in the order given; each batch function builds its
    one-hot stacks from framed.

    numpy draws each bounded value from one 32-bit half of a 64-bit word,
    low half first, so a trial's six draws are the six halves of the first
    three words of its stream, which streams.first_words gives for every
    (round count, trial) of the batch.  By numpy's rule (Lemire's), a draw
    below n takes x to (x*n) >> 32 and rejects x when (x*n) mod 2**32 <
    (2**32 - n) mod n.  The key's bound 2**q never rejects and takes the top
    q bits; a coordinate, bound M, may.  A (round count, trial) whose pixel
    numpy rejects draws its pixel from the Generator of _trial_streams.
    """
    halves = streams.first_words(master_seed, start, stop, m, rounds).astype("<u8", copy=False).view("<u4")
    params = ((halves[..., :4] >> (32 - cipher.param_bits(m))) % m).astype(np.int32)
    scaled = halves[..., 4:] * np.uint64(m)
    pixels = (scaled >> 32).astype(np.intp)
    for k, i in np.argwhere(((scaled & 0xFFFFFFFF) < (2**32 - m) % m).any(axis=2)).tolist():
        [(rng, _)] = _trial_streams(master_seed, m, rounds[k], [start + i])
        pixels[k, i] = rng.integers(0, m, size=2)
    return params, cipher._framed(pixels[..., 0] * m + pixels[..., 1])


def _cipher_batch(task: tuple) -> list[np.ndarray]:
    """Scores of each trial of a batch, per round count: uniformity's route through the cipher.

    The task ends in (single_lsb, score).  Each round count's trials, drawn
    by _draw_trials, are encrypted in one cipher._run call: the single-LSB
    plaintexts that framed gives, or with single_lsb false all-zero ones.
    score(plains, ciphers) maps the two (trials, M, M) stacks to one float64
    (trials, columns) array.  Both stacks are in encryption's frame, not in
    the image's byte order: every 16-byte block holds its bytes moved by one
    fixed permutation.  So a score must return the same values for any
    permutation of the 16 positions applied to every block of both stacks,
    as a bit weight and a byte histogram do.
    """
    master_seed, m, rounds, start, stop, single_lsb, score = task
    params, framed = _draw_trials(master_seed, m, rounds, start, stop)
    count, n = stop - start, m * m
    offsets = np.arange(0, count * n, n)
    scores = []
    for k, r in enumerate(rounds):
        plains = np.zeros(count * n, dtype=np.uint8)
        if single_lsb:
            plains[framed[k] + offsets] = 1
        ciphers = cipher._run(plains, params[k], m, r, False)
        scores.append(score(plains.reshape(count, m, m), ciphers.reshape(count, m, m)))
    return scores


# ---------------------------------------------------------------------------
# avalanche (plaintext sensitivity)
# ---------------------------------------------------------------------------

def _avalanche_batch(task: tuple) -> list[np.ndarray]:
    """PS and Diff percentages of each trial of a batch, per round count, as
    a float64 (trials, 2) array.

    PS compares E(I) with E(I') for the all-zero I; the cipher is linear
    over GF(2), so E(0) = 0 and PS is the bit weight of E(I').  Diff is the
    weight of I' xor E(I').  In encryption's frame a round is a block XOR,
    then a gather and a rotation.  So each round count's stack runs r - 1
    rounds through cipher._run and one cipher._block_xor, to y, and both
    weights are read from y; no ciphertext is formed:
    - the gather and the rotation only move bits, so PS is the weight of y;
    - I' sets bit 0 of the byte at frame position f, which the draws give.
      The gather brings byte _source(u[f], v[f], key) of the trial's image
      to f, and the rotation by s = shift[f] brings bit (8 - s) mod 8 of it
      to bit 0.  With c that bit of y, Diff = PS + 1 - 2c.
    Every _source position of a task is evaluated in one call.  The int64
    weights become percentages in one float64 operation, 100.0 * w / (8*M*M).
    """
    master_seed, m, rounds, start, stop = task
    params, framed = _draw_trials(master_seed, m, rounds, start, stop)
    count, n = stop - start, m * m
    offsets = np.arange(0, count * n, n)
    u, v, shift = cipher.static_tables(m)[:3]
    source = cipher._source(u[framed], v[framed], *params.transpose(2, 0, 1), m) + offsets
    bit = (8 - shift[framed]) & 7
    percents = []
    for k, r in enumerate(rounds):
        plains = np.zeros(count * n, dtype=np.uint8)
        plains[framed[k] + offsets] = 1
        y = cipher._block_xor(cipher._run(plains, params[k], m, r - 1, False))
        ps = metrics.bit_weights(y.reshape(-1, n))
        weights = np.stack([ps, ps + 1 - 2 * ((y[source[k]] >> bit[k]) & 1)], axis=1)
        percents.append(100.0 * weights / (8 * n))
    return percents


def avalanche_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[SweepCell]:
    """PS (ciphertext change from a one-bit plaintext change) and Diff
    (plain-vs-cipher distance of the flipped image) per grid cell: the two
    columns of _avalanche_batch's rows.
    """
    cells = _sweep(_avalanche_batch, cfg, jobs)
    return [SweepCell(m, r, *stats) for (m, r, _), stats in zip(cells, _column_stats(cells))]


# ---------------------------------------------------------------------------
# uniformity (chi-square of ciphertext histograms)
# ---------------------------------------------------------------------------

def _chi_squares(plains, ciphers) -> np.ndarray:
    """Chi-square of each ciphertext's byte histogram, as a float64 (trials, 1)
    column; the plaintexts are not scored."""
    return np.array([[metrics.chi_square(metrics.byte_histogram(c))] for c in ciphers])


def uniformity_sweep(
    cfg: ExperimentConfig,
    jobs: int = 1,
    plaintext: str = PLAINTEXT_SINGLE_LSB,
) -> list[UniformityCell]:
    """Chi-square of ciphertext byte histograms per grid cell.

    The default plaintext carries a single set LSB: the cipher is linear, so
    the all-zero image encrypts to itself for every key and round (chi-square
    255 * M * M, the single-bin maximum).  That degenerate mode is available
    as plaintext="all-zero" to demonstrate the weakness.  The yardstick is
    closed-form: for N uniform random bytes the chi-square has mean 255 and
    variance 510 * (1 - 1/N).
    """
    if plaintext not in (PLAINTEXT_SINGLE_LSB, PLAINTEXT_ALL_ZERO):
        raise ValueError(f"unknown plaintext mode {plaintext!r}")
    cells = _sweep(_cipher_batch, cfg, jobs, plaintext == PLAINTEXT_SINGLE_LSB, _chi_squares)
    return [UniformityCell(m, r, *stats) for (m, r, _), stats in zip(cells, _column_stats(cells))]


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


def _errprop_batch(task: tuple) -> list[np.ndarray]:
    """Dif, PSNR and SSIM of every row of each trial of a batch, per round
    count, as one float64 (trials, rows * 3) array: the three scores of
    each row in turn, rows in order.

    A trial draws its key, then its error vectors e.  The damaged
    decryption is I xor D(e), so only the error vectors are decrypted: a
    trial's rows as one stack in one cipher._run call under the trial's one
    parameter row, so one gather index serves every row.  Dif is the bit
    percentage of D(e), from one lane popcount pass over the stack.  The
    window sums of I are computed once per batch.
    """
    master_seed, m, rounds, start, stop, percents, image = task
    counts = _flip_counts(m, percents)
    reference = metrics._reference_sums(image)
    out = []
    for r in rounds:
        cell = np.empty((stop - start, len(counts), 3))
        trials = _trial_streams(master_seed, m, r, range(start, stop))
        for scores, (rng, params) in zip(cell, trials):
            errors = _error_vectors(rng, m, counts)
            damage = cipher._run(errors.reshape(-1), params[np.newaxis], m, r, True).reshape(errors.shape)
            scores[:, 0] = metrics.bit_percents(damage)
            scores[:, 1:] = [metrics._psnr_ssim(reference, d) for d in image ^ damage]
        out.append(cell.reshape(stop - start, -1))
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
    A row's Dif, PSNR and SSIM Stats are three of the cell's columns.  An
    image smaller than one SSIM window is rejected before any trial runs.
    """
    m = cipher.validate_image(image)
    metrics.check_ssim_image(image)
    cell = replace(cfg, sizes=(m,), rounds=(rounds,))
    [stats] = _column_stats(_sweep(_errprop_batch, cell, jobs, cfg.error_percents, image))
    return [ErrorPropagationRow(*row) for row in zip(
        [SINGLE_BIT] + [PERCENT] * len(cfg.error_percents),
        [100.0 / (8 * m * m), *cfg.error_percents],
        _flip_counts(m, cfg.error_percents),
        stats[0::3], stats[1::3], stats[2::3],
    )]


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
    report = KeySpaceReport(
        size=m,
        param_bits=cipher.param_bits(m),
        key_bits=bits,
        key_space=1 << bits,
        effective_key_space=m**4,
        guesses_per_second=guesses_per_second,
    )
    if not math.isfinite(report.brute_force_seconds):
        raise ValueError(f"the guess rate {guesses_per_second} is too small: the search time over M^4 keys overflows")
    return report
