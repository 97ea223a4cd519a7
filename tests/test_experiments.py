import collections
import functools
import itertools
import math
import multiprocessing
import os
import signal
import time
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipher_audit import cipher, cli, experiments, image_io, metrics
from cipher_audit.experiments import ExperimentConfig, Stats

import oracles


def small_cfg(**overrides) -> ExperimentConfig:
    base = dict(sizes=(16,), rounds=(6,), trials=20, master_seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_same_cells(cells, expected):
    """Two _sweep results hold the same (M, rounds) cells in the same order,
    each with equal result arrays of one dtype."""
    assert [(m, r) for m, r, _ in cells] == [(m, r) for m, r, _ in expected]
    for (_, _, values), (_, _, twin) in zip(cells, expected):
        assert values.dtype == twin.dtype
        assert np.array_equal(values, twin)


class TestConfig:
    def test_rejects_bad_size(self):
        with pytest.raises(ValueError, match="multiples of 4"):
            ExperimentConfig(sizes=(15,))

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(trials=0)

    def test_rejects_bad_percent(self):
        with pytest.raises(ValueError, match="percents"):
            ExperimentConfig(error_percents=(120.0,))

    @pytest.mark.parametrize("seed", [-1, -3])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match=f"master seed must be >= 0, got {seed}"):
            ExperimentConfig(master_seed=seed)

    def test_rejects_empty_rounds(self):
        with pytest.raises(ValueError, match="round count"):
            ExperimentConfig(rounds=())

    @pytest.mark.parametrize("rounds", [0, 2**32, 2**63])
    def test_rejects_round_count_out_of_range(self, rounds):
        with pytest.raises(ValueError, match=f"^round counts must be within 1..{2**32 - 1}, got {rounds}$"):
            ExperimentConfig(rounds=(1, rounds))

    def test_rejects_more_than_2_to_the_32_trials(self):
        # each trial index is one 32-bit word of its stream's seed
        with pytest.raises(ValueError, match=f"^trials must be within 1..{2**32}, got {2**32 + 1}$"):
            ExperimentConfig(trials=2**32 + 1)
        assert ExperimentConfig(trials=2**32).trials == 2**32

    def test_numpy_integers_equal_their_int_twins(self):
        cfg = ExperimentConfig(sizes=(np.int32(16),), rounds=(np.uint8(2),), trials=np.int64(2),
                               master_seed=np.uint64(5))
        twin = ExperimentConfig(sizes=(16,), rounds=(2,), trials=2, master_seed=5)
        assert cfg == twin
        assert all(type(v) is int for v in (*cfg.sizes, *cfg.rounds, cfg.trials, cfg.master_seed))
        assert experiments.avalanche_sweep(cfg) == experiments.avalanche_sweep(twin)
        assert experiments.uniformity_sweep(cfg) == experiments.uniformity_sweep(twin)

    @pytest.mark.parametrize("field, value", [
        ("sizes", (16.0,)), ("rounds", (6.0,)), ("trials", 2.5), ("master_seed", 1.5),
        ("trials", np.float64(2.0)),
    ])
    def test_rejects_non_integer_field(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be integral, got "):
            ExperimentConfig(**{field: value})

    def test_defaults_mirror_reference_grid(self):
        cfg = ExperimentConfig()
        assert cfg.sizes == (16, 32, 64, 128, 196, 256, 300, 512)
        assert cfg.rounds == (1, 2, 3, 4, 5, 6, 7)
        assert cfg.trials == 1000


def _table_misses(m: int) -> int:
    """Cache misses that asking for M's static tables causes in this process."""
    misses = cipher.static_tables.cache_info().misses
    cipher.static_tables(m)
    return cipher.static_tables.cache_info().misses - misses


def _in_helper() -> bool:
    """Whether this process is a sweep's helper rather than its caller."""
    return multiprocessing.parent_process() is not None


def _await_helpers() -> None:
    """In the caller: wait until every helper process has ended."""
    while multiprocessing.active_children():
        time.sleep(0.005)


def _yield_to_caller() -> None:
    """In a helper: pause 0.2 s before a batch.  The caller takes its first
    batch as soon as it has started the helpers; without the pause a forked
    helper could run every batch of a small sweep before then."""
    time.sleep(0.2)


def _misses_batch(task: tuple) -> list[list[tuple[int, int]]]:
    """Per round count and trial of a batch: the process that ran it and
    that process's static-table cache misses after an encrypt at the batch's M.
    In the caller it first waits for the helpers to end, so that they take
    every other batch."""
    master_seed, m, rounds, start, stop = task
    if _in_helper():
        _yield_to_caller()
    else:
        _await_helpers()
    cipher.encrypt(np.zeros((m, m), dtype=np.uint8), cipher.CipherKey(1, 2, 3, 4, rounds[0]))
    return [[(os.getpid(), cipher.static_tables.cache_info().misses)] * (stop - start)
            for _ in rounds]


# What _mark_batch reports: a forked helper sees the caller's value, a spawned
# one imports this module afresh.
_CALLER_MARK = "imported"


def _mark_batch(task: tuple) -> list[list[tuple[bool, bool]]]:
    """Per round count and trial of a batch: whether a helper ran it, and
    whether _CALLER_MARK reads "set by the caller" in the process that did.
    In the caller it first waits for the helpers to end, so that they take
    every other batch."""
    master_seed, m, rounds, start, stop = task
    if _in_helper():
        _yield_to_caller()
    else:
        _await_helpers()
    return [[(_in_helper(), _CALLER_MARK == "set by the caller")] * (stop - start) for _ in rounds]


def _failing_batch(task: tuple) -> list[list[float]]:
    """Raises ValueError in a helper, naming the batch's size and largest
    round count, its last.  In the caller it waits for the helpers to end,
    so that one of them takes a batch and its exception crosses the pipe; it
    scores each trial 1.0."""
    master_seed, m, rounds, start, stop = task[:5]
    if _in_helper():
        raise ValueError(f"batch at M={m}, r={rounds[-1]} failed")
    _await_helpers()
    return [[1.0] * (stop - start) for _ in rounds]


def _exiting_batch(task: tuple) -> list[list[float]]:
    """Ends a helper with status 3 on a batch whose round counts include 2.
    In the caller it waits for the helpers to end, so that one of them takes
    a batch; it scores each trial 1.0."""
    master_seed, m, rounds, start, stop = task[:5]
    if not _in_helper():
        _await_helpers()
    elif 2 in rounds:
        os._exit(3)
    return [[1.0] * (stop - start) for _ in rounds]


class _CallerError(Exception):
    """Raised by _caller_failing_batch in the caller."""


def _caller_failing_batch(task: tuple) -> list[list[float]]:
    """Raises _CallerError in the caller; in a helper, sleeps 10 s, then scores each trial 1.0."""
    master_seed, m, rounds, start, stop = task
    if not _in_helper():
        raise _CallerError(f"batch at M={m}, start={start} failed in the caller")
    time.sleep(10)
    return [[1.0] * (stop - start) for _ in rounds]


def _helper_exiting_batch(task: tuple) -> list[list[float]]:
    """Ends a helper with status 3, after a pause.  In the caller it appends
    the batch's start to the file its task names and waits for the helpers
    to end; it scores each trial 1.0."""
    master_seed, m, rounds, start, stop, log = task
    if _in_helper():
        _yield_to_caller()
        os._exit(3)
    with open(log, "a", encoding="ascii") as fh:
        fh.write(f"{start}\n")
    _await_helpers()
    return [[1.0] * (stop - start) for _ in rounds]


def _logging_batch(task: tuple) -> list[list[int]]:
    """Appends one line per run of the batch to the file its task names;
    scores each trial 0 under each round count."""
    master_seed, m, rounds, start, stop, log = task
    with open(log, "a", encoding="ascii") as fh:
        fh.write(f"{m} {start}\n")
    return [[0] * (stop - start) for _ in rounds]


@pytest.fixture
def deadline():
    """Fails a sweep that has not returned within 60 s, where it would hang."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("the sweep did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class _InlineProcess:
    """A worker process that runs its target in this process when started."""

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def terminate(self):
        pass

    def join(self):
        pass


class _CountingContext:
    """The default start method's context, keeping every process it makes."""

    def __init__(self):
        self.context = multiprocessing.get_context()
        self.procs = []

    def __getattr__(self, name):
        return getattr(self.context, name)

    def Process(self, *args, **kwargs):
        proc = self.context.Process(*args, **kwargs)
        self.procs.append(proc)
        return proc


def _use_context(monkeypatch, method):
    """Have _sweep's workers start by the named start method."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    monkeypatch.setattr(experiments, "get_context", functools.partial(multiprocessing.get_context, method))


class TestWorkerCount:
    def test_huge_jobs_clamped_to_cores_and_tasks(self):
        cores = experiments.usable_cpus()
        assert experiments._worker_count(10**6, 10**9) == cores
        assert experiments._worker_count(10**6, 1) == 1
        assert experiments._worker_count(10**6, 3) == min(cores, 3)

    def test_non_positive_jobs_run_serially(self):
        assert experiments._worker_count(0, 50) == 1
        assert experiments._worker_count(-4, 50) == 1

    def test_counts_cpus_in_affinity_set(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was created for a process pinned to one CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(experiments, "get_context", no_pool)
        assert experiments.usable_cpus() == 1
        assert experiments._worker_count(8, 100) == 1
        cfg = small_cfg(sizes=(16, 20), rounds=(1,), trials=3)
        assert experiments.uniformity_sweep(cfg, jobs=8) == experiments.uniformity_sweep(cfg)

    def test_cli_default_jobs_is_usable_cpus(self, monkeypatch):
        # a count that neither the clamp in _worker_count nor a fixed default gives
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 3)
        assert cli.build_parser().parse_args(["uniformity", "--out", "x.csv"]).jobs == 3


@pytest.mark.usefixtures("deadline")
class TestStaticTablesBeforeFork:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # jobs=2 runs on a pool even where this process may use one CPU
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_caller_holds_tables_of_every_size(self, jobs):
        cipher.static_tables.cache_clear()
        cfg = small_cfg(sizes=(16, 20, 32), rounds=(1, 6), trials=3)
        experiments.uniformity_sweep(cfg, jobs=jobs)
        for m in cfg.sizes:
            assert _table_misses(m) == 0

    def test_error_propagation_caller_holds_tables(self, monkeypatch):
        # one trial per batch, so the two trials run on the pool
        monkeypatch.setattr(experiments, "BATCH_PIXELS", 20 * 20)
        cipher.static_tables.cache_clear()
        image = image_io.make_portrait_image(20)
        experiments.error_propagation(small_cfg(trials=2), image, jobs=2, rounds=2)
        assert _table_misses(20) == 0

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="workers inherit tables by fork"
    )
    def test_forked_workers_inherit_tables(self):
        cipher.static_tables.cache_clear()
        cfg = small_cfg(sizes=(16, 20), rounds=(1, 2), trials=2)
        results = [value for _, _, chunk in experiments._sweep(_misses_batch, cfg, 2)
                   for value in chunk]
        # the caller ran one batch and the helper the other
        assert len(results) == 8 and len({pid for pid, _ in results}) == 2
        # the caller's two builds, inherited; the helper built no table of its own
        assert {misses for _, misses in results} == {2}


@pytest.mark.usefixtures("deadline")
class TestSweepOrder:
    """_sweep hands a pool its tasks largest size first, and gives the same
    cells, in cell order, with the same trials, at jobs 1 and 2 under either
    start method."""

    # cells (16, 1), (16, 3), (20, 1), (20, 3); tasks of 3 trials at M=16
    # and 2 at M=20 under both round counts, the last one short
    CFG = small_cfg(sizes=(20, 16), rounds=(3, 1), trials=5)

    @pytest.fixture(autouse=True)
    def split_batches(self, monkeypatch):
        # two workers even where this process may use one CPU
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "BATCH_PIXELS", 2 * 20 * 20)

    def test_pool_takes_largest_cells_first(self, monkeypatch):
        # The inline helper runs to its end when started, so it takes every
        # task index of the shared counter before the caller takes one, and
        # receives the tasks in the order _sweep builds them: one size and
        # trial range each, under every round count, ascending.
        received = []

        def avalanche_batch(task):
            received.append(task)
            return experiments._avalanche_batch(task)

        inline = types.SimpleNamespace(
            Process=_InlineProcess, Value=multiprocessing.Value, Pipe=multiprocessing.Pipe
        )
        monkeypatch.setattr(experiments, "get_context", lambda: inline)
        pooled = experiments._sweep(avalanche_batch, self.CFG, 2)
        cells = [(m, rounds) for _, m, rounds, *_ in received]
        assert cells == [(20, (1, 3))] * 3 + [(16, (1, 3))] * 2
        assert [(start, stop) for _, _, _, start, stop, *_ in received] == \
            [(0, 2), (2, 4), (4, 5), (0, 3), (3, 5)]
        assert_same_cells(pooled, experiments._sweep(experiments._avalanche_batch, self.CFG, 1))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_runs_tasks_by_index(self, monkeypatch, workers):
        # the caller alone, or the inline helper, which takes every index,
        # runs tasks[k] for k = 0, 1, ... and returns each batch under k
        inline = types.SimpleNamespace(
            Process=_InlineProcess, Value=multiprocessing.Value, Pipe=multiprocessing.Pipe
        )
        monkeypatch.setattr(experiments, "get_context", lambda: inline)
        tasks, received = ["c", "a", "b"], []
        batches = experiments._run_pool(lambda task: received.append(task) or task.upper(), tasks, workers)
        assert received == tasks
        assert batches == {0: "C", 1: "A", 2: "B"}

    @pytest.mark.parametrize("method, mark", [("fork", "set by the caller"), ("spawn", "imported")])
    def test_workers_start_by_the_method(self, monkeypatch, method, mark):
        _use_context(monkeypatch, method)
        monkeypatch.setitem(globals(), "_CALLER_MARK", "set by the caller")
        marks = {tuple(value) for _, _, chunk in experiments._sweep(_mark_batch, self.CFG, 2)
                 for value in chunk.tolist()}
        assert marks == {(True, mark == "set by the caller"), (False, True)}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_same_cells_at_one_and_two_jobs(self, monkeypatch, method):
        _use_context(monkeypatch, method)
        serial = experiments._sweep(experiments._avalanche_batch, self.CFG, 1)
        assert [(m, r) for m, r, _ in serial] == [(16, 1), (16, 3), (20, 1), (20, 3)]
        assert all(chunk.shape == (self.CFG.trials, 2) for _, _, chunk in serial)
        assert_same_cells(experiments._sweep(experiments._avalanche_batch, self.CFG, 2), serial)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_error_propagation_cell(self, monkeypatch, method):
        # errorprop's one cell, one trial per batch
        _use_context(monkeypatch, method)
        monkeypatch.setattr(experiments, "BATCH_PIXELS", 16 * 16)
        image = image_io.make_portrait_image(16)
        cfg = small_cfg(rounds=(2,), trials=3)
        percents = (0.0, 1.0)
        serial = experiments._sweep(experiments._errprop_batch, cfg, 1, percents, image)
        assert [(m, r, chunk.shape) for m, r, chunk in serial] == [(16, 2, (3, 3, 3))]
        assert_same_cells(experiments._sweep(experiments._errprop_batch, cfg, 2, percents, image), serial)


class TestSpawnWorkers:
    """Under a spawn start method workers share nothing with the caller but
    the tasks, so these runs match the serial ones only if every input
    reaches the workers through the task."""

    @pytest.fixture(autouse=True)
    def spawn_pool(self, monkeypatch):
        _use_context(monkeypatch, "spawn")
        # two workers even where this process may use one CPU
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        # one trial per batch, so every run has several tasks
        monkeypatch.setattr(experiments, "BATCH_PIXELS", 16 * 16)

    def test_uniformity_sweep(self):
        cfg = small_cfg(sizes=(16,), rounds=(1, 6), trials=3)
        assert experiments.uniformity_sweep(cfg, jobs=2) == experiments.uniformity_sweep(cfg)

    def test_error_propagation(self):
        image = image_io.make_portrait_image(16)
        cfg = small_cfg(trials=3, error_percents=(0.0, 1.0))
        assert experiments.error_propagation(cfg, image, jobs=2, rounds=2) == \
            experiments.error_propagation(cfg, image, rounds=2)


@pytest.mark.usefixtures("deadline")
class TestWorkerFailure:
    """A batch that fails in a worker fails the sweep, without a hang, and
    leaves no worker behind; so does a sweep that succeeds."""

    # cells (16, 1) and (16, 2); three one-trial tasks, each under both round counts
    CFG = small_cfg(sizes=(16,), rounds=(1, 2), trials=3)

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        # two workers even where this process may use one CPU
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "BATCH_PIXELS", 16 * 16)

    def test_succeeding_sweep_leaves_no_worker(self):
        assert experiments.uniformity_sweep(self.CFG, jobs=2) == \
            experiments.uniformity_sweep(self.CFG)
        assert multiprocessing.active_children() == []

    def test_exception_in_a_worker_reaches_the_caller(self):
        # the helper's first batch raises; the caller, having waited for the
        # helper to end, finds the exception in its pipe before its next take
        begin = time.perf_counter()
        with pytest.raises(ValueError, match=r"^batch at M=16, r=2 failed$"):
            experiments._sweep(_failing_batch, self.CFG, 2)
        assert time.perf_counter() - begin < 8.0
        assert multiprocessing.active_children() == []

    def test_cli_reports_a_worker_exception_in_one_line(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(experiments, "_cipher_batch", _failing_batch)
        argv = ["uniformity", "--sizes", "16", "--rounds", "1,2", "--trials", "3",
                "--jobs", "2", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: batch at M=16, r=") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()
        assert multiprocessing.active_children() == []

    def test_cli_reports_a_worker_exit_in_one_line(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(experiments, "_cipher_batch", _exiting_batch)
        argv = ["uniformity", "--sizes", "16", "--rounds", "1,2", "--trials", "3",
                "--jobs", "2", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: a sweep worker exited with code 3 without sending its results\n"
        assert not (tmp_path / "x.csv").exists()
        assert multiprocessing.active_children() == []

    def test_worker_that_exits_raises_child_process_error(self):
        with pytest.raises(ChildProcessError, match=r"^a sweep worker exited with code 3 without sending its results$"):
            experiments._sweep(_exiting_batch, self.CFG, 2)
        assert multiprocessing.active_children() == []

    def test_exception_in_the_caller_terminates_the_helper(self, monkeypatch):
        # the caller's first batch raises; the helper, asleep in its batch,
        # is terminated and joined instead of waited for
        context = _CountingContext()
        monkeypatch.setattr(experiments, "get_context", lambda: context)
        begin = time.perf_counter()
        with pytest.raises(_CallerError, match=r"^batch at M=16, start=[012] failed in the caller$"):
            experiments._sweep(_caller_failing_batch, self.CFG, 2)
        assert time.perf_counter() - begin < 8.0
        assert [proc.exitcode for proc in context.procs] == [-signal.SIGTERM]
        assert multiprocessing.active_children() == []

    def test_helper_exit_ends_the_sweep_before_the_order_runs_out(self, tmp_path):
        # the helper dies in its first batch while the caller runs its own;
        # the caller sees the closed pipe after that batch, with 19 of the
        # 20 tasks never started
        log = tmp_path / "caller.log"
        cfg = small_cfg(sizes=(16,), rounds=(1, 2), trials=20)
        with pytest.raises(ChildProcessError, match=r"^a sweep worker exited with code 3 without sending its results$"):
            experiments._sweep(_helper_exiting_batch, cfg, 2, str(log))
        assert len(log.read_text(encoding="ascii").splitlines()) == 1
        assert multiprocessing.active_children() == []


class TestHelperCount:
    """--jobs counts the processes that run batches, the caller among them:
    a sweep at jobs J starts J - 1 helpers, and at jobs 1 none."""

    # cells (16, 1) and (16, 6); seven one-trial tasks, more than any J here
    CFG = small_cfg(sizes=(16,), rounds=(1, 6), trials=7)

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        # three workers even where this process may use fewer CPUs
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 3)
        monkeypatch.setattr(experiments, "BATCH_PIXELS", 16 * 16)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_jobs_minus_one_helpers_start(self, monkeypatch, jobs):
        serial = experiments.uniformity_sweep(self.CFG)
        context = _CountingContext()
        monkeypatch.setattr(experiments, "get_context", lambda: context)
        assert experiments.uniformity_sweep(self.CFG, jobs=jobs) == serial
        assert len(context.procs) == jobs - 1
        assert [proc.exitcode for proc in context.procs] == [0] * (jobs - 1)
        assert multiprocessing.active_children() == []

    def test_one_job_starts_nothing(self, monkeypatch):
        def no_context(*args, **kwargs):
            raise AssertionError("a context was asked for at jobs=1")

        monkeypatch.setattr(experiments, "get_context", no_context)
        cells = experiments.uniformity_sweep(self.CFG, jobs=1)
        assert [(c.size, c.rounds, c.chi2.count) for c in cells] == [(16, 1, 7), (16, 6, 7)]
        assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("deadline")
def test_shared_counter_runs_each_task_once(monkeypatch, tmp_path):
    # six workers, more than a small machine's CPUs, take 200 one-trial
    # batches from the shared counter: a lost update would run a task twice
    workers = 6
    monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)
    monkeypatch.setattr(experiments, "BATCH_PIXELS", 16 * 16)
    log = tmp_path / "runs.log"
    cfg = small_cfg(sizes=(16, 20), rounds=(1, 2), trials=100)
    experiments._sweep(_logging_batch, cfg, workers, str(log))
    runs = log.read_text(encoding="ascii").splitlines()
    assert sorted(runs) == sorted(f"{m} {start}" for m in (16, 20) for start in range(100))
    assert multiprocessing.active_children() == []


class TestStats:
    def test_ordering_invariant(self):
        stats = Stats.from_values([3.0, 1.0, 2.0])
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.std >= 0.0
        assert stats.count == 3

    def test_skips_non_finite(self):
        stats = Stats.from_values([1.0, math.inf, 3.0])
        assert stats.count == 2
        assert stats.mean == pytest.approx(2.0)

    def test_all_non_finite(self):
        stats = Stats.from_values([math.inf, math.inf])
        assert stats.count == 0
        assert stats.mean == math.inf

    # up to 1100 trials: numpy's pairwise sum splits a row in 128-value
    # blocks, so the default 1000 trials recurse three levels deep
    @given(st.integers(1, 60), st.integers(1, 1100), st.integers(-3, 6), st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(0, 59), st.integers(0, 1099),
                              st.sampled_from([math.inf, -math.inf, math.nan])), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_from_values_of_each_row(self, cells, trials, magnitude, seed, holes):
        # row-wise min, mean, max and std equal the 1-D reductions bit for
        # bit; a row with an inf or nan takes from_values' filter path
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((cells, trials)) * 10.0**magnitude + rng.uniform(-1, 1, (cells, 1))
        for row, column, hole in holes:
            values[row % cells, column % trials] = hole
        rows = Stats.from_rows(values)
        assert len(rows) == cells
        for stats, row in zip(rows, values):
            expected = Stats.from_values(row)
            assert stats == expected
            assert all(type(v) is float for v in (stats.minimum, stats.mean, stats.maximum, stats.std))
            assert type(stats.count) is int


class TestAvalancheSweep:
    def test_saturates_at_six_rounds(self):
        report = experiments.avalanche_sweep(small_cfg(sizes=(16, 32), rounds=(1, 6)))
        cells = {(cell.size, cell.rounds): cell for cell in report}
        for m in (16, 32):
            assert cells[(m, 1)].ps.mean < 2.0
            assert 48.0 <= cells[(m, 6)].ps.mean <= 52.0
            # Diff saturates with PS: plain and cipher become independent
            assert 48.0 <= cells[(m, 6)].diff.mean <= 52.0

    def test_mean_ps_non_decreasing_up_to_saturation(self):
        cfg = small_cfg(rounds=(1, 2, 3, 4, 5, 6), trials=15)
        report = experiments.avalanche_sweep(cfg)
        means = [cell.ps.mean for cell in report]
        for earlier, later in zip(means, means[1:]):
            assert later >= earlier - 0.5, f"PS regressed: {means}"

    @pytest.mark.parametrize("m", [16, 32, 64, 128, 196, 256, 300, 512])
    def test_frontier_is_log15_of_half_the_image_bits(self, m):
        # A one-bit difference weighs 15 bits after round 1 and about 15 times
        # more each round until it nears half of the 8*M*M bits, so mean PS
        # first reaches 40% at the least k with 15**k >= 4*M*M: 3 at M=16,
        # 6 at M=512, the paper's "at least 6 rounds".
        frontier = next(k for k in itertools.count(1) if 15**k >= 4 * m * m)
        cfg = small_cfg(sizes=(m,), rounds=(frontier - 1, frontier))
        below, reached = (cell.ps.mean for cell in experiments.avalanche_sweep(cfg))
        assert below < 40.0 <= reached

    def test_cells_ordered_and_counted(self):
        cfg = small_cfg(sizes=(32, 16), rounds=(2, 1), trials=3)
        report = experiments.avalanche_sweep(cfg)
        assert [(c.size, c.rounds) for c in report] == [(16, 1), (16, 2), (32, 1), (32, 2)]
        assert all(c.ps.count == 3 for c in report)

    def test_deterministic_across_workers(self):
        cfg = small_cfg(trials=8)
        serial = experiments.avalanche_sweep(cfg, jobs=1)
        parallel = experiments.avalanche_sweep(cfg, jobs=4)
        assert serial == parallel

    def test_trial_uses_derived_key_stream(self):
        # every trial of a batch recomputed by hand from the documented stream
        # contract, under each of the task's round counts
        master_seed, m, start, stop = 5, 16, 3, 7
        batches = oracles.avalanche_percents(
            experiments._avalanche_batch((master_seed, m, (6, 2), start, stop)), m)
        assert [len(batch) for batch in batches] == [stop - start] * 2
        for (rounds, w), (ps, _) in zip(itertools.product((6, 2), range(start, stop)),
                                        itertools.chain(*batches)):
            rng = np.random.default_rng((master_seed, w, m, rounds))
            key = cipher.key_from_stream(rng, m, rounds)
            assert key == oracles.derive_trial_key(master_seed, w, m, rounds)
            x, y = (int(v) for v in rng.integers(0, m, size=2))
            flipped = np.zeros((m, m), dtype=np.uint8)
            flipped[x, y] = 1
            expected_ps = metrics.hamming_percent(
                cipher.encrypt(np.zeros((m, m), dtype=np.uint8), key),
                cipher.encrypt(flipped, key),
            )
            assert ps == expected_ps


class TestLinearityShortcuts:
    """The trials skip work by E(0) = 0 and D(E(I) xor e) = I xor D(e); the
    direct route in oracles must give exactly the same numbers."""

    # M=4: one block per image; M=12: _reduce's division path
    @pytest.mark.parametrize("m", [4, 12, 16, 20, 64])
    def test_avalanche_trial_equals_direct_route(self, m):
        for master_seed in (0, 5, 123):
            for rounds in ((6, 2, 1), (2,)):
                for start, stop in ((0, 32), (7, 8), (5, 12)):
                    batch = experiments._avalanche_batch((master_seed, m, rounds, start, stop))
                    assert oracles.avalanche_percents(batch, m) == [
                        [oracles.avalanche_trial((master_seed, m, r, index))
                         for index in range(start, stop)]
                        for r in rounds
                    ]

    @pytest.mark.parametrize("m", [16, 20, 64])
    def test_errprop_trial_equals_direct_route(self, m):
        image = image_io.make_portrait_image(m)
        percents = (0.0, 0.01, 5.0, 100.0)
        for master_seed in (0, 9):
            for start, stop in ((0, 4), (3, 4), (9, 12)):
                batch = experiments._errprop_batch(
                    (master_seed, m, (6, 2), start, stop, percents, image)
                )
                expected = [
                    [oracles.errprop_trial((master_seed, m, r, index, percents), image)
                     for index in range(start, stop)]
                    for r in (6, 2)
                ]
                assert len(batch) == len(expected)
                for scores, trials in zip(batch, expected):
                    assert scores.dtype == np.float64
                    assert np.array_equal(scores, trials)

    def test_errprop_batch_builds_one_index_per_trial(self, monkeypatch):
        # a trial's rows share its one parameter row: a row per error vector
        # would build a (5, M*M) index, five times the memory
        m, trials = 64, 3
        built = oracles.count_index_builds(monkeypatch)
        task = (5, m, (6,), 0, trials, (0.1, 1.0, 5.0, 50.0), image_io.make_portrait_image(m))
        experiments._errprop_batch(task)
        assert built == [(1, m * m)] * trials

    def test_error_propagation_decrypts_dense_only(self, monkeypatch, portrait_256):
        # With no percentage rows a trial decrypts one one-bit error vector,
        # a stack that would start sparse if decryption had sparse rounds.
        def no_sparse_round(*args):
            raise AssertionError("decryption ran a sparse round")

        monkeypatch.setattr(cipher, "_sparse_round", no_sparse_round)
        m, trials = 256, 3
        cfg = small_cfg(trials=trials, error_percents=())
        built = oracles.count_index_builds(monkeypatch)
        [row] = experiments.error_propagation(cfg, portrait_256)
        assert built == [(1, m * m)] * trials
        rows = [oracles.errprop_trial((cfg.master_seed, m, experiments.SECURE_ROUNDS, index, ()), portrait_256)[0]
                for index in range(trials)]
        assert (row.dif, row.psnr, row.ssim) == tuple(Stats.from_values(column) for column in zip(*rows))

    @pytest.mark.parametrize("m", [16, 20, 64])
    def test_avalanche_batch_scores_equal_hamming_percent(self, m):
        task = (3, m, (5, 2), 4, 13)
        zeros = np.zeros((m, m), dtype=np.uint8)
        expected = []
        params, framed = experiments._draw_trials(*task)
        for r, params, framed in zip((5, 2), params, framed, strict=True):
            keys = [oracles.trial_draws(3, index, m, r)[1] for index in range(4, 13)]
            assert np.array_equal(params, oracles.reduced_params(keys, m))
            # the drawn bits are in encryption's frame
            plains = oracles.unframe(oracles.one_hot(framed, m))
            ciphers = oracles.per_image(cipher.encrypt, plains, keys)
            expected.append([(metrics.hamming_percent(zeros, c), metrics.hamming_percent(p, c))
                             for p, c in zip(plains, ciphers)])
        assert oracles.avalanche_percents(experiments._avalanche_batch(task), m) == expected

    @pytest.mark.parametrize("single_lsb", [False, True])
    def test_score_sees_each_round_count_once(self, single_lsb):
        # round counts ascending, as _sweep orders a task's round counts,
        # with the ciphertexts of per-image encrypt under the trials' keys;
        # both stacks are in encryption's frame
        m, rounds, start, stop = 20, (1, 2, 5), 4, 9
        received = []

        def score(plains, ciphers):
            received.append((plains.copy(), ciphers.copy()))
            return [len(received)] * len(plains)

        batch = experiments._cipher_batch((3, m, rounds, start, stop, single_lsb, score))
        assert batch == [[1] * 5, [2] * 5, [3] * 5]
        for r, (plains, ciphers) in zip(rounds, received, strict=True):
            plains, ciphers = oracles.unframe(plains), oracles.unframe(ciphers)
            draws = [oracles.trial_draws(3, index, m, r) for index in range(start, stop)]
            for plain, (_, _, (x, y)) in zip(plains, draws, strict=True):
                assert np.flatnonzero(plain).tolist() == ([x * m + y] if single_lsb else [])
            keys = [key for _, key, _ in draws]
            np.testing.assert_array_equal(ciphers, oracles.per_image(cipher.encrypt, plains, keys))


    def test_covered_batches_build_no_cipher_key(self, monkeypatch):
        # the trials reach the cipher as one parameter array: no trial key
        # becomes a CipherKey on the way
        built = []
        post_init = cipher.CipherKey.__post_init__
        monkeypatch.setattr(cipher.CipherKey, "__post_init__",
                            lambda key: built.append(key) or post_init(key))
        cfg = small_cfg(sizes=(16, 20, 64), rounds=(1, 6), trials=30)
        assert len(experiments.avalanche_sweep(cfg)) == 6
        assert len(experiments.uniformity_sweep(cfg)) == 6
        assert built == []
        key = cipher.CipherKey(1, 2, 3, 4, rounds=1)
        assert built == [key]


class TestScoreContract:
    """_cipher_batch scores stacks in encryption's frame, where every
    16-byte block holds its bytes moved by one fixed permutation.  A score
    must give the same values for any permutation of a block's 16
    positions applied to every block of both stacks."""

    @given(st.permutations(range(16)), st.integers(0, 2**32 - 1),
           st.sampled_from([4, 12, 16, 20, 64]), st.integers(1, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_scores_blind_to_one_in_block_permutation(self, sigma, seed, m, count, one_bit):
        rng = np.random.default_rng(seed)
        plains = rng.integers(0, 256, (count, m, m), dtype=np.uint8)
        if one_bit:
            plains = np.zeros_like(plains)
            plains[np.arange(count), rng.integers(0, m, count), rng.integers(0, m, count)] = 1
        ciphers = rng.integers(0, 256, (count, m, m), dtype=np.uint8)
        ciphers[:, : m // 4] = 0  # a histogram far from uniform as well

        def moved(stack):
            return stack.reshape(-1, 16)[:, list(sigma)].reshape(stack.shape)

        for score in (experiments._chi_squares,):
            scores = score(plains, ciphers)
            assert len(scores) == count
            assert np.array_equal(score(moved(plains), moved(ciphers)), scores)


class TestUniformitySweep:
    def test_six_rounds_uniform_one_round_not(self):
        report = experiments.uniformity_sweep(small_cfg(rounds=(1, 6), trials=30))
        by_rounds = {cell.rounds: cell for cell in report}
        assert by_rounds[6].chi2.mean <= metrics.CHI2_THRESHOLD
        assert by_rounds[1].chi2.mean > metrics.CHI2_THRESHOLD

    def test_all_zero_plaintext_is_degenerate(self):
        # cipher of the all-zero image is all-zero: chi2 = 255 * M^2 exactly
        cfg = small_cfg(sizes=(16,), rounds=(6,), trials=4)
        report = experiments.uniformity_sweep(cfg, plaintext=experiments.PLAINTEXT_ALL_ZERO)
        cell = report[0]
        assert cell.chi2.minimum == cell.chi2.maximum == pytest.approx(255.0 * 16 * 16)

    def test_unknown_plaintext_rejected(self):
        with pytest.raises(ValueError, match="plaintext"):
            experiments.uniformity_sweep(small_cfg(), plaintext="lena")

    def test_threshold_column(self):
        report = experiments.uniformity_sweep(small_cfg(trials=2))
        assert report[0].threshold == 293.0

    def test_deterministic_across_workers(self):
        cfg = small_cfg(sizes=(16, 20), rounds=(1, 6), trials=5)
        serial = experiments.uniformity_sweep(cfg, jobs=1)
        parallel = experiments.uniformity_sweep(cfg, jobs=3)
        assert serial == parallel


class TestBatching:
    """Reports do not depend on how a cell's trials are cut into batches."""

    # 16 x 16 images: batches of 1 and 3 trials, and the default (whole cell)
    LIMITS = (16 * 16, 3 * 16 * 16)

    @pytest.mark.parametrize("pixels", LIMITS)
    def test_avalanche_batches(self, pixels, monkeypatch):
        cfg = small_cfg(sizes=(16,), rounds=(1, 6), trials=7)
        default = experiments.avalanche_sweep(cfg)
        monkeypatch.setattr(experiments, "BATCH_PIXELS", pixels)
        assert experiments.avalanche_sweep(cfg) == default

    @pytest.mark.parametrize("plaintext", [experiments.PLAINTEXT_SINGLE_LSB,
                                           experiments.PLAINTEXT_ALL_ZERO])
    @pytest.mark.parametrize("pixels", LIMITS)
    def test_uniformity_batches(self, pixels, plaintext, monkeypatch):
        cfg = small_cfg(sizes=(16,), rounds=(1, 6), trials=7)
        default = experiments.uniformity_sweep(cfg, plaintext=plaintext)
        monkeypatch.setattr(experiments, "BATCH_PIXELS", pixels)
        assert experiments.uniformity_sweep(cfg, plaintext=plaintext) == default

    def test_errorprop_batches(self, monkeypatch):
        image = image_io.make_portrait_image(16)
        cfg = small_cfg(trials=7, error_percents=(0.0, 1.0))
        default = experiments.error_propagation(cfg, image, rounds=2)
        monkeypatch.setattr(experiments, "BATCH_PIXELS", 16 * 16)
        assert experiments.error_propagation(cfg, image, rounds=2) == default

    def test_batch_boundaries(self):
        # at jobs=1 the caller runs the tasks alone, in the order _sweep
        # builds them: largest M first, each size's batches in trial order
        calls = []

        def record(task):
            calls.append(task[1:2] + task[3:5])
            return [[None] * (task[4] - task[3])]

        cfg = small_cfg(sizes=(256, 512, 16), rounds=(1,), trials=6)
        experiments._sweep(record, cfg, 1)
        assert calls == [(512, 0, 1), (512, 1, 2), (512, 2, 3), (512, 3, 4), (512, 4, 5), (512, 5, 6),
                         (256, 0, 4), (256, 4, 6), (16, 0, 6)]


def _recording_batch(task: tuple) -> list[list[tuple[int, int, int, int]]]:
    """(M, rounds, trial, task start) for each round count and trial of a batch; no cipher."""
    master_seed, m, rounds, start, stop = task
    return [[(m, r, trial, start) for trial in range(start, stop)] for r in rounds]


class TestTaskCutting:
    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(1, 150).map(lambda k: 4 * k), min_size=1, max_size=3,
                          unique=True),
           rounds=st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True),
           trials=st.integers(1, 400))
    def test_every_trial_once_and_no_stack_grows(self, sizes, rounds, trials):
        cfg = small_cfg(sizes=tuple(sizes), rounds=tuple(rounds), trials=trials)
        serial = experiments._sweep(_recording_batch, cfg, 1)
        assert [(m, r) for m, r, _ in serial] == \
            [(m, r) for m in sorted(sizes) for r in sorted(rounds)]
        for m, r, values in serial:
            # each (M, r, trial) exactly once, in trial order
            assert values[:, :3].tolist() == [[m, r, trial] for trial in range(trials)]
            # a cell's share of a task is no larger than a whole batch's stack
            shares = collections.Counter(values[:, 3].tolist())
            assert max(shares.values()) <= max(1, experiments.BATCH_PIXELS // (m * m))
        # two workers even where this process may use one CPU
        with mock.patch.object(experiments, "usable_cpus", lambda: 2):
            assert_same_cells(experiments._sweep(_recording_batch, cfg, 2), serial)


class TestErrorPropagation:
    def test_rows_and_zero_percent(self, portrait_64):
        cfg = small_cfg(trials=6, error_percents=(0.0, 1.0))
        report = experiments.error_propagation(cfg, portrait_64)
        assert [row.mode for row in report] == ["single-bit", "percent", "percent"]
        single, zero, one = report
        assert single.flipped_bits == 1
        # zero flipped bits: uncorrupted channel
        assert zero.dif.maximum == 0.0
        assert zero.ssim.mean == pytest.approx(1.0)
        assert zero.psnr.count == 0  # all +inf, skipped from aggregation
        # one percent of bits: avalanche in the decryption direction
        assert 45.0 <= one.dif.mean <= 55.0
        assert one.flipped_bits == math.ceil(0.01 * 8 * 64 * 64)

    def test_single_bit_damage_near_half(self, portrait_64):
        cfg = small_cfg(trials=10, error_percents=())
        report = experiments.error_propagation(cfg, portrait_64)
        assert len(report) == 1
        row = report[0]
        assert 48.0 <= row.dif.mean <= 52.0
        assert row.ssim.mean < 0.2
        assert row.psnr.mean < 15.0

    def test_deterministic_across_workers(self, portrait_64):
        cfg = small_cfg(trials=6, error_percents=(0.1,))
        serial = experiments.error_propagation(cfg, portrait_64, jobs=1)
        parallel = experiments.error_propagation(cfg, portrait_64, jobs=3)
        assert serial == parallel

    def test_flip_bits_flips_exactly_requested(self):
        data = np.zeros((4, 4), dtype=np.uint8)
        positions = np.array([0, 9, 127])
        corrupted = oracles.flip_bits_packed(data, positions)
        assert oracles.popcount_bytes(corrupted.tobytes()) == 3
        assert corrupted[0, 0] == 1  # bit 0
        assert corrupted[0, 1] == 2  # bit 9 = byte 1, bit 1
        assert corrupted[3, 3] == 0x80  # bit 127

    def test_flip_bits_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        for flips in (1, 100, 8 * 16 * 16):
            positions = rng.choice(8 * 16 * 16, size=flips, replace=False)
            expected = oracles.flip_bits(data, positions)
            assert np.array_equal(oracles.flip_bits_packed(data, positions), expected)

    def test_error_vectors_match_flip_oracle(self):
        # rows: one bit, 0% (no draw), 1% and 100% of the 8*M*M bits
        m = 16
        counts = experiments._flip_counts(m, (0.0, 1.0, 100.0))
        assert counts == [1, 0, 21, 8 * m * m]
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        stack = experiments._error_vectors(rng, m, counts)
        zero = np.zeros((m, m), dtype=np.uint8)
        expected = [
            oracles.flip_bits_packed(zero, twin.choice(8 * m * m, size=flips, replace=False))
            if flips else zero
            for flips in counts
        ]
        assert stack.dtype == np.uint8
        assert np.array_equal(stack, np.stack(expected))
        assert not stack[1].any()
        assert np.all(stack[3] == 0xFF)
        assert rng.integers(2**32) == twin.integers(2**32)  # the same draws, no more


class TestKeyspaceReport:
    def test_m256_is_32_bits(self):
        report = experiments.keyspace_report(256)
        assert report.param_bits == 8
        assert report.key_bits == 32
        assert report.key_space == 2**32

    def test_m16_is_16_bits(self):
        assert experiments.keyspace_report(16).key_bits == 16

    def test_m512_is_36_bits(self):
        report = experiments.keyspace_report(512)
        assert report.param_bits == 9
        assert report.key_bits == 36

    def test_brute_force_time(self):
        report = experiments.keyspace_report(256, guesses_per_second=1e6)
        assert report.brute_force_seconds == pytest.approx(2**32 / 1e6)

    def test_power_of_two_effective_equals_nominal(self):
        report = experiments.keyspace_report(256)
        assert report.key_space == report.effective_key_space == 2**32

    def test_effective_count_is_distinct_permutations_m12(self):
        # every 16-bit key at M=12, counted by the one-round gather index it selects
        m = 12
        report = experiments.keyspace_report(m)
        keys = list(itertools.product(range(1 << report.param_bits), repeat=4))
        distinct = set()
        for start in range(0, len(keys), 4096):
            index = oracles.gather_rows(oracles.reduced_params(keys[start : start + 4096], m), m, False)
            distinct.update(row.tobytes() for row in index)
        assert report.key_space == 65536
        assert len(distinct) == report.effective_key_space == 12**4 == 20736

    @pytest.mark.parametrize("m", [4, 8])
    def test_effective_count_holds_at_every_round_count(self, m):
        # every key in [0, M)^4 encrypts three seeded images to a triple of
        # ciphertexts that no other key gives, at each round count 1..8;
        # the stack runs in encryption's frame, which keeps distinct rows distinct
        keys = np.array(list(itertools.product(range(m), repeat=4)), dtype=np.int32)
        images = oracles.frame(np.random.default_rng(m).integers(0, 256, (3, m * m), dtype=np.uint8))
        stack = np.tile(images.reshape(-1), len(keys))
        params = np.repeat(keys, 3, axis=0)
        for rounds in range(1, 9):
            triples = cipher._run(stack, params, m, rounds, False).reshape(len(keys), -1)
            assert len(np.unique(triples, axis=0)) == experiments.keyspace_report(m).effective_key_space == m**4

    def test_brute_force_uses_effective_count(self):
        report = experiments.keyspace_report(300, guesses_per_second=1e6)
        assert report.key_space == 2**36
        assert report.effective_key_space == 300**4
        assert report.brute_force_seconds == pytest.approx(300**4 / 1e6)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            experiments.keyspace_report(2)

    @pytest.mark.parametrize("rate", [0.0, -5.0, math.nan, math.inf])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="guess rate"):
            experiments.keyspace_report(16, guesses_per_second=rate)

    @pytest.mark.parametrize("m, rate", [(4, 1e-308), (4, 5e-324), (32764, 1e-291)])
    def test_rate_whose_search_time_overflows_rejected(self, m, rate):
        # M^4 / rate is beyond the largest float: no inf seconds reported
        with pytest.raises(ValueError, match=r"^the guess rate .* is too small"):
            experiments.keyspace_report(m, guesses_per_second=rate)

    def test_smallest_rates_with_a_finite_search_time(self):
        assert experiments.keyspace_report(4, guesses_per_second=1e-300).brute_force_seconds == \
            pytest.approx(256 / 1e-300)
        assert math.isfinite(experiments.keyspace_report(32764, guesses_per_second=1e-290).brute_force_seconds)
