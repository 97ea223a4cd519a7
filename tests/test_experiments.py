import functools
import itertools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cipher_audit import cipher, cli, experiments, image_io, metrics
from cipher_audit.experiments import ExperimentConfig, Stats

import oracles


def small_cfg(**overrides) -> ExperimentConfig:
    base = dict(sizes=(16,), rounds=(6,), trials=20, master_seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


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

    def test_defaults_mirror_reference_grid(self):
        cfg = ExperimentConfig()
        assert cfg.sizes == (16, 32, 64, 128, 196, 256, 300, 512)
        assert cfg.rounds == (1, 2, 3, 4, 5, 6, 7)
        assert cfg.trials == 1000


def _table_misses(m: int) -> tuple[int, int]:
    """Cache misses that building M's static tables causes in this process."""
    scramble = cipher._scramble_coords.cache_info().misses
    rotation = cipher._rotation_shifts.cache_info().misses
    cipher.build_static_tables(m)
    return (
        cipher._scramble_coords.cache_info().misses - scramble,
        cipher._rotation_shifts.cache_info().misses - rotation,
    )


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
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        assert experiments.usable_cpus() == 1
        assert experiments._worker_count(8, 100) == 1
        assert cli._default_jobs() == 1
        cfg = small_cfg(sizes=(16, 20), rounds=(1,), trials=3)
        assert experiments.uniformity_sweep(cfg, jobs=8) == experiments.uniformity_sweep(cfg)


class TestStaticTablesBeforeFork:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_caller_holds_tables_of_every_size(self, jobs):
        cipher._scramble_coords.cache_clear()
        cipher._rotation_shifts.cache_clear()
        cfg = small_cfg(sizes=(16, 20, 32), rounds=(1, 6), trials=3)
        experiments.uniformity_sweep(cfg, jobs=jobs)
        for m in cfg.sizes:
            assert _table_misses(m) == (0, 0)

    def test_error_propagation_caller_holds_tables(self):
        cipher._scramble_coords.cache_clear()
        cipher._rotation_shifts.cache_clear()
        image = image_io.make_portrait_image(20)
        experiments.error_propagation(small_cfg(trials=2), image, jobs=2, rounds=2)
        assert _table_misses(20) == (0, 0)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="workers inherit tables by fork"
    )
    def test_forked_workers_inherit_tables(self):
        sizes = (16, 20)
        cipher._scramble_coords.cache_clear()
        cipher._rotation_shifts.cache_clear()
        misses = experiments._run_tasks(_table_misses, list(sizes) * 2, 2, sizes=sizes)
        assert misses == [(0, 0)] * 4


class TestSpawnWorkers:
    """Under a spawn start method workers share nothing with the caller but
    the tasks, so these runs match the serial ones only if every input
    reaches the workers through the task."""

    @pytest.fixture(autouse=True)
    def spawn_pool(self, monkeypatch):
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            experiments, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=spawn)
        )
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
        # every trial of a batch recomputed by hand from the documented stream contract
        master_seed, m, rounds, start, stop = 5, 16, 6, 3, 7
        batch = experiments._avalanche_batch((master_seed, m, rounds, start, stop))
        assert len(batch) == stop - start
        for w, (ps, _) in zip(range(start, stop), batch):
            rng = cipher.trial_stream(master_seed, w, m, rounds)
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

    @pytest.mark.parametrize("m", [16, 20, 64])
    def test_avalanche_trial_equals_direct_route(self, m):
        for master_seed in (0, 5, 123):
            for rounds in (1, 2, 6):
                for start, stop in ((0, 32), (7, 8), (5, 12)):
                    batch = experiments._avalanche_batch((master_seed, m, rounds, start, stop))
                    assert batch == [
                        oracles.avalanche_trial((master_seed, m, rounds, index))
                        for index in range(start, stop)
                    ]

    @pytest.mark.parametrize("m", [16, 20, 64])
    def test_errprop_trial_equals_direct_route(self, m):
        image = image_io.make_portrait_image(m)
        percents = (0.0, 0.01, 5.0, 100.0)
        for master_seed in (0, 9):
            for rounds in (2, 6):
                for start, stop in ((0, 4), (3, 4), (9, 12)):
                    batch = experiments._errprop_batch(
                        (master_seed, m, rounds, start, stop, percents, image)
                    )
                    assert batch == [
                        oracles.errprop_trial((master_seed, m, rounds, index, percents), image)
                        for index in range(start, stop)
                    ]

    @pytest.mark.parametrize("m", [16, 20, 64])
    def test_avalanche_batch_scores_equal_hamming_percent(self, m):
        task = (3, m, 2, 4, 13)
        rngs, keys, plains = experiments._draw_trials(*task, single_lsb=True)
        ciphers = cipher.encrypt(plains, keys)
        zeros = np.zeros((m, m), dtype=np.uint8)
        assert experiments._avalanche_batch(task) == [
            (metrics.hamming_percent(zeros, c), metrics.hamming_percent(p, c))
            for p, c in zip(plains, ciphers)
        ]


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

    def test_control_random_scores_near_dof(self):
        cfg = small_cfg(sizes=(64,), rounds=(1,), trials=40)
        report = experiments.uniformity_sweep(cfg, control_random=True)
        # mean of chi2_255 is 255; allow generous sampling slack
        assert 230.0 <= report[0].chi2.mean <= 280.0

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

    @pytest.mark.parametrize("control_random", [False, True])
    @pytest.mark.parametrize("plaintext", [experiments.PLAINTEXT_SINGLE_LSB,
                                           experiments.PLAINTEXT_ALL_ZERO])
    @pytest.mark.parametrize("pixels", LIMITS)
    def test_uniformity_batches(self, pixels, plaintext, control_random, monkeypatch):
        cfg = small_cfg(sizes=(16,), rounds=(1, 6), trials=7)
        default = experiments.uniformity_sweep(cfg, plaintext=plaintext,
                                               control_random=control_random)
        monkeypatch.setattr(experiments, "BATCH_PIXELS", pixels)
        batched = experiments.uniformity_sweep(cfg, plaintext=plaintext,
                                               control_random=control_random)
        assert batched == default

    def test_errorprop_batches(self, monkeypatch):
        image = image_io.make_portrait_image(16)
        cfg = small_cfg(trials=7, error_percents=(0.0, 1.0))
        default = experiments.error_propagation(cfg, image, rounds=2)
        monkeypatch.setattr(experiments, "BATCH_PIXELS", 16 * 16)
        assert experiments.error_propagation(cfg, image, rounds=2) == default

    def test_batch_boundaries(self):
        calls = []

        def record(task):
            calls.append(task[3:5])
            return [None] * (task[4] - task[3])

        cfg = small_cfg(sizes=(256, 512, 16), rounds=(1,), trials=6)
        experiments._sweep(record, cfg, 1)
        assert calls == [(0, 6), (0, 4), (4, 6), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]


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
        corrupted = experiments._flip_bits(data, positions)
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
            assert np.array_equal(experiments._flip_bits(data, positions), expected)


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
            index = cipher._gather_index(keys[start : start + 4096], m)
            distinct.update(row.tobytes() for row in index)
        assert report.key_space == 65536
        assert len(distinct) == report.effective_key_space == 12**4 == 20736

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
