"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  Sweeps run at the documented desk scale (100 trials per cell, 50
for 512x512) with the correspondingly widened avalanche tolerance; the CLI
reproduces the full-scale study with --trials 1000.
"""

import os
import time

import numpy as np
import pytest

from cipher_audit import cipher, cli, experiments, metrics
from cipher_audit.experiments import ExperimentConfig

import oracles

GRID_SIZES = (16, 32, 64, 128, 196, 256, 300, 512)
MASTER_SEED = 2024
JOBS = min(8, os.cpu_count() or 1)

# Desk-scale tolerance: +-1.0 around the avalanche midpoint at 100 trials
# (the full 1000-trial study narrows it to [49.5, 50.5]).
PS_LO, PS_HI = 49.0, 51.0


def _report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def avalanche_cells():
    """Avalanche sweep over the full size grid at rounds 1, 6 and 7."""
    cells = {}
    cfg = ExperimentConfig(sizes=tuple(m for m in GRID_SIZES if m < 512),
                           rounds=(1, 6, 7), trials=100, master_seed=MASTER_SEED)
    for cell in experiments.avalanche_sweep(cfg, jobs=JOBS):
        cells[(cell.size, cell.rounds)] = cell
    cfg_big = ExperimentConfig(sizes=(512,), rounds=(1, 6, 7), trials=50,
                               master_seed=MASTER_SEED)
    for cell in experiments.avalanche_sweep(cfg_big, jobs=JOBS):
        cells[(cell.size, cell.rounds)] = cell
    return cells


class TestCriterion1Roundtrip:
    def test_roundtrip_200_random_configurations(self):
        start = time.monotonic()
        rng = np.random.default_rng(MASTER_SEED)
        for trial in range(200):
            m = int(rng.choice([4, 16, 64, 256]))
            rounds = int(rng.integers(1, 9))
            image = rng.integers(0, 256, (m, m), dtype=np.uint8)
            key = cipher.key_from_stream(rng, m, rounds)
            restored = cipher.decrypt(cipher.encrypt(image, key), key)
            assert np.array_equal(restored, image), f"roundtrip broke at M={m}, r={rounds}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        _report("1 roundtrip", f"200 random (I, K, r) bit-exact in {elapsed:.1f}s")


class TestCriterion2AvalancheSaturation:
    def test_saturation_at_six_and_seven_rounds(self, avalanche_cells):
        means = {}
        for m in GRID_SIZES:
            for rounds in (6, 7):
                mean = avalanche_cells[(m, rounds)].ps.mean
                means[(m, rounds)] = mean
                assert PS_LO <= mean <= PS_HI, f"PS mean {mean:.4f} at M={m}, r={rounds}"
        detail = ", ".join(f"{m}:{means[(m, 6)]:.2f}" for m in GRID_SIZES)
        _report("2 avalanche saturation", f"r=6 means within [{PS_LO}, {PS_HI}]: {detail}")


class TestCriterion3OneRoundWeakness:
    def test_one_round_is_weak_and_shrinks_with_size(self, avalanche_cells):
        means = [avalanche_cells[(m, 1)].ps.mean for m in GRID_SIZES]
        for m, mean in zip(GRID_SIZES, means):
            if m >= 32:
                assert mean < 1.0, f"PS mean {mean:.4f} at M={m}, r=1"
        assert all(a > b for a, b in zip(means, means[1:])), "not strictly decreasing in M"
        _report("3 one-round weakness",
                f"r=1 means {means[0]:.4f} down to {means[-1]:.6f}, strictly decreasing")


class TestCriterion4Uniformity:
    def test_chi_square_uniform_at_six_rounds(self):
        cfg = ExperimentConfig(sizes=GRID_SIZES, rounds=(6,), trials=100,
                               master_seed=MASTER_SEED)
        report = experiments.uniformity_sweep(cfg, jobs=JOBS)
        means = {cell.size: cell.chi2.mean for cell in report}
        for m, mean in means.items():
            assert mean <= metrics.CHI2_THRESHOLD, f"chi2 mean {mean:.1f} at M={m}, r=6"
        detail = ", ".join(f"{m}:{mean:.1f}" for m, mean in sorted(means.items()))
        _report("4 uniformity (r=6)", f"chi2 means <= 293: {detail}")

    def test_all_zero_plaintext_is_maximally_non_uniform_at_one_round(self):
        sizes = tuple(m for m in GRID_SIZES if m >= 64)
        cfg = ExperimentConfig(sizes=sizes, rounds=(1,), trials=5, master_seed=MASTER_SEED)
        report = experiments.uniformity_sweep(
            cfg, jobs=1, plaintext=experiments.PLAINTEXT_ALL_ZERO
        )
        for cell in report:
            expected = 255.0 * cell.size**2  # single-bin histogram, exactly
            assert cell.chi2.mean > 1e6
            assert cell.chi2.mean == pytest.approx(expected)
        _report("4 uniformity (r=1, all-zero)",
                f"chi2 = 255*M^2 > 1e6 for M in {sizes}")


@pytest.fixture(scope="module")
def errorprop_rows(portrait_256):
    cfg = ExperimentConfig(trials=100, master_seed=MASTER_SEED,
                           error_percents=(0.01, 0.1, 1.0, 5.0))
    return experiments.error_propagation(cfg, portrait_256, jobs=JOBS, rounds=6)


class TestCriterion5ErrorPropagation:
    def test_single_bit_statistics(self, errorprop_rows):
        row = errorprop_rows[0]
        assert row.mode == experiments.SINGLE_BIT
        assert 49.5 <= row.dif.mean <= 50.5, f"Dif mean {row.dif.mean:.4f}"
        assert row.dif.std < 0.3, f"Dif std {row.dif.std:.4f}"
        assert 8.8 <= row.psnr.mean <= 9.8, f"PSNR mean {row.psnr.mean:.4f}"
        assert row.ssim.mean < 0.05, f"SSIM mean {row.ssim.mean:.4f}"
        _report("5 error propagation (single bit)",
                f"Dif {row.dif.mean:.4f}+-{row.dif.std:.4f}, "
                f"PSNR {row.psnr.mean:.4f} dB, SSIM {row.ssim.mean:.4f}")

    def test_percentage_modes_stay_near_half(self, errorprop_rows):
        details = []
        for row in errorprop_rows[1:]:
            assert row.mode == experiments.PERCENT
            assert 49.0 <= row.dif.mean <= 51.0, \
                f"Dif mean {row.dif.mean:.4f} at p={row.percent}"
            details.append(f"{row.percent}%:{row.dif.mean:.2f}")
        _report("5 error propagation (percent sweep)", ", ".join(details))


class TestCriterion6DiffusionMatrix:
    def test_full_rank_and_inverse(self):
        matrix = cipher.build_diffusion_matrix()
        rank = oracles.gf2_rank(matrix)
        assert rank == 16
        inverse = oracles.gf2_inverse(matrix)
        product = (matrix.astype(np.int64) @ inverse.astype(np.int64)) % 2
        assert np.array_equal(product, np.eye(16, dtype=np.int64))
        # decryption reuses the block XOR because A^-1 = A^T
        assert np.array_equal(inverse, matrix.T)
        _report("6 diffusion matrix", "GF(2) rank 16, A*A^-1 = I and A^-1 = A^T")


class TestCriterion7CatMapBijectivity:
    def test_exhaustive_permutation_check(self):
        rng = np.random.default_rng(MASTER_SEED)
        for m in (4, 8, 16, 32, 64):
            for _ in range(100):
                key = cipher.key_from_stream(rng, m, 1)
                # one round's fused gather index: in-block move, cat map, scramble
                index = cipher._stack_index(oracles.reduced_params([key], m), m, False)
                hits = np.bincount(index, minlength=m * m)
                assert hits.size == m * m and np.all(hits == 1), \
                    f"not a bijection at M={m}, key={key}"
        _report("7 cat-map bijectivity",
                "fused gather index exhaustive, M in {4,8,16,32,64} x 100 keys")


class TestCriterion8KeySpace:
    def test_serialized_key_length(self):
        for m in (4, 16, 64, 128, 196, 256, 300, 512):
            expected_bits = 4 * cipher.param_bits(m)
            key = oracles.derive_trial_key(MASTER_SEED, 0, m, 1)
            assert len(oracles.key_to_hex(key, m)) * 4 == expected_bits
        assert cipher.key_bits(256) == 32
        assert experiments.keyspace_report(256).key_space == 2**32
        _report("8 key space", "serialized keys are 4*ceil(log2 M) bits; M=256 -> 32 bits")


class TestCriterion9Determinism:
    def test_avalanche_csv_identical_at_1_and_8_workers(self, tmp_path):
        outputs = []
        for jobs in (1, 8):
            path = tmp_path / f"jobs{jobs}.csv"
            code = cli.main([
                "avalanche", "--sizes", "16,32", "--rounds", "1..3",
                "--trials", "10", "--seed", str(MASTER_SEED),
                "--jobs", str(jobs), "--out", str(path),
            ])
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        _report("9 determinism", "cmd_avalanche byte-identical at 1 and 8 workers")
