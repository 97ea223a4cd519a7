import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipher_audit import metrics

import oracles


class TestHammingPercent:
    def test_identical_is_zero(self):
        data = bytes(range(32))
        assert metrics.hamming_percent(data, data) == 0.0

    def test_complement_is_hundred(self):
        x = bytes(range(32))
        y = bytes(v ^ 0xFF for v in x)
        assert metrics.hamming_percent(x, y) == 100.0

    def test_single_bit_in_16_bytes(self):
        x = bytes(16)
        y = bytes([1]) + bytes(15)
        assert metrics.hamming_percent(x, y) == pytest.approx(0.78125)  # 100/128

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            metrics.hamming_percent(bytes(4), bytes(5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.hamming_percent(b"", b"")

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    @settings(max_examples=50)
    def test_symmetric_and_bounded(self, x, y):
        if len(x) != len(y):
            x, y = x[: min(len(x), len(y))] or b"\0", y[: min(len(x), len(y))] or b"\0"
        forward = metrics.hamming_percent(x, y)
        assert forward == metrics.hamming_percent(y, x)
        assert 0.0 <= forward <= 100.0
        assert (forward == 0.0) == (x == y)

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=30)
    def test_matches_popcount_oracle(self, x):
        y = bytes((v + 37) % 256 for v in x)
        expected = 100.0 * oracles.popcount_bytes(bytes(a ^ b for a, b in zip(x, y))) / (8 * len(x))
        assert metrics.hamming_percent(x, y) == pytest.approx(expected)

    def test_accepts_arrays(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = a.copy()
        b[0, 0] = 255
        assert metrics.hamming_percent(a, b) == pytest.approx(100.0 * 8 / 128)

    def test_bit_percents_per_row_match_popcount_oracle(self):
        stack = np.random.default_rng(4).integers(0, 256, (5, 12, 12), dtype=np.uint8)
        stack[0] = 0
        expected = [100.0 * oracles.popcount_bytes(s.tobytes()) / (8 * s.size) for s in stack]
        percents = metrics.bit_percents(stack)
        assert percents.dtype == np.float64
        assert np.array_equal(percents, expected)

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 17, 4097])
    def test_lanes_and_last_bytes_match_byte_popcount(self, length):
        # 8-byte lanes plus length % 8 bytes counted one by one, on rows that
        # start at every offset of a lane (a slice of a wider buffer)
        rng = np.random.default_rng(length)
        wide = rng.integers(0, 256, (6, length + 3), dtype=np.uint8)
        wide[0] = 0
        wide[1] = 0xFF
        for offset in range(4):
            rows = wide[:, offset : offset + length]
            weights = metrics.bit_weights(rows)
            assert weights.dtype == np.int64
            assert np.array_equal(weights, oracles.row_bit_weights(rows))
            assert weights[1] == 8 * length
            assert np.array_equal(metrics.bit_percents(rows),
                                  [100.0 * int(w) / (8 * length) for w in oracles.row_bit_weights(rows)])
        x, y = wide[2, :length].tobytes(), wide[3, 1 : length + 1].tobytes()
        expected = 100.0 * oracles.popcount_bytes(bytes(a ^ b for a, b in zip(x, y))) / (8 * length)
        assert metrics.hamming_percent(x, y) == expected


def _half_lanes(extra: int) -> np.ndarray:
    """A 512 x 512 buffer with half of its 8-byte lanes nonzero, plus extra more."""
    data = np.zeros(512 * 512, dtype=np.uint8)
    count = data.size // 16 + extra
    data.reshape(-1, 8)[:count, 3] = np.arange(count) % 255 + 1
    return data


def _one_byte() -> np.ndarray:
    data = np.zeros(512 * 512, dtype=np.uint8)
    data[77777] = 201
    return data


class TestByteHistogram:
    """The sparse route (the bytes of the nonzero lanes and the tail, then
    the other zeros added to bin 0) counts what np.bincount counts, on either
    side of its threshold."""

    @pytest.mark.parametrize("data, route", [
        (np.zeros(512 * 512, dtype=np.uint8), "sparse"),
        (_one_byte(), "sparse"),
        (_half_lanes(0), "sparse"),
        (_half_lanes(1), "dense"),
        (np.random.default_rng(8).integers(0, 256, 512 * 512, dtype=np.uint8), "dense"),
        (bytes(4101), "sparse"),
        (bytes(4096 + 16) + bytes([5] + [0] * 12 + [0, 9, 9]), "sparse"),  # the last 2 lanes set
        (bytes(4096 + 40) + bytes([200, 0, 7]), "sparse"),  # the tail holds the nonzero bytes
        (bytes([3] * 4099), "dense"),
        (bytes(8), "sparse"),  # one zero lane
        (bytes(2047), "sparse"),
        (b"", "sparse"),
    ], ids=["all-zero", "one-byte", "at-threshold", "past-threshold", "dense", "zero-bytes-4101",
            "bytes-4128", "bytes-4139-tail", "dense-bytes-4099", "shortest-sparse", "short", "empty"])
    def test_equals_bincount(self, monkeypatch, data, route):
        flat = np.frombuffer(data, dtype=np.uint8) if isinstance(data, bytes) else data
        want = np.bincount(flat, minlength=256)
        counted = []
        bincount = np.bincount

        def spy(values, minlength):
            counted.append(values.size)
            return bincount(values, minlength=minlength)

        monkeypatch.setattr(metrics.np, "bincount", spy)
        got = metrics.byte_histogram(data)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        if route == "dense":
            assert counted == [flat.size]
        else:
            assert len(counted) == 1 and counted[0] < max(flat.size, 1)

    def test_views_and_unaligned_buffers(self):
        rng = np.random.default_rng(9)
        base = np.zeros(4 * 4096 + 3, dtype=np.uint8)
        base[rng.integers(0, base.size, 40)] = rng.integers(1, 256, 40, dtype=np.uint8)
        for view in (base[1:], base[3:], base[::2], base[:4096].reshape(64, 64).T):
            assert np.array_equal(metrics.byte_histogram(view),
                                  np.bincount(view.reshape(-1), minlength=256))
        # buffers from one byte up to 2 KiB take the lane route too
        for size in (1, 7, 9, 255, 256, 2047):
            short = np.zeros(size + 3, dtype=np.uint8)
            short[rng.integers(0, short.size, size // 16 + 1)] = 200
            for view in (short[:size], short[3:], bytes(short[1 : size + 1])):
                flat = np.frombuffer(view, dtype=np.uint8) if isinstance(view, bytes) else view
                assert np.array_equal(metrics.byte_histogram(view),
                                      np.bincount(flat, minlength=256))


class TestChiSquare:
    def test_uniform_histogram_is_zero(self):
        hist = np.full(256, 7, dtype=np.int64)
        assert metrics.chi_square(hist) == 0.0

    def test_256_equal_bytes(self):
        # 256 bytes all zero: e = 1, chi2 = 255^2 + 255 = 65280
        hist = metrics.byte_histogram(bytes(256))
        assert metrics.chi_square(hist) == pytest.approx(65280.0)

    def test_matches_direct_oracle(self):
        data = bytes(np.random.default_rng(3).integers(0, 256, 4096, dtype=np.uint8))
        ours = metrics.chi_square(metrics.byte_histogram(data))
        assert ours == pytest.approx(oracles.chi_square_direct(data))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics.chi_square(np.zeros(256, dtype=np.int64))

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            metrics.chi_square(np.ones(255, dtype=np.int64))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_invariant_under_bin_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        hist = rng.integers(0, 50, 256)
        if hist.sum() == 0:
            hist[0] = 1
        shuffled = rng.permutation(hist)
        assert metrics.chi_square(hist) == pytest.approx(metrics.chi_square(shuffled))

    def test_non_negative(self):
        hist = np.zeros(256, dtype=np.int64)
        hist[3] = 10
        assert metrics.chi_square(hist) > 0.0

    def test_uniform_bytes_score_the_closed_form(self):
        # For N uniform bytes the statistic has mean 255 (the degrees of
        # freedom) and variance 510 * (1 - 1/N), std 22.58 at N = 64 * 64:
        # the yardstick of the uniformity sweep's ciphertexts.
        count, n = 400, 64 * 64
        images = np.random.default_rng(0).integers(0, 256, size=(count, 64, 64), dtype=np.uint8)
        scores = np.array([metrics.chi_square(metrics.byte_histogram(x)) for x in images])
        sigma = math.sqrt(510 * (1 - 1 / n))
        # within 4 standard errors: of the mean, and (normal theory) of the std
        assert abs(scores.mean() - 255) <= 4 * sigma / math.sqrt(count)
        assert abs(scores.std() - sigma) <= 4 * sigma / math.sqrt(2 * count)


class TestPsnr:
    def test_identical_images_give_inf(self):
        image = np.arange(64, dtype=np.uint8).reshape(8, 8)
        assert metrics.psnr(image, image) == math.inf

    def test_constant_difference_16(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.full((8, 8), 16, dtype=np.uint8)
        assert metrics.psnr(a, b) == pytest.approx(24.0484, abs=1e-3)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        b = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        assert metrics.psnr(a, b) == pytest.approx(metrics.psnr(b, a))

    def test_decreasing_in_mse(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        values = [metrics.psnr(a, np.full((8, 8), step, dtype=np.uint8)) for step in (8, 32, 128)]
        assert values[0] > values[1] > values[2]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics.psnr(np.zeros((8, 8), dtype=np.uint8), np.zeros((4, 4), dtype=np.uint8))

    @pytest.mark.parametrize("m", [8, 16, 20, 256, 300, 512])
    def test_bit_identical_to_float_mean(self, m):
        rng = np.random.default_rng(m)
        a = rng.integers(0, 256, (m, m), dtype=np.uint8)
        pairs = [
            (a, rng.integers(0, 256, (m, m), dtype=np.uint8)),
            (a, a ^ (rng.random((m, m)) < 0.02).astype(np.uint8)),
            (np.zeros((m, m), dtype=np.uint8), np.full((m, m), 255, dtype=np.uint8)),
            (np.full((m, m), 255, dtype=np.uint8), np.zeros((m, m), dtype=np.uint8)),
        ]
        for x, y in pairs:
            assert metrics.psnr(x, y) == oracles.psnr_float(x, y)

    def test_non_bytes_rejected(self):
        with pytest.raises(ValueError, match="uint8"):
            metrics.psnr(np.zeros((8, 8), dtype=np.uint8), np.zeros((8, 8), dtype=np.int16))


class TestSsim:
    def test_identical_images_give_one(self):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        assert metrics.ssim(image, image) == pytest.approx(1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        b = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        assert metrics.ssim(a, b) == pytest.approx(metrics.ssim(b, a))

    def test_structured_pair_matches_window_oracle(self):
        x, y = np.indices((16, 16))
        a = ((x * 16 + y * 3) % 256).astype(np.uint8)
        b = np.roll(a, 3, axis=1) ^ 0x55
        ours = metrics.ssim(a, b)
        reference = oracles.ssim_windows(a.tolist(), b.tolist())
        assert ours == pytest.approx(reference, abs=1e-12)
        assert -1.0 <= ours <= 1.0

    @pytest.mark.parametrize("shape", [(8, 8), (9, 13), (16, 16), (37, 20), (64, 64)])
    def test_bit_identical_to_float_integral(self, shape):
        rng = np.random.default_rng(shape)
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        pairs = [
            (a, rng.integers(0, 256, shape, dtype=np.uint8)),
            (a, a ^ (rng.random(shape) < 0.02).astype(np.uint8)),
            (np.full(shape, 255, dtype=np.uint8), np.zeros(shape, dtype=np.uint8)),
            (np.full(shape, 255, dtype=np.uint8), np.full(shape, 255, dtype=np.uint8)),
        ]
        for x, y in pairs:
            assert metrics.ssim(x, y) == oracles.ssim_float_integral(x, y)
            assert metrics.ssim(y, x) == oracles.ssim_float_integral(y, x)

    def test_alternating_references(self):
        rng = np.random.default_rng(3)
        refs = [rng.integers(0, 256, (24, 24), dtype=np.uint8) for _ in range(2)]
        for step in range(6):
            a = refs[step % 2]
            b = rng.integers(0, 256, (24, 24), dtype=np.uint8)
            assert metrics.ssim(a, b) == oracles.ssim_float_integral(a, b)

    def test_reference_edited_in_place(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        b = a ^ (rng.random(a.shape) < 0.05).astype(np.uint8)
        before = metrics.ssim(a, b)
        a[3:11, 5:9] ^= 0xFF
        after = metrics.ssim(a, b)
        assert after == oracles.ssim_float_integral(a, b)
        assert after != before

    def test_reference_shape_change_same_bytes(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        b = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        assert metrics.ssim(a, b) == oracles.ssim_float_integral(a, b)
        a2, b2 = a.reshape(8, 32), b.reshape(8, 32)
        assert metrics.ssim(a2, b2) == oracles.ssim_float_integral(a2, b2)

    def test_non_uint8_rejected(self):
        with pytest.raises(ValueError, match="uint8"):
            metrics.ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_too_small_rejected(self):
        small = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match=">= 8"):
            metrics.ssim(small, small)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics.ssim(np.zeros((8, 8), dtype=np.uint8), np.zeros((12, 12), dtype=np.uint8))


class TestReferenceScorer:
    """_psnr_ssim against a reference's _reference_sums, as the error-propagation rows score."""

    @pytest.mark.parametrize("shape", [(300, 300), (512, 512), (8, 300), (40, 12)])
    def test_range_extremes(self, shape):
        white = np.full(shape, 255, dtype=np.uint8)
        black = np.zeros(shape, dtype=np.uint8)
        for a, b in [(white, black), (black, white), (white, white), (black, black)]:
            expected = oracles.ssim_float_integral(a, b)
            assert metrics.ssim(a, b) == expected
            assert metrics._psnr_ssim(metrics._reference_sums(a), b) == (
                metrics.psnr(a, b), expected)

    @pytest.mark.parametrize("shape", [(300, 300), (512, 512), (9, 13), (64, 24)])
    def test_rows_against_one_reference(self, shape):
        rng = np.random.default_rng(shape)
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        reference = metrics._reference_sums(a)
        for b in (rng.integers(0, 256, shape, dtype=np.uint8),
                  a ^ (rng.random(shape) < 0.01).astype(np.uint8),
                  a.copy()):
            assert metrics._psnr_ssim(reference, b) == (
                metrics.psnr(a, b), oracles.ssim_float_integral(a, b))
        assert metrics._psnr_ssim(reference, a)[0] == math.inf

    def test_threads_scoring_different_references(self):
        # more threads than cores, switching often: ssim keeps nothing between calls
        rng = np.random.default_rng(10)
        pairs = [tuple(rng.integers(0, 256, (2, 48, 48), dtype=np.uint8)) for _ in range(4)]
        expected = [oracles.ssim_float_integral(a, b) for a, b in pairs]
        results = [[] for _ in pairs]

        def work(i):
            a, b = pairs[i]
            for _ in range(40):
                results[i].append(metrics.ssim(a, b))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(pairs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[value] * 40 for value in expected]


class TestTrialRecord:
    def test_percent_bounds_enforced(self):
        with pytest.raises(ValueError):
            oracles.TrialRecord(ps_percent=101.0)
        with pytest.raises(ValueError):
            oracles.TrialRecord(diff_percent=-0.1)

    def test_ssim_bounds_enforced(self):
        with pytest.raises(ValueError):
            oracles.TrialRecord(ssim=1.5)

    def test_partial_records_allowed(self):
        record = oracles.TrialRecord(chi2=255.0)
        assert record.chi2 == 255.0
        assert record.ps_percent is None
