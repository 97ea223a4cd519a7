"""The batch derivation of the trial streams against numpy's own Generators.

streams.first_words reimplements SeedSequence's entropy mixing and PCG64's
seeding, and experiments._draw_trials turns the words into reduced key
parameters and pixels by numpy's bounded-integer rule.  numpy does not promise that Generator
streams stay the same across versions (NEP 19): the sweeps' CSV bytes
depend on the numpy version, and these tests pin the derivation against the
numpy in use, so a numpy whose streams change fails here first.
"""

import itertools

import numpy as np
import pytest

from cipher_audit import cipher, experiments, image_io, streams

import oracles

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**70 + 3)
ROUNDS = (1, 6, 2**32 + 1)
SIZES = (*experiments.DEFAULT_SIZES, 4, 20)


def raw_words(master_seed, index, m, rounds, n=3):
    return np.random.default_rng((master_seed, index, m, rounds)).bit_generator.random_raw(n)


class TestFirstWords:
    @pytest.mark.parametrize("m", SIZES)
    def test_equal_random_raw(self, m):
        # 15 (seed, rounds) pairs of 100 trials each, at offsets other than 0
        for k, (seed, rounds) in enumerate(itertools.product(SEEDS, ROUNDS)):
            start = 1 + 997 * k
            words = streams.first_words(seed, start, start + 100, m, rounds, 3)
            assert words.shape == (100, 3)
            for index, row in zip(range(start, start + 100), words):
                np.testing.assert_array_equal(row, raw_words(seed, index, m, rounds))

    def test_large_batch_and_word_counts(self):
        # one 1024-trial batch (M=16's batch size), and more than 4 entropy
        # words: an index, seed and round count of two or three words each
        words = streams.first_words(7, 3, 1027, 16, 6, 4)
        for index, row in zip(range(3, 1027), words):
            np.testing.assert_array_equal(row, raw_words(7, index, 16, 6, 4))
        start = 2**32 + 9
        words = streams.first_words(2**70 + 3, start, start + 5, 300, 2**32 + 1, 3)
        for index, row in zip(range(start, start + 5), words):
            np.testing.assert_array_equal(row, raw_words(2**70 + 3, index, 300, 2**32 + 1))

    @pytest.mark.parametrize("start, stop", [(2**32 - 2, 2**32 + 1), (2**64 - 1, 2**64 + 1)])
    def test_uneven_index_words_are_not_covered(self, start, stop):
        assert streams.first_words(0, start, stop, 16, 1, 3) is None


def reduced(key, m):
    """A CipherKey's parameters mod M, as one row of _draw_trials' params."""
    return [p % m for p in key.params()]


def record_replays(monkeypatch):
    """The trial indices that _draw_trials draws through their own Generators."""
    replayed = []
    trial_streams = experiments._trial_streams

    def spy(master_seed, m, rounds, indices, single_lsb):
        replayed.extend(indices)
        return trial_streams(master_seed, m, rounds, indices, single_lsb)

    monkeypatch.setattr(experiments, "_trial_streams", spy)
    return replayed


class TestDrawTrials:
    @pytest.mark.parametrize("m", SIZES)
    def test_keys_and_pixels_equal_per_trial_route(self, m, monkeypatch):
        replayed = record_replays(monkeypatch)
        for k, (seed, rounds) in enumerate(itertools.product(SEEDS, ROUNDS)):
            start = 3 + 1009 * k
            stop = start + 40
            params, plains = experiments._draw_trials(seed, m, rounds, start, stop, True)
            assert replayed == []
            assert params.dtype == np.int32 and params.shape == (40, 4)
            for index, row, plain in zip(range(start, stop), params.tolist(), plains):
                _, expected_key, pixel = oracles.trial_draws(seed, index, m, rounds)
                assert row == reduced(expected_key, m)
                assert np.flatnonzero(plain).tolist() == [pixel[0] * m + pixel[1]]

    @pytest.mark.parametrize("single_lsb", [False, True])
    @pytest.mark.parametrize("m", [16, 300])
    def test_streams_continue_where_the_draws_stop(self, m, single_lsb):
        draws = list(experiments._trial_streams(11, m, 6, range(40, 44), single_lsb))
        params, plains = experiments._draw_trials(11, m, 6, 40, 44, single_lsb)
        assert [reduced(key, m) for _, key, _ in draws] == params.tolist()
        for index, (rng, key, pixel), plain in zip(range(40, 44), draws, plains):
            direct = np.random.default_rng((11, index, m, 6))
            assert key == cipher.key_from_stream(direct, m, 6)
            if single_lsb:
                assert pixel == tuple(int(v) for v in direct.integers(0, m, size=2))
                assert np.flatnonzero(plain).tolist() == [pixel[0] * m + pixel[1]]
            else:
                assert pixel is None
                assert not plain.any()
            assert rng.bit_generator.random_raw(5).tolist() == \
                direct.bit_generator.random_raw(5).tolist()

    def test_continuing_sweeps_skip_the_batch_derivation(self, monkeypatch):
        # error propagation and the control-random baseline draw every trial
        # through its own Generator, never through first_words
        def unused(*args):
            raise AssertionError("first_words called")

        m, image, percents = 16, image_io.make_portrait_image(16), (0.1, 5.0)
        monkeypatch.setattr(streams, "first_words", unused)
        errprop = experiments._errprop_batch((3, m, 6, 5, 8, percents, image))
        assert errprop == [oracles.errprop_trial((3, m, 6, index, percents), image)
                           for index in range(5, 8)]
        for single_lsb, plaintext in ((True, experiments.PLAINTEXT_SINGLE_LSB),
                                      (False, experiments.PLAINTEXT_ALL_ZERO)):
            control = experiments._uniformity_batch((3, m, 6, 5, 8, plaintext, True))
            expected = [oracles.control_random_bytes((3, m, 6, index, single_lsb))
                        for index in range(5, 8)]
            assert control == pytest.approx([oracles.chi_square_direct(d) for d in expected],
                                            rel=1e-12)


def reject_pixel_of(trial, first_words=streams.first_words):
    """first_words with the row draw of one trial of the batch set to 0, a
    value that numpy's rule rejects for every M that is not a power of two."""

    def patched(master_seed, start, stop, m, rounds, n):
        words = first_words(master_seed, start, stop, m, rounds, n).copy()
        words[trial, 2] &= np.uint64(0xFFFFFFFF00000000)
        return words

    return patched


class TestReplay:
    """Trials the batch pass cannot draw go through their own Generators."""

    @pytest.mark.parametrize("m", [20, 300])
    def test_rejected_pixel_replays(self, m, monkeypatch):
        monkeypatch.setattr(streams, "first_words", reject_pixel_of(1))
        replayed = record_replays(monkeypatch)
        params, plains = experiments._draw_trials(4, m, 6, 10, 13, True)
        assert replayed == [11]
        for index, row, plain in zip(range(10, 13), params.tolist(), plains):
            _, expected_key, pixel = oracles.trial_draws(4, index, m, 6)
            assert row == reduced(expected_key, m)
            assert np.flatnonzero(plain).tolist() == [pixel[0] * m + pixel[1]]
        # every trial's stream goes on from its own Generator
        draws = experiments._trial_streams(4, m, 6, range(10, 13), True)
        for index, (rng, key, pixel) in zip(range(10, 13), draws):
            direct, expected_key, expected_pixel = oracles.trial_draws(4, index, m, 6)
            assert (key, pixel) == (expected_key, expected_pixel)
            assert rng.bit_generator.random_raw(3).tolist() == \
                direct.bit_generator.random_raw(3).tolist()

    def test_rejected_pixel_scores_as_direct_route(self, monkeypatch):
        m = 20
        task = (6, m, 3, 0, 4)
        avalanche = experiments._avalanche_batch(task)
        control = experiments._uniformity_batch((*task, experiments.PLAINTEXT_SINGLE_LSB, True))
        monkeypatch.setattr(streams, "first_words", reject_pixel_of(2))
        assert experiments._avalanche_batch(task) == avalanche
        assert experiments._uniformity_batch(
            (*task, experiments.PLAINTEXT_SINGLE_LSB, True)) == control
        assert avalanche == [oracles.avalanche_trial((6, m, 3, index)) for index in range(4)]

    @pytest.mark.parametrize("single_lsb", [False, True])
    def test_batch_across_two_to_the_32_replays(self, single_lsb, monkeypatch):
        start, stop = 2**32 - 2, 2**32 + 2
        replayed = record_replays(monkeypatch)
        params, plains = experiments._draw_trials(9, 16, 2, start, stop, single_lsb)
        assert replayed == list(range(start, stop))
        assert params.dtype == np.int32
        for index, row, plain in zip(range(start, stop), params.tolist(), plains):
            _, expected_key, pixel = oracles.trial_draws(9, index, 16, 2)
            assert row == reduced(expected_key, 16)
            expected = [pixel[0] * 16 + pixel[1]] if single_lsb else []
            assert np.flatnonzero(plain).tolist() == expected

    # Trials whose pixel draw numpy itself rejects, found by scanning
    # first_words at seed 0, r=1: the row draw of M=1012's trial 3225644 and
    # the column draw of M=1004's trial 1058603.  Either leaves half a word
    # in the Generator's buffer, which a fresh Generator advanced past the
    # three words would drop.
    @pytest.mark.parametrize("m, index", [(1012, 3225644), (1004, 1058603)])
    def test_real_rejection_replays(self, m, index, monkeypatch):
        start, stop = index - 1, index + 1
        replayed = record_replays(monkeypatch)
        params, plains = experiments._draw_trials(0, m, 1, start, stop, True)
        assert replayed == [index]
        draws = experiments._trial_streams(0, m, 1, range(start, stop), True)
        for trial, row, plain, (rng, drawn_key, pixel) in zip(range(start, stop),
                                                             params.tolist(), plains, draws):
            direct, expected_key, expected_pixel = oracles.trial_draws(0, trial, m, 1)
            assert drawn_key == expected_key
            assert row == reduced(expected_key, m)
            assert pixel == expected_pixel
            assert np.flatnonzero(plain).tolist() == [pixel[0] * m + pixel[1]]
            assert rng.integers(0, 256, 8, dtype=np.uint8).tolist() == \
                direct.integers(0, 256, 8, dtype=np.uint8).tolist()
        advanced = np.random.default_rng((0, index, m, 1))
        advanced.bit_generator.advance(3)
        direct, _, _ = oracles.trial_draws(0, index, m, 1)
        assert advanced.integers(0, 256, 8, dtype=np.uint8).tolist() != \
            direct.integers(0, 256, 8, dtype=np.uint8).tolist()
        control = experiments._uniformity_batch(
            (0, m, 1, index, index + 1, experiments.PLAINTEXT_SINGLE_LSB, True))
        expected = oracles.control_random_bytes((0, m, 1, index, True))
        assert control == pytest.approx([oracles.chi_square_direct(expected)], rel=1e-12)
