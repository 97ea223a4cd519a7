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
ROUNDS = (1, 6, 2**32 - 1)
# round counts of one task: ascending, as _sweep passes them, and in another order
ROUND_SETS = ((1, 6, 7), (2**32 - 1, 2))
SIZES = (*experiments.DEFAULT_SIZES, 4, 20)
# (start, stop, round counts) of a task at the top of the trial-index and round-count ranges
LAST_TRIALS = (2**32 - 3, 2**32, (2**32 - 1, 1))


def raw_words(master_seed, index, m, rounds):
    return np.random.default_rng((master_seed, index, m, rounds)).bit_generator.random_raw(3)


class TestFirstWords:
    @pytest.mark.parametrize("m", SIZES)
    def test_equal_random_raw(self, m):
        # 15 (seed, rounds) pairs of 100 trials each, at offsets other than 0
        for k, (seed, rounds) in enumerate(itertools.product(SEEDS, ROUNDS)):
            start = 1 + 997 * k
            words = streams.first_words(seed, start, start + 100, m, (rounds,))
            assert words.shape == (1, 100, 3)
            for index, row in zip(range(start, start + 100), words[0]):
                np.testing.assert_array_equal(row, raw_words(seed, index, m, rounds))

    def test_large_batch_and_word_counts(self):
        # one 1024-trial batch (M=16's batch size), and more than 4 entropy
        # words: a seed of three words
        [words] = streams.first_words(7, 3, 1027, 16, (6,))
        for index, row in zip(range(3, 1027), words):
            np.testing.assert_array_equal(row, raw_words(7, index, 16, 6))
        [words] = streams.first_words(2**70 + 3, 9, 14, 300, (2**32 - 1,))
        for index, row in zip(range(9, 14), words):
            np.testing.assert_array_equal(row, raw_words(2**70 + 3, index, 300, 2**32 - 1))

    @pytest.mark.parametrize("m", [16, 300])
    def test_round_counts_in_one_pass(self, m):
        # every (round count, trial) column of one call, in the given order
        rounds = (1, 6, 7)
        words = streams.first_words(2**32, 5, 25, m, rounds)
        assert words.shape == (3, 20, 3)
        for (r, index), row in zip(itertools.product(rounds, range(5, 25)), words.reshape(-1, 3)):
            np.testing.assert_array_equal(row, raw_words(2**32, index, m, r))

    def test_last_indices_and_round_count(self):
        # the largest trial indices and round count that a sweep can reach
        start, stop, rounds = LAST_TRIALS
        words = streams.first_words(2**70 + 3, start, stop, 20, rounds)
        for (r, index), row in zip(itertools.product(rounds, range(start, stop)), words.reshape(-1, 3)):
            np.testing.assert_array_equal(row, raw_words(2**70 + 3, index, 20, r))


def reduced(key, m):
    """A CipherKey's parameters mod M, as one row of _draw_trials' params."""
    return [p % m for p in key.params()]


def record_replays(monkeypatch):
    """The (round count, trial index) pairs that _draw_trials draws through
    their own Generators."""
    replayed = []
    trial_streams = experiments._trial_streams

    def spy(master_seed, m, rounds, indices):
        replayed.extend((rounds, index) for index in indices)
        return trial_streams(master_seed, m, rounds, indices)

    monkeypatch.setattr(experiments, "_trial_streams", spy)
    return replayed


def assert_draw_shapes(drawn, rounds, trials):
    """_draw_trials' (params, framed) arrays: int32 (round counts, trials, 4)
    and intp (round counts, trials)."""
    params, framed = drawn
    assert params.dtype == np.int32 and params.shape == (len(rounds), trials, 4)
    assert framed.dtype == np.intp and framed.shape == (len(rounds), trials)


def assert_trial_draws(seed, m, rounds, indices, params, plains):
    """params and plains hold the reduced keys and single-LSB plaintexts of
    the trials' own Generators; the plaintexts are in encryption's frame."""
    assert params.dtype == np.int32 and params.shape == (len(indices), 4)
    for index, row, plain in zip(indices, params.tolist(), plains, strict=True):
        _, expected_key, pixel = oracles.trial_draws(seed, index, m, rounds)
        assert row == reduced(expected_key, m)
        assert np.flatnonzero(oracles.unframe(plain)).tolist() == [pixel[0] * m + pixel[1]]


class TestDrawTrials:
    @pytest.mark.parametrize("m", SIZES)
    def test_keys_and_pixels_equal_per_trial_route(self, m, monkeypatch):
        replayed = record_replays(monkeypatch)
        for k, (seed, rounds) in enumerate(itertools.product(SEEDS, ROUND_SETS)):
            start = 3 + 1009 * k
            stop = start + 40
            params, framed = drawn = experiments._draw_trials(seed, m, rounds, start, stop)
            assert replayed == []
            assert_draw_shapes(drawn, rounds, stop - start)
            for k, r in enumerate(rounds):
                assert_trial_draws(seed, m, r, range(start, stop), params[k], oracles.one_hot(framed[k], m))

    @pytest.mark.parametrize("draws_pixel", [False, True])
    @pytest.mark.parametrize("m", [16, 300])
    def test_streams_continue_where_the_draws_stop(self, m, draws_pixel):
        # _trial_streams' Generator stands just after the key: error
        # propagation goes on from there, and a replayed pixel is the next
        # draw, the one framed holds
        params, framed = drawn = experiments._draw_trials(11, m, (6, 2), 40, 44)
        assert_draw_shapes(drawn, (6, 2), 4)
        for k, r in enumerate((6, 2)):
            draws = list(experiments._trial_streams(11, m, r, range(40, 44)))
            assert [row.tolist() for _, row in draws] == params[k].tolist()
            for index, (rng, row), plain in zip(range(40, 44), draws, oracles.one_hot(framed[k], m)):
                direct = np.random.default_rng((11, index, m, r))
                assert row.dtype == np.int32
                assert row.tolist() == reduced(cipher.key_from_stream(direct, m, r), m)
                _, _, pixel = oracles.trial_draws(11, index, m, r)
                assert np.flatnonzero(oracles.unframe(plain)).tolist() == [pixel[0] * m + pixel[1]]
                if draws_pixel:
                    assert tuple(int(v) for v in rng.integers(0, m, size=2)) == pixel
                    direct.integers(0, m, size=2)
                assert rng.bit_generator.random_raw(5).tolist() == \
                    direct.bit_generator.random_raw(5).tolist()

    @pytest.mark.parametrize("ascending", [False, True])
    def test_last_indices_and_round_count(self, ascending):
        # the round counts in the order given: largest first, and ascending
        # as _sweep passes them
        start, stop, rounds = LAST_TRIALS
        rounds = tuple(sorted(rounds, reverse=not ascending))
        params, framed = drawn = experiments._draw_trials(9, 20, rounds, start, stop)
        assert_draw_shapes(drawn, rounds, stop - start)
        for k, r in enumerate(rounds):
            assert_trial_draws(9, 20, r, range(start, stop), params[k], oracles.one_hot(framed[k], m=20))

    def test_continuing_sweeps_skip_the_batch_derivation(self, monkeypatch):
        # error propagation draws every trial through its own Generator,
        # never through first_words
        def unused(*args):
            raise AssertionError("first_words called")

        m, image, percents = 16, image_io.make_portrait_image(16), (0.1, 5.0)
        monkeypatch.setattr(streams, "first_words", unused)
        errprop = experiments._errprop_batch((3, m, (6, 2), 5, 8, percents, image))
        expected = [[oracles.errprop_trial((3, m, r, index, percents), image)
                     for index in range(5, 8)] for r in (6, 2)]
        assert len(errprop) == len(expected)
        assert all(np.array_equal(scores, trials) for scores, trials in zip(errprop, expected))


def reject_pixel_of(trial, cell=0, first_words=streams.first_words):
    """first_words with the row draw of one trial under the round count at
    position cell set to 0, a value that numpy's rule rejects for every M
    that is not a power of two."""

    def patched(master_seed, start, stop, m, rounds):
        words = first_words(master_seed, start, stop, m, rounds).copy()
        words[cell, trial, 2] &= np.uint64(0xFFFFFFFF00000000)
        return words

    return patched


class TestReplay:
    """Trials the batch pass cannot draw go through their own Generators."""

    @pytest.mark.parametrize("m", [20, 300])
    def test_rejected_pixel_replays(self, m, monkeypatch):
        # trial 11 is rejected under the second round count only: that one
        # (round count, trial) replays, and every other stays in the batch pass
        monkeypatch.setattr(streams, "first_words", reject_pixel_of(1, cell=1))
        replayed = record_replays(monkeypatch)
        params, framed = drawn = experiments._draw_trials(4, m, (6, 1), 10, 13)
        assert replayed == [(1, 11)]
        assert_draw_shapes(drawn, (6, 1), 3)
        for k, r in enumerate((6, 1)):
            assert_trial_draws(4, m, r, range(10, 13), params[k], oracles.one_hot(framed[k], m))
        # every trial's stream goes on from its own Generator
        draws = experiments._trial_streams(4, m, 1, range(10, 13))
        for index, (rng, row) in zip(range(10, 13), draws):
            direct, expected_key, expected_pixel = oracles.trial_draws(4, index, m, 1)
            pixel = tuple(int(v) for v in rng.integers(0, m, size=2))
            assert (row.tolist(), pixel) == (reduced(expected_key, m), expected_pixel)
            assert rng.bit_generator.random_raw(3).tolist() == \
                direct.bit_generator.random_raw(3).tolist()

    def test_rejected_pixel_scores_as_direct_route(self, monkeypatch):
        m = 20
        task = (6, m, (3, 1), 0, 4)
        avalanche = oracles.avalanche_percents(experiments._avalanche_batch(task), m)
        monkeypatch.setattr(streams, "first_words", reject_pixel_of(2, cell=1))
        assert oracles.avalanche_percents(experiments._avalanche_batch(task), m) == avalanche
        assert avalanche == [[oracles.avalanche_trial((6, m, r, index)) for index in range(4)]
                             for r in (3, 1)]

    # Trials whose pixel draw numpy itself rejects, found by scanning
    # first_words at seed 0, r=1: the row draw of M=1012's trial 3225644 and
    # the column draw of M=1004's trial 1058603.  Either leaves half a word
    # in the Generator's buffer, which a fresh Generator advanced past the
    # three words would drop.
    @pytest.mark.parametrize("m, index", [(1012, 3225644), (1004, 1058603)])
    def test_real_rejection_replays(self, m, index, monkeypatch):
        start, stop = index - 1, index + 1
        replayed = record_replays(monkeypatch)
        [params], [framed] = experiments._draw_trials(0, m, (1,), start, stop)
        plains = oracles.one_hot(framed, m)
        assert replayed == [(1, index)]
        draws = experiments._trial_streams(0, m, 1, range(start, stop))
        for trial, row, plain, (rng, drawn_row) in zip(range(start, stop), params.tolist(), plains, draws):
            direct, expected_key, expected_pixel = oracles.trial_draws(0, trial, m, 1)
            pixel = tuple(int(v) for v in rng.integers(0, m, size=2))
            assert drawn_row.tolist() == row == reduced(expected_key, m)
            assert pixel == expected_pixel
            assert np.flatnonzero(oracles.unframe(plain)).tolist() == [pixel[0] * m + pixel[1]]
            assert rng.integers(0, 256, 8, dtype=np.uint8).tolist() == \
                direct.integers(0, 256, 8, dtype=np.uint8).tolist()
        advanced = np.random.default_rng((0, index, m, 1))
        advanced.bit_generator.advance(3)
        direct, _, _ = oracles.trial_draws(0, index, m, 1)
        assert advanced.integers(0, 256, 8, dtype=np.uint8).tolist() != \
            direct.integers(0, 256, 8, dtype=np.uint8).tolist()
