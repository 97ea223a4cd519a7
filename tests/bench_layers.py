"""Layer timings of the cipher's rounds, gather indices, byte histogram, SSIM and trial draws.

A pytest-benchmark module.  Its name does not match test_*.py, so the
tier-1 suite does not collect it; run it by path from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_layers.py -q --benchmark-json=layers.json

Every case runs on one M x M image under one key, M in {16, 64, 256, 512}:
- one dense round through cipher._run, with the gather index it builds, and
  that index alone;
- two of a dense round's layers alone, on random bytes: the block XOR
  (cipher._block_xor) and the bit rotation (cipher._rotate);
- the gather index of each stack shape the sweeps build beside one image:
  (M, W) = (256, 4) and (300, 2) in uniformity-large's batches, (64, 20) in
  avalanche-small's, in both directions;
- encryption's gather index over one block of 16384 positions, the bare
  inverse cat map cipher._source that cipher._stack_index evaluates per
  block, at M in {256, 300, 512}, and the two in-block
  passes with which encrypt moves its image into its frame and back;
- one sparse encryption round on 1, 16 and 256 touched 16-byte blocks,
  and at M = 512 on 1024 and 3375 touched blocks beside one dense round
  with its gather index: the two sides of the sparse switch;
- at M = 256, one decryption round of one image, with its gather index
  already built: the rounds an error-propagation row runs;
- decryption's gather index, in closed form and by the oracle's scatter
  inversion of the encryption index;
- byte_histogram of random bytes (dense route) and of a one-round
  ciphertext of a one-bit image (sparse route), and np.bincount of that
  ciphertext, the route the sparse one replaces;
- metrics.ssim of a portrait against that portrait with random bytes
  XORed in (the damage of an error-propagation row), the private row
  scorer metrics._psnr_ssim (PSNR and SSIM against sums taken in advance),
  and metrics._reference_sums, which an error-propagation batch takes once;
- streams.first_words, the first three words of every (round count,
  trial) stream of one sweep task, at the task shapes below: its fixed
  cost per call beside the per-column work;
- experiments._draw_trials, the reduced key parameters and single-LSB
  frame positions of every round count of one sweep task: 20 trials under
  rounds 7..1 at M in {16, 64} (avalanche-small's tasks) and one trial
  under rounds 6 and 1 at M = 512 (uniformity-large's): the draw cost
  beside the cipher layers.  _sweep passes a task's round counts
  ascending; the cases keep the order of the earlier layer records
  (BENCH_tasks.json), and the draws cost the same in either order;
- cipher._run over those drawn parameters and their one-hot plaintexts,
  one call per round count of the task;
- experiments._trial_streams, each trial through its own Generator, key
  only (the route of error propagation) and then the single-LSB pixel
  from the Generator it yields (the route of a pixel that _draw_trials
  replays), at the batch sizes of M in {16, 256, 512}.
- experiments._sweep over uniformity-large's tasks (M in {256, 300, 512},
  rounds 1 and 6, 10 trials) with batches that do nothing, with
  usable_cpus patched to 2: at jobs=1 the caller alone, at jobs=2 the
  caller and one helper, so the difference is the fixed cost of starting,
  feeding and joining one helper per sweep.
- experiments._avalanche_batch on one task at M in {16, 64, 512}, with
  the default avalanche sweep's trials per task (1000, 64 and 1) and
  round counts (1..7, ascending as _sweep passes them): the draws, r - 1
  rounds and the last block XOR of each round count, and the PS and Diff
  percentages read from it;
- experiments.Stats for the default avalanche grid, 56 cells of PS and Diff
  over 1000 trials: experiments._column_stats on the 56 (1000, 2) cells,
  from_rows on the one (112, 1000) array it builds, and from_values on
  each of that array's rows.
- cipher.static_tables built from a cleared cache at each M: the one-time
  cost of a size's key-independent tables.  It runs last, since each call
  clears the tables of every size.

The cases run on a warm heap: before the first one, one 30 MiB block is
filled and freed.  Freeing a block that glibc mapped raises its mmap
threshold to that size and its trim threshold to twice that, so each call's
temporaries (about 0.5 MiB per plane at M=256) are reused from the heap
instead of being returned to the system and faulted in again every call.
"""

import numpy as np
import pytest

from cipher_audit import cipher, experiments, image_io, metrics, streams

import oracles

SIZES = (16, 64, 256, 512)
TOUCHED_BLOCKS = (1, 16, 256)
# (M, trials, round counts) of one sweep task
TASKS = [(16, 20, (7, 6, 5, 4, 3, 2, 1)), (64, 20, (7, 6, 5, 4, 3, 2, 1)), (512, 1, (6, 1))]
TASK_IDS = ["16x20-r7..1", "64x20-r7..1", "512x1-r6,1"]


@pytest.fixture(scope="module", autouse=True)
def warm_heap():
    np.ones(30 << 20, dtype=np.uint8)


def key_for(m: int, rounds: int = 1) -> cipher.CipherKey:
    return cipher.key_from_stream(np.random.default_rng((7, m)), m, rounds)


def params_for(m: int) -> np.ndarray:
    return oracles.reduced_params([key_for(m)], m)


def one_bit_image(m: int) -> np.ndarray:
    image = np.zeros((m, m), dtype=np.uint8)
    image[m // 3, m // 5] = 1
    return image


@pytest.mark.parametrize("m", SIZES)
def test_dense_round_with_index(benchmark, m):
    flat = np.random.default_rng(m).integers(0, 256, m * m, dtype=np.uint8)
    benchmark(cipher._run, flat, params_for(m), m, 1, False)


@pytest.mark.parametrize("m", SIZES)
def test_block_xor(benchmark, m):
    flat = np.random.default_rng(m).integers(0, 256, m * m, dtype=np.uint8)
    benchmark(cipher._block_xor, flat)


@pytest.mark.parametrize("m", SIZES)
def test_rotate(benchmark, m):
    flat = np.random.default_rng(m).integers(0, 256, m * m, dtype=np.uint8)
    shift = cipher.static_tables(m)[2]
    benchmark(cipher._rotate, flat, shift, 8 - shift)


@pytest.mark.parametrize("m", SIZES)
def test_encrypt_index(benchmark, m):
    benchmark(cipher._stack_index, params_for(m), m, False)


@pytest.mark.parametrize("m", [256, 300, 512])
def test_encrypt_index_block(benchmark, m):
    part = slice(0, cipher._INDEX_BLOCK)
    u, v = cipher.static_tables(m)[:2]
    a, b, rx, ry = params_for(m).T[:, :, np.newaxis]
    benchmark(cipher._source, u[part], v[part], a, b, rx, ry, m)


@pytest.mark.parametrize("m", SIZES)
def test_frame_passes(benchmark, m):
    # the passes of encrypt: image bytes into encryption's frame, and the
    # result back out
    image = np.random.default_rng(m).integers(0, 256, (m, m), dtype=np.uint8)

    def passes():
        framed = image.reshape(-1, cipher.BLOCK_BYTES)[:, cipher._PINV].reshape(-1)
        return framed.reshape(-1, cipher.BLOCK_BYTES)[:, cipher._P0].reshape(m, m)

    benchmark(passes)


@pytest.mark.parametrize("invert", [False, True], ids=["encrypt", "decrypt"])
@pytest.mark.parametrize("m, count", [(256, 4), (300, 2), (64, 20)])
def test_stack_index(benchmark, m, count, invert):
    params = np.random.default_rng((m, count)).integers(0, m, size=(count, 4), dtype=np.int32)
    cipher._stack_index(params, m, invert)  # the static tables
    benchmark(cipher._stack_index, params, m, invert)


def touched_image(m: int, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """A flat M x M image of random bytes in `blocks` 16-byte blocks and zeros
    elsewhere, with the ids of those blocks."""
    rng = np.random.default_rng((m, blocks))
    ids = np.sort(rng.choice(m * m // cipher.BLOCK_BYTES, size=blocks, replace=False))
    flat = np.zeros(m * m, dtype=np.uint8)
    flat.reshape(-1, cipher.BLOCK_BYTES)[ids] = rng.integers(1, 256, (blocks, 16), dtype=np.uint8)
    return flat, ids


@pytest.mark.parametrize("blocks", TOUCHED_BLOCKS)
@pytest.mark.parametrize("m", SIZES)
def test_sparse_round(benchmark, m, blocks):
    if blocks * cipher.BLOCK_BYTES > m * m:
        pytest.skip(f"an {m}x{m} image has fewer than {blocks} blocks")
    flat, ids = touched_image(m, blocks)
    cipher.static_tables(m)
    benchmark(cipher._sparse_round, flat, ids, params_for(m), m)


@pytest.mark.parametrize("route", ["sparse-1024", "sparse-3375", "dense"])
def test_sparse_switch_m512(benchmark, route):
    # the sparse switch at M=512 and W=1 runs a round sparse up to 1649
    # touched blocks; a dense round builds its gather index first
    m = 512
    cipher.static_tables(m)
    if route == "dense":
        flat = np.random.default_rng(m).integers(0, 256, m * m, dtype=np.uint8)
        benchmark(cipher._run, flat, params_for(m), m, 1, False)
    else:
        flat, ids = touched_image(m, int(route.split("-")[1]))
        benchmark(cipher._sparse_round, flat, ids, params_for(m), m)


def test_decrypt_round_m256(benchmark):
    m = 256
    flat = np.random.default_rng(m).integers(0, 256, m * m, dtype=np.uint8)
    rounds = cipher._rounds(flat, params_for(m), m, True)
    next(rounds)  # the gather index
    benchmark(next, rounds)


@pytest.mark.parametrize("route", ["closed-form", "scatter"])
@pytest.mark.parametrize("m", SIZES)
def test_decrypt_index(benchmark, m, route):
    params = params_for(m)
    cipher.static_tables(m)
    if route == "closed-form":
        benchmark(cipher._stack_index, params, m, True)
    else:
        benchmark(lambda: oracles.inverse_index_by_scatter(cipher._stack_index(params, m, False)))


@pytest.mark.parametrize("kind", ["dense", "sparse", "sparse-bincount"])
@pytest.mark.parametrize("m", SIZES)
def test_byte_histogram(benchmark, m, kind):
    if kind == "dense":
        data = np.random.default_rng(m).integers(0, 256, (m, m), dtype=np.uint8)
    else:
        data = cipher.encrypt(one_bit_image(m), key_for(m))
    if kind == "sparse-bincount":
        benchmark(np.bincount, data.reshape(-1), minlength=metrics.GRAY_LEVELS)
    else:
        benchmark(metrics.byte_histogram, data)


@pytest.mark.parametrize("kind", ["ssim", "scorer", "reference-sums"])
@pytest.mark.parametrize("m", SIZES)
def test_ssim(benchmark, m, kind):
    clean = image_io.make_portrait_image(m)
    damaged = clean ^ np.random.default_rng(m).integers(0, 256, (m, m), dtype=np.uint8)
    if kind == "ssim":
        benchmark(metrics.ssim, clean, damaged)
    elif kind == "scorer":
        benchmark(metrics._psnr_ssim, metrics._reference_sums(clean), damaged)
    else:
        benchmark(metrics._reference_sums, clean)


@pytest.mark.parametrize("m, trials, rounds", TASKS, ids=TASK_IDS)
def test_first_words(benchmark, m, trials, rounds):
    benchmark(streams.first_words, 7, 0, trials, m, rounds)


@pytest.mark.parametrize("m, trials, rounds", TASKS, ids=TASK_IDS)
def test_draw_trials(benchmark, m, trials, rounds):
    benchmark(experiments._draw_trials, 7, m, rounds, 0, trials)


@pytest.mark.parametrize("m, trials, rounds", TASKS, ids=TASK_IDS)
def test_run_drawn_params(benchmark, m, trials, rounds):
    params, framed = experiments._draw_trials(7, m, rounds, 0, trials)
    cells = [(r, p, oracles.one_hot(f, m).reshape(-1)) for r, p, f in zip(rounds, params, framed)]

    def run():
        for r, keys, plains in cells:
            cipher._run(plains, keys, m, r, False)

    run()  # the static tables
    benchmark(run)


@pytest.mark.parametrize("single_lsb", [False, True], ids=["key", "single-lsb"])
@pytest.mark.parametrize("m, trials", [(16, 1024), (256, 4), (512, 1)])
def test_trial_streams(benchmark, m, trials, single_lsb):
    def draw():
        for rng, _ in experiments._trial_streams(7, m, 6, range(trials)):
            if single_lsb:
                rng.integers(0, m, size=2)

    benchmark(draw)


def _no_op_batch(task: tuple) -> list[list[None]]:
    """A batch that does nothing: one None per round count and trial."""
    return [[None] * (task[4] - task[3]) for _ in task[2]]


@pytest.mark.parametrize("jobs", [1, 2])
def test_pool_fixed_cost(benchmark, monkeypatch, jobs):
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    cfg = experiments.ExperimentConfig(sizes=(256, 300, 512), rounds=(1, 6), trials=10)
    benchmark(experiments._sweep, _no_op_batch, cfg, jobs, True, experiments._chi_squares)


@pytest.mark.parametrize("m", [16, 64, 512])
def test_avalanche_batch(benchmark, m):
    # a task of the default avalanche sweep's shape at M
    trials = min(experiments.DEFAULT_TRIALS, max(1, experiments.BATCH_PIXELS // (m * m)))
    task = (7, m, tuple(sorted(experiments.DEFAULT_ROUNDS)), 0, trials)
    experiments._avalanche_batch(task)  # the static tables
    benchmark(experiments._avalanche_batch, task)


@pytest.mark.parametrize("route", ["column-stats", "from-rows", "from-values"])
def test_avalanche_grid_stats(benchmark, route):
    # PS and Diff percentages of the default grid: 56 cells x 1000 trials
    cells = len(experiments.DEFAULT_SIZES) * len(experiments.DEFAULT_ROUNDS)
    values = np.random.default_rng(56).uniform(0, 100, (2 * cells, experiments.DEFAULT_TRIALS))
    if route == "column-stats":
        rows = [(16, 1, pair.T) for pair in values.reshape(cells, 2, -1)]
        benchmark(experiments._column_stats, rows)
    elif route == "from-rows":
        benchmark(experiments.Stats.from_rows, values)
    else:
        benchmark(lambda: [experiments.Stats.from_values(row) for row in values])


@pytest.mark.parametrize("m", SIZES)
def test_static_tables_build(benchmark, m):
    benchmark.pedantic(cipher.static_tables, args=(m,), setup=cipher.static_tables.cache_clear, rounds=20)
