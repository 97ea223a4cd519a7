"""The first raw words of a batch of trial streams, derived in one pass.

Trial i of a sweep cell draws from np.random.default_rng((master_seed, i, M,
rounds)): a PCG64 generator seeded by a SeedSequence over the tuple's 32-bit
words.  Building one Generator per trial costs more than a small trial's
cipher work, so first_words reimplements the two seeding steps for a whole
batch of (round count, index) pairs and returns the first three words each
stream would give, equal bit for bit to default_rng(...).bit_generator.random_raw(3):

1. SeedSequence's entropy pool, as uint32 numpy ops with one column per
   pair.  A trial index and a round count are one 32-bit word each (the
   sweeps keep both below 2**32), and only those two rows differ between
   columns.
2. PCG64's seeding and its first three steps, per column, with Python's
   128-bit integers: a 128-bit LCG whose output is the XSL-RR permutation
   of its state (O'Neill 2014).

numpy does not promise that Generator streams stay the same across versions
(NEP 19).  The sweeps' CSV bytes already depend on the numpy version, and
tests/test_streams.py pins this derivation against the numpy in use.
"""

from __future__ import annotations

import numpy as np

MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx).
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG multiplier.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, calls: range | list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of the given hashmix calls, as uint32 columns.

    hashmix keeps a running constant, advanced by mult in every call: call c
    xors its value with the constant as it was before the call and
    multiplies by the one after.
    """
    consts = [init]
    for _ in range(max(calls) + 1):
        consts.append((consts[-1] * mult) & MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, np.newaxis]
    return consts[list(calls)], consts[[c + 1 for c in calls]]


def _hashmix(values: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    xor, mult = consts
    values = (values ^ xor) * mult
    return values ^ (values >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> _SHIFT)


_SHIFT = np.array(16, dtype=np.uint32)
_MIX_L = np.array(MIX_MULT_L, dtype=np.uint32)
_MIX_R = np.array(MIX_MULT_R, dtype=np.uint32)

# mix_entropy's hashmix calls: first one per pool word; then, for each
# source pool word in turn, one per other pool word in order.  The constant
# given for the source's own row is a placeholder, since that row is put back.
_FIRST_CONSTS = _hash_consts(INIT_A, MULT_A, range(POOL_SIZE))
_PAIR_CONSTS = [
    _hash_consts(INIT_A, MULT_A, [POOL_SIZE + (POOL_SIZE - 1) * src + dst - (dst > src)
                                  for dst in range(POOL_SIZE)])
    for src in range(POOL_SIZE)
]
# generate_state's eight calls, as two passes over the pool.
_STATE_CONSTS = tuple(c.reshape(2, POOL_SIZE, 1) for c in _hash_consts(INIT_B, MULT_B, range(2 * POOL_SIZE)))


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence.mix_entropy of the uint32 rows of entropy, at least POOL_SIZE, one column per stream.

    mix_entropy hashes each entropy word into its pool word, then every pool
    word into every other, then every word past the pool into every pool
    word, with one hashmix call per step.  A pool word is hashed into the
    others with consecutive constants and does not change itself, so each
    source is one hash and one mix over the whole pool, after which its own
    row is put back.
    """
    pool = _hashmix(entropy[:POOL_SIZE], _FIRST_CONSTS)
    for src, consts in enumerate(_PAIR_CONSTS):
        mixed = _mix(pool, _hashmix(pool[src], consts))
        mixed[src] = pool[src]
        pool = mixed
    for j, word in enumerate(entropy[POOL_SIZE:]):
        first = POOL_SIZE * (POOL_SIZE + j)
        pool = _mix(pool, _hashmix(word, _hash_consts(INIT_A, MULT_A, range(first, first + POOL_SIZE))))
    return pool


def _seed_words(pool: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of every column, one row per column.

    generate_state hashes the pool twice over into eight uint32 words and
    pairs them into uint64 words, low half first.
    """
    halves = _hashmix(pool, _STATE_CONSTS).reshape(2 * POOL_SIZE, -1)
    return np.ascontiguousarray(halves.T, dtype="<u4").view("<u8")


def _pcg64_words(seeds: np.ndarray, n: int) -> np.ndarray:
    """The first n outputs of PCG64 seeded with each row's four 64-bit words.

    The 128-bit LCG runs on Python integers, one trial at a time; its states
    come back to numpy as (low, high) uint64 pairs for the XSL-RR output:
    the xor of the halves rotated right by the state's top 6 bits.
    """
    states = []
    for s0, s1, s2, s3 in seeds.tolist():
        inc = ((s2 << 64 | s3) << 1 | 1) & MASK128
        state = ((inc + (s0 << 64 | s1)) * PCG_MULT + inc) & MASK128
        for _ in range(n):
            state = (state * PCG_MULT + inc) & MASK128
            states.append(state.to_bytes(16, "little"))
    halves = np.frombuffer(b"".join(states), dtype="<u8").reshape(-1, n, 2)
    xored = halves[..., 0] ^ halves[..., 1]
    rot = halves[..., 1] >> np.uint64(58)
    return (xored >> rot) | (xored << (-rot & np.uint64(63)))


def first_words(master_seed: int, start: int, stop: int, m: int, rounds: tuple[int, ...]) -> np.ndarray:
    """The first three raw 64-bit words of the streams of trials start..stop-1 under each round count.

    words[k, i] equals np.random.default_rng((master_seed, start + i, m,
    rounds[k])).bit_generator.random_raw(3): one column of one pass per
    (round count, trial).  The trial indices and the round counts must be
    below 2**32, as ExperimentConfig's bounds keep them; the seed may take
    any number of words.
    """
    # SeedSequence reads the seed as 32-bit words, least significant first; 0 is one word.
    seed = [master_seed >> shift & MASK32 for shift in range(0, max(master_seed.bit_length(), 1), 32)]
    entropy = np.empty((len(seed) + 3, len(rounds), stop - start), dtype=np.uint32)
    entropy[: len(seed)] = np.array(seed, dtype=np.uint32)[:, np.newaxis, np.newaxis]
    entropy[-3] = np.arange(start, stop, dtype=np.uint32)
    entropy[-2] = m
    entropy[-1] = np.array(rounds, dtype=np.uint32)[:, np.newaxis]
    words = _pcg64_words(_seed_words(_pool(entropy.reshape(len(entropy), -1))), 3)
    return words.reshape(len(rounds), stop - start, 3)
