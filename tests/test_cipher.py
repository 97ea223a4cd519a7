import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipher_audit import cipher

import oracles

# Output of the built-in matrix on a fixed block, frozen from the
# straight-line GF(2) oracle in oracles.py.
DIFFUSE_TEST_BLOCK = bytes((17 * i + 3) % 256 for i in range(16))
DIFFUSE_TEST_EXPECTED = bytes.fromhex("6eaab93097d2c4e67dd31ff588214c5b")

# Sizes whose 16-byte diffusion blocks do not line up with image rows
# (M % 16 != 0), so a block spans parts of two or more rows.
STRADDLING_SIZES = (4, 12, 20, 36)


def random_key(rng: np.random.Generator, m: int, rounds: int) -> cipher.CipherKey:
    return cipher.key_from_stream(rng, m, rounds)


def trial_key(master_seed: int, trial_index: int, m: int, rounds: int) -> cipher.CipherKey:
    rng = np.random.default_rng((master_seed, trial_index, m, rounds))
    return cipher.key_from_stream(rng, m, rounds)


def stack_index(keys, m: int, invert: bool = False) -> np.ndarray:
    """cipher._stack_index under a sequence of CipherKeys."""
    return cipher._stack_index(oracles.reduced_params(keys, m), m, invert)


def natural_index(index: np.ndarray) -> np.ndarray:
    """Encryption's flat gather index moved out of its frame, into the
    image's byte order: natural position j reads pi(index[pi^-1(j)]), with
    pi(k) = k - k % 16 + pinv[k % 16] (stack offsets are whole blocks)."""
    return oracles.frame(np.arange(index.size))[oracles.unframe(index)]


def package_diffusion(image: np.ndarray) -> np.ndarray:
    """The package's diffusion layer: block XOR, then the in-block move by pinv."""
    flat = cipher._block_xor(np.ascontiguousarray(image).reshape(-1))
    return flat.reshape(-1, 16)[:, oracles.byte_sources()].reshape(image.shape)


# ---------------------------------------------------------------------------
# diffusion matrix
# ---------------------------------------------------------------------------

class TestDiffusionMatrix:
    def test_full_rank(self):
        assert oracles.gf2_rank(cipher.build_diffusion_matrix()) == 16

    def test_inverse_is_identity(self):
        matrix = cipher.build_diffusion_matrix()
        inverse = oracles.gf2_inverse(matrix)
        product = oracles.gf2_matmul(matrix.tolist(), inverse.tolist())
        assert product == np.eye(16, dtype=int).tolist()

    def test_inverse_is_transpose(self):
        # A^-1 = A^T is what lets decryption reuse the block XOR
        matrix = cipher.build_diffusion_matrix()
        product = oracles.gf2_matmul(matrix.tolist(), matrix.T.tolist())
        assert product == np.eye(16, dtype=int).tolist()
        assert np.array_equal(oracles.gf2_inverse(matrix), matrix.T)

    def test_deterministic(self):
        # J xor P, with P drawn from the seed: row perm[c] of P has its 1 in column c
        perm = np.random.default_rng(cipher.DIFFUSION_SEED).permutation(16)
        p = np.zeros((16, 16), dtype=np.uint8)
        p[perm, np.arange(16)] = 1
        assert np.array_equal(cipher.build_diffusion_matrix(), 1 ^ p)

    def test_static_binary_entries(self):
        matrix = cipher.build_diffusion_matrix()
        assert matrix.shape == (16, 16)
        assert set(np.unique(matrix)) <= {0, 1}

    def test_gf2_inverse_rejects_singular(self):
        singular = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            oracles.gf2_inverse(singular)


# ---------------------------------------------------------------------------
# diffusion layer: block XOR plus the in-block move
# ---------------------------------------------------------------------------

class TestDiffuse:
    def test_zero_block_fixed(self):
        assert not cipher._block_xor(np.zeros(16, dtype=np.uint8)).any()

    def test_identity_matrix(self):
        block = bytes(range(16))
        out = oracles.diffuse(block, np.eye(16, dtype=np.uint8))
        assert bytes(out) == block

    def test_against_straight_line_oracle(self):
        matrix = cipher.build_diffusion_matrix()
        block = np.frombuffer(DIFFUSE_TEST_BLOCK, dtype=np.uint8).reshape(4, 4)
        assert package_diffusion(block).tobytes() == DIFFUSE_TEST_EXPECTED
        assert oracles.gf2_matvec_bytes(matrix, DIFFUSE_TEST_BLOCK) == DIFFUSE_TEST_EXPECTED

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="16 bytes"):
            oracles.diffuse(bytes(15), cipher.build_diffusion_matrix())

    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    @settings(max_examples=50)
    def test_linearity(self, u, v):
        x = np.frombuffer(u, dtype=np.uint8)
        y = np.frombuffer(v, dtype=np.uint8)
        assert np.array_equal(
            cipher._block_xor(x ^ y), cipher._block_xor(x) ^ cipher._block_xor(y)
        )

    @given(st.binary(min_size=48, max_size=48))
    @settings(max_examples=50)
    def test_block_xor_is_its_own_inverse(self, data):
        x = np.frombuffer(data, dtype=np.uint8)
        assert np.array_equal(cipher._block_xor(cipher._block_xor(x)), x)

    @pytest.mark.parametrize("count, m", [(1, 512), (20, 64), (3, 12)])
    def test_stack_equals_broadcast_reference(self, count, m):
        data = np.random.default_rng((count, m)).integers(0, 256, count * m * m, dtype=np.uint8)
        before = data.copy()
        out = cipher._block_xor(data)
        assert np.array_equal(out, oracles.block_xor_broadcast(data))
        assert np.array_equal(data, before)
        # a fresh buffer: _rounds never writes to a stack it has yielded
        assert out.dtype == np.uint8 and out.shape == data.shape
        assert out.flags.c_contiguous and not np.shares_memory(out, data)

    def test_bulk_matches_per_block(self):
        rng = np.random.default_rng(11)
        matrix = cipher.build_diffusion_matrix()
        for m in (12, 16):
            image = rng.integers(0, 256, (m, m), dtype=np.uint8)
            bulk = package_diffusion(image).reshape(-1, 16)
            for i, block in enumerate(image.reshape(-1, 16)):
                assert np.array_equal(bulk[i], oracles.diffuse(block, matrix))


# ---------------------------------------------------------------------------
# cat map and the fused gather index
# ---------------------------------------------------------------------------

def decode_index(index: np.ndarray, m: int) -> list[tuple[int, int]]:
    """Grid cell (x, y) of the diffused image that each output position of
    encryption's frame reads: in the frame the block-XORed stack is the
    diffused image, so the index holds the cell's flat position itself."""
    return [divmod(f, m) for f in index.tolist()]


def cat_map_sources(key: cipher.CipherKey, m: int) -> list[tuple[int, int]]:
    """Cell that the oracle cat map sends to the scramble's source of each
    output position, in encryption's frame (entry k is natural position
    pi(k)'s); the fused index must read exactly these cells."""
    scramble = oracles.scramble_pairs(cipher.SCRAMBLE_SEED, m)
    table = oracles.cat_map_table(*key.params(), m)
    moved_to = {target: cell for cell, target in table.items()}
    return [moved_to[scramble[k // m][k % m]] for k in oracles.frame(np.arange(m * m)).tolist()]


class TestCatMap:
    def test_identity_parameters(self):
        table = oracles.cat_map_table(0, 0, 0, 0, 4)
        assert all(table[cell] == cell for cell in table)

    def test_direct_evaluation_example(self):
        assert oracles.cat_map_table(1, 1, 0, 0, 4)[(1, 0)] == (1, 1)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=30)
    def test_bijective_on_8x8(self, a, b, rx, ry):
        table = oracles.cat_map_table(a, b, rx, ry, 8)
        assert set(table.values()) == {(x, y) for x in range(8) for y in range(8)}
        key = cipher.CipherKey(a, b, rx, ry, rounds=1)
        assert decode_index(stack_index([key], 8), 8) == cat_map_sources(key, 8)

    def test_grids_match_pointwise(self):
        # the closed-form inverse in the fused index, cell by cell: output
        # position k reads the cell that the cat map sends to the scramble's
        # source of k
        for key, m in ((cipher.CipherKey(5, 9, 2, 7, rounds=1), 16),
                       (cipher.CipherKey(13, 6, 11, 3, rounds=1), 12)):
            assert decode_index(stack_index([key], m), m) == cat_map_sources(key, m)


# ---------------------------------------------------------------------------
# bit planes and permutation layer
# ---------------------------------------------------------------------------

class TestBitPermutation:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_bitplane_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        planes = oracles.to_bitplanes(image)
        assert planes.shape == (8, 8, 8)
        assert np.array_equal(oracles.from_bitplanes(planes), image)

    def test_plane_k_holds_bit_k(self):
        image = np.full((4, 4), 0b10110010, dtype=np.uint8)
        planes = oracles.to_bitplanes(image)
        for k in range(8):
            assert np.all(planes[k] == ((0b10110010 >> k) & 1))

    def test_identity_parameters_leave_planes(self):
        key = cipher.CipherKey(0, 0, 0, 0, rounds=1)
        rng = np.random.default_rng(3)
        planes = oracles.to_bitplanes(rng.integers(0, 256, (8, 8), dtype=np.uint8))
        assert np.array_equal(oracles.permute_bits(planes, key), planes)

    def test_single_bit_follows_cat_map(self):
        key = cipher.CipherKey(1, 1, 0, 0, rounds=1)
        planes = np.zeros((8, 4, 4), dtype=np.uint8)
        planes[0, 1, 0] = 1
        out = oracles.permute_bits(planes, key)
        assert out[0, 1, 1] == 1
        assert out.sum() == 1

    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8, 16]))
    @settings(max_examples=25)
    def test_permute_roundtrip(self, seed, m):
        rng = np.random.default_rng(seed)
        key = random_key(rng, m, 1)
        planes = oracles.to_bitplanes(rng.integers(0, 256, (m, m), dtype=np.uint8))
        permuted = oracles.permute_bits(planes, key)
        assert np.array_equal(oracles.inverse_permute_bits(permuted, key), planes)

    def test_byte_route_equals_plane_route(self):
        # one package round against diffusion, per-plane cat map, scramble
        # and rotation run separately through bit-planes
        rng = np.random.default_rng(9)
        matrix = cipher.build_diffusion_matrix()
        for m in (8, 12, 16):
            key = random_key(rng, m, 1)
            image = rng.integers(0, 256, (m, m), dtype=np.uint8)
            via_planes = oracles.encrypt_one_round_planes(
                image, key, matrix,
                oracles.scramble_pairs(cipher.SCRAMBLE_SEED, m),
                oracles.rotation_shifts(cipher.ROTATION_SEED, m),
            )
            assert np.array_equal(cipher.encrypt(image, key), via_planes)

    def test_scramble_roundtrip_and_permutation(self):
        rng = np.random.default_rng(5)
        for m in (12, 16):
            key = random_key(rng, m, 1)
            index = natural_index(stack_index([key], m))
            inverse = stack_index([key], m, True)
            identity = np.arange(m * m)
            assert np.array_equal(np.sort(index), identity)
            assert np.array_equal(index[inverse], identity)
            assert np.array_equal(inverse[index], identity)
            u, v = cipher.static_tables(m)[:2]
            pairs = oracles.scramble_pairs(cipher.SCRAMBLE_SEED, m)
            assert list(zip(oracles.unframe(u).tolist(), oracles.unframe(v).tolist())) == \
                [p for row in pairs for p in row]

    def test_rotation_roundtrip_preserves_bit_count(self):
        # 4096 positions hold every (shift, byte) pair twice
        position = np.arange(64 * 64)
        shift = (position // 256 % 8).astype(np.uint8)
        data = (position % 256).astype(np.uint8)
        rotated = cipher._rotate(data, shift, 8 - shift)
        restored = cipher._rotate(rotated, 8 - shift, shift)
        for s, byte, r in zip(shift.tolist(), data.tolist(), rotated.tolist()):
            assert r == oracles.rotate_left(byte, s)
            assert r.bit_count() == byte.bit_count()
        assert np.array_equal(restored, data)
        m = 16
        _, _, shift, natural_shift, _ = cipher.static_tables(m)
        shifts = [s for row in oracles.rotation_shifts(cipher.ROTATION_SEED, m) for s in row]
        assert natural_shift.tolist() == oracles.unframe(shift).tolist() == shifts
        assert not shift.flags.writeable and not natural_shift.flags.writeable


class TestStaticTables:
    """The tables are stored narrow and must equal the seeded int64 draws
    that define them; the gather index is int32 at every standard size."""

    def test_build_peak_memory(self):
        # the int64 permutation is freed before the rotation draw, and the
        # scramble's inverse is built in blocks
        cipher.static_tables.cache_clear()
        tracemalloc.start()
        try:
            cipher.static_tables(512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * 2**20

    @pytest.mark.parametrize("m", [4, 12, 196, 300, 512])
    def test_scramble_coords_equal_int64_permutation(self, m):
        flat = np.random.default_rng((cipher.SCRAMBLE_SEED, m)).permutation(m * m)
        want_u, want_v = np.divmod(flat, m)
        u, v = cipher.static_tables(m)[:2]
        assert u.dtype == v.dtype == np.int16
        # held in encryption's frame
        assert np.array_equal(oracles.unframe(u), want_u) and np.array_equal(oracles.unframe(v), want_v)
        assert not u.flags.writeable and not v.flags.writeable

    @pytest.mark.parametrize("m", [16, 32, 64, 128, 196, 256, 300, 512])
    def test_gather_index_is_int32(self, m):
        # encryption's closed form, _source, at every framed scramble cell
        params = oracles.reduced_params([(m - 1, m + 3, 2 * m - 1, 7), (0, 0, 0, 0)], m)
        a, b, rx, ry = params.T[:, :, np.newaxis]
        u, v = cipher.static_tables(m)[:2]
        index = cipher._source(u, v, a, b, rx, ry, m)
        assert index.dtype == np.int32 and index.shape == (2, m * m)

    @pytest.mark.parametrize("m", [4, 12, 196, 300, 512])
    def test_rotation_shifts_equal_int64_draw(self, m):
        want = np.random.default_rng((cipher.ROTATION_SEED, m)).integers(0, 8, size=m * m)
        _, _, shift, natural_shift, _ = cipher.static_tables(m)
        assert shift.dtype == natural_shift.dtype == np.uint8
        # decryption's shifts are natural, encryption's in its frame
        assert np.array_equal(natural_shift, want)
        assert np.array_equal(oracles.unframe(shift), want)
        assert not shift.flags.writeable and not natural_shift.flags.writeable

    def test_static_tables_is_the_only_cache(self):
        # encrypting and decrypting, sparse and dense, fill no other cache
        caches = [f for f in vars(cipher).values() if hasattr(f, "cache_info")]
        assert cipher.static_tables in caches
        for cache in caches:
            cache.cache_clear()
        m = 48
        rng = np.random.default_rng(m)
        one_bit = np.zeros((m, m), dtype=np.uint8)
        one_bit[5, 7] = 1
        key = random_key(rng, m, 3)
        for image in (one_bit, rng.integers(0, 256, (m, m), dtype=np.uint8)):
            assert np.array_equal(cipher.decrypt(cipher.encrypt(image, key), key), image)
        filled = [cache.__name__ for cache in caches if cache.cache_info().currsize]
        assert filled == ["static_tables"]


class TestFramed:
    """_framed takes natural positions into encryption's frame, where
    oracles.frame moves their bytes; the sparse rounds and the sweeps'
    plaintext draws use it."""

    @pytest.mark.parametrize("m", [16, 300])
    def test_is_where_frame_moves_a_one_hot_byte(self, m):
        n = m * m
        # at M = 300 blocks straddle rows: 300 is not a multiple of 16
        positions = range(n) if m == 16 else [*range(2 * m), *range(n - m, n)]
        for p in positions:
            one_hot = np.zeros(n, dtype=np.uint8)
            one_hot[p] = 1
            assert np.flatnonzero(oracles.frame(one_hot)).tolist() == cipher._framed(np.array([p])).tolist(), p
        # every position at once: frame moves natural byte frame(arange)[k] to k
        want = np.argsort(oracles.frame(np.arange(n)))
        for dtype in (np.int32, np.intp):
            got = cipher._framed(np.arange(n, dtype=dtype))
            assert got.dtype == dtype
            assert np.array_equal(got, want)


class TestForwardTables:
    """The forward byte map: the scramble's inverse, held natural by
    static_tables, at the cells that decryption's index passes to
    _destination, each block's start plus p0."""

    @pytest.mark.parametrize("m", [4, 12, 196, 300, 512])
    def test_scramble_positions_invert_the_scramble(self, m):
        u, v, *_, scramble_pos = cipher.static_tables(m)
        assert scramble_pos.dtype == np.int32 and not scramble_pos.flags.writeable
        u, v = oracles.unframe(u), oracles.unframe(v)
        assert np.array_equal(scramble_pos[u.astype(np.int64) * m + v], np.arange(m * m))

    @pytest.mark.parametrize("m", [4, 12, 20, 300])
    def test_cell_coords_undo_the_in_block_move(self, m):
        # position j's byte lands, after the in-block move, in the cell whose
        # flat position f satisfies pinv[f % 16] == j % 16 within j's block;
        # under the zero key the cat map leaves that cell where it is, and
        # the scramble takes it to scramble_pos[f]
        moved = {src: j for j, src in enumerate(oracles.byte_sources())}
        *_, scramble_pos = cipher.static_tables(m)
        want = [int(scramble_pos[j - j % 16 + moved[j % 16]]) for j in range(m * m)]
        start = np.arange(0, m * m, 16, dtype=np.int32)[:, np.newaxis]
        p0 = np.array([moved[i] for i in range(16)], dtype=np.int32)
        zero = np.zeros((1, 1), dtype=np.int32)
        got = cipher._destination(start + p0, zero, zero, zero, zero, m)
        assert got.dtype == np.int32 and got.shape == (m * m // 16, 16)
        assert got.reshape(-1).tolist() == want


class TestClosedFormInverse:
    """Decryption's gather index is the forward byte map evaluated at every
    position; the scatter that inverts the encryption index is the oracle."""

    @pytest.mark.parametrize("m", [4, 12, 20, 36, 256, 300, 512])
    def test_equals_scatter_inverse(self, m):
        rng = np.random.default_rng(m)
        q = cipher.param_bits(m)
        keys = [random_key(rng, m, 1) for _ in range(16)] + [
            cipher.CipherKey(m, m + 1, 2 * m - 1, 3 * m, rounds=1),
            cipher.CipherKey((1 << q) - 1, (1 << q) - 1, (1 << q) - 1, (1 << q) - 1, rounds=1),
            cipher.CipherKey(0, 0, 0, 0, rounds=1),
            cipher.CipherKey(10**12 + 7, 5 * m + 3, m * m, 2**40, rounds=1),
        ]
        for start in range(0, len(keys), 4):
            group = keys[start : start + 4]
            forward = natural_index(stack_index(group, m))
            inverse = stack_index(group, m, True)
            assert inverse.dtype == np.intp
            assert np.array_equal(inverse, oracles.inverse_index_by_scatter(forward))

    @pytest.mark.parametrize("m", [16, 300, 512])
    def test_decrypt_index_is_int32(self, m):
        # decryption's closed form, _destination, at every position's cell
        # after the in-block move
        params = oracles.reduced_params([(m - 1, m + 3, 2 * m - 1, 7), (0, 0, 0, 0)], m)
        a, b, rx, ry = params.T[:, :, np.newaxis]
        cells = np.arange(0, m * m, 16, dtype=np.int32)[:, np.newaxis] + cipher._P0
        index = cipher._destination(cells.reshape(-1), a, b, rx, ry, m)
        assert index.dtype == np.int32 and index.shape == (2, m * m)


class TestBlockedIndex:
    """_stack_index fills its intp index in blocks of at most _INDEX_BLOCK
    positions; the whole-array build of the oracle is the reference."""

    @pytest.mark.parametrize("invert", [False, True], ids=["encrypt", "decrypt"])
    @pytest.mark.parametrize("count", [1, 2, 3, 20, 64])
    @pytest.mark.parametrize("m", [12, 128, 132, 300, 512])
    def test_equals_whole_array_build(self, m, count, invert):
        # 12: 113 keys per block; 128: one key per block; 132, 300 and 512:
        # rows cut into segments, with a short last one where 16384 does not
        # divide M*M (300*300 = 90000)
        rng = np.random.default_rng((m, count))
        params = rng.integers(0, m, size=(count, 4), dtype=np.int32)
        index = cipher._stack_index(params, m, invert)
        assert index.dtype == np.intp and index.shape == (count * m * m,)
        # the oracle in groups of keys, so that it stays within about 2**20 positions
        n = m * m
        group = max(1, 2**20 // n)
        for first in range(0, count, group):
            want = oracles.stack_index_whole(params[first : first + group], m, invert) + first * n
            assert np.array_equal(index[first * n : first * n + want.size], want), first

    @pytest.mark.parametrize("invert", [False, True], ids=["encrypt", "decrypt"])
    def test_build_allocates_the_index_and_small_blocks(self, invert):
        m = 512
        params = oracles.reduced_params([(3, 5, 7, 11)], m)
        cipher._stack_index(params, m, invert)  # the static tables, not counted here
        tracemalloc.start()
        try:
            cipher._stack_index(params, m, invert)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * m + 2**20


class TestReduction:
    """_reduce masks where M is a power of two and divides otherwise; both
    branches are checked against np.mod and, through _stack_index, against
    the cat map's closed form in Python integers."""

    @pytest.mark.parametrize("m", [4, 12, 16, 300, 512, 16384])
    def test_reduce_equals_np_mod(self, m):
        bound = 2 * m * m  # the byte maps' intermediates lie in (-bound, bound)
        rng = np.random.default_rng(m)
        edges = [1 - bound, -m - 1, -m, -1, 0, 1, m - 1, m, m + 1, bound - 1]
        values = np.concatenate([edges, rng.integers(1 - bound, bound, size=50000)]).astype(np.int32)
        want = np.mod(values, m)
        tmp = np.empty_like(values)
        cipher._reduce(values, m, tmp)
        assert values.dtype == np.int32
        assert np.array_equal(values, want)

    @pytest.mark.parametrize("invert", [False, True], ids=["encrypt", "decrypt"])
    @pytest.mark.parametrize("m", [12, 16, 64, 256, 300, 512])
    def test_gather_index_equals_python_closed_form(self, m, invert):
        rng = np.random.default_rng((m, invert))
        params = np.array(
            [[0, 0, 0, 0], [m - 1] * 4, [0, m - 1, m - 1, 0], *rng.integers(0, m, size=(2, 4))],
            dtype=np.int32,
        )
        n = m * m
        index = cipher._stack_index(params, m, invert).reshape(len(params), n)
        index -= np.arange(0, index.size, n)[:, np.newaxis]
        for row, want, key in zip(index, oracles.gather_index_closed_form(params, m, invert), params):
            assert row.tolist() == want, key


def run_stack(stack, keys, m, rounds, invert):
    """rounds rounds of cipher._run over a (W, M, M) stack under a sequence
    of CipherKeys: W keys, one per image, or one key that every image shares.
    Encryption runs in its frame, as encrypt does: the stack is moved into
    it and the result back out."""
    params = oracles.reduced_params(keys, m)
    if invert:
        return cipher._run(stack.reshape(-1), params, m, rounds, True).reshape(stack.shape)
    flat = cipher._run(oracles.frame(stack).reshape(-1), params, m, rounds, False)
    return oracles.unframe(flat).reshape(stack.shape)


def run_dense(stack, keys, m, rounds, invert):
    """run_stack with every round dense: a fixed round cost of the whole
    stack's size keeps the sparse rounds off."""
    with mock.patch.object(cipher, "_SPARSE_ROUND_BYTES", stack.size):
        return run_stack(stack, keys, m, rounds, invert)


def run_switching(stack, keys, m, switch):
    """All rounds of encryption under keys over stack, the first `switch` of
    them as sparse rounds whatever the support, the rest dense; the sparse
    rounds run in encryption's frame."""
    flat = oracles.frame(stack).reshape(-1)
    blocks = np.flatnonzero(cipher._touched_blocks(flat))
    per_image = np.broadcast_to(oracles.reduced_params(keys, m), (len(stack), 4))
    for _ in range(switch):
        flat, blocks = cipher._sparse_round(flat, blocks, per_image, m)
        # every nonzero block of the new stack is among its touched blocks
        assert np.isin(np.flatnonzero(cipher._touched_blocks(flat)), blocks).all()
    return run_dense(oracles.unframe(flat).reshape(stack.shape), keys, m, keys[0].rounds - switch, False)


def sparse_stacks(rng, m, count):
    """Stacks of count images: all zero, a few random bytes per image, every
    block nonzero, and one dense image among one-bit images."""
    zero = np.zeros((count, m, m), dtype=np.uint8)
    few = zero.copy()
    for image in few:
        spots = rng.integers(0, m * m, size=3)
        image.reshape(-1)[spots] = rng.integers(1, 256, size=3, dtype=np.uint8)
    full = zero.copy()
    full.reshape(-1, 16)[:, 5] = rng.integers(1, 256, size=full.size // 16, dtype=np.uint8)
    mixed = zero.copy()
    mixed[0] = rng.integers(0, 256, (m, m), dtype=np.uint8)
    for image in mixed[1:]:
        image[rng.integers(m), rng.integers(m)] = 1 << rng.integers(8)
    return {"zero": zero, "few": few, "full": full, "mixed": mixed}


class TestSparseRounds:
    """Sparse rounds of encryption give the dense rounds' bytes for every
    round at which the stack may switch to dense; decryption, dense only,
    inverts each of them."""

    ROUNDS = 3

    @pytest.mark.parametrize("invert", [False, True], ids=["encrypt", "decrypt"])
    @pytest.mark.parametrize("one_key", [False, True], ids=["keys", "one-key"])
    @pytest.mark.parametrize("m", [4, 12, 20, 36, 300])
    def test_every_switch_round_equals_dense(self, m, one_key, invert):
        rng = np.random.default_rng((m, one_key, invert))
        count = 3
        keys = TestStack.mixed_keys(rng, m, self.ROUNDS)[:count]
        keys = tuple(keys[-1:] if one_key else keys)
        for name, stack in sparse_stacks(rng, m, count).items():
            dense = run_switching(stack, keys, m, 0)
            for switch in range(1, self.ROUNDS + 1):
                encrypted = run_switching(stack, keys, m, switch)
                if invert:
                    assert np.array_equal(run_stack(encrypted, keys, m, self.ROUNDS, True), stack), \
                        (name, switch)
                else:
                    assert np.array_equal(encrypted, dense), (name, switch)

    @pytest.mark.parametrize("rounds", [1, 2, 3, 6])
    @pytest.mark.parametrize("m, count", [(36, 40), (300, 2), (512, 1)])
    def test_public_route_equals_dense(self, m, count, rounds):
        # one-bit stacks large enough that the stack starts sparse, and at
        # M >= 300 each of its images alone does too
        rng = np.random.default_rng((m, count, rounds))
        keys = tuple(random_key(rng, m, rounds) for _ in range(count))
        stack = sparse_stacks(rng, m, count)["few" if m == 36 else "mixed"]
        if m != 36:
            stack[0] = 0
            stack[0, 3, 4] = 0x80
        for invert, op in ((False, cipher.encrypt), (True, cipher.decrypt)):
            dense = run_dense(stack, keys, m, rounds, invert)
            assert np.array_equal(run_stack(stack, keys, m, rounds, invert), dense)
            assert np.array_equal(oracles.per_image(op, stack, keys), dense)
        encrypted = oracles.per_image(cipher.encrypt, stack, keys)
        assert np.array_equal(oracles.per_image(cipher.decrypt, encrypted, keys), stack)

    def test_one_bit_round_builds_no_gather_index(self, monkeypatch):
        def no_index(*args):
            raise AssertionError("a sparse input built the M*M gather index")

        monkeypatch.setattr(cipher, "_stack_index", no_index)
        rng = np.random.default_rng(2)
        image = np.zeros((512, 512), dtype=np.uint8)
        image[100, 200] = 4
        for rounds in (1, 2, 3):
            assert cipher.encrypt(image, random_key(rng, 512, rounds)).any()

    def test_decryption_runs_no_sparse_round(self, monkeypatch):
        def no_sparse_round(*args):
            raise AssertionError("decryption ran a sparse round")

        monkeypatch.setattr(cipher, "_sparse_round", no_sparse_round)
        built = oracles.count_index_builds(monkeypatch)
        m = 512
        rng = np.random.default_rng(3)
        # the one-bit image of the test above, whose encryption runs these rounds sparse
        image = np.zeros((1, m, m), dtype=np.uint8)
        image[0, 100, 200] = 4
        for rounds in (1, 2, 3):
            keys = (random_key(rng, m, rounds),)
            built.clear()
            decrypted = oracles.per_image(cipher.decrypt, image, keys)
            assert built == [(1, m * m)]
            assert np.array_equal(decrypted, run_dense(image, keys, m, rounds, True))
            assert np.array_equal(run_dense(decrypted, keys, m, rounds, False), image)

    @pytest.mark.parametrize("count", [4, 20])
    def test_mixed_stack_switches_together(self, count):
        # with 4 images the dense one keeps the whole stack dense; with 20 the
        # stack starts sparse and carries the dense image through sparse rounds
        m, rounds = 300, 4
        rng = np.random.default_rng(count)
        keys = tuple(random_key(rng, m, rounds) for _ in range(count))
        stack = sparse_stacks(rng, m, count)["mixed"]
        encrypted = run_stack(stack, keys, m, rounds, False)
        assert np.array_equal(encrypted, run_dense(stack, keys, m, rounds, False))
        assert np.array_equal(encrypted, oracles.per_image(cipher.encrypt, stack, keys))
        assert np.array_equal(run_stack(encrypted, keys, m, rounds, True), stack)


def unreduced_keys(rng, m, count, rounds):
    """count keys whose q-bit parameters are all at least M (M not a power of two)."""
    top = 1 << cipher.param_bits(m)
    return tuple(cipher.CipherKey(*(int(v) for v in rng.integers(m, top, size=4)), rounds=rounds)
                 for _ in range(count))


class TestArrayRoute:
    """cipher._run under reduced int32 parameters, one row per image or one
    row for a whole stack, equals encrypt and decrypt under CipherKeys."""

    @pytest.mark.parametrize("invert", [False, True], ids=["encrypt", "decrypt"])
    @pytest.mark.parametrize("kind", ["few", "full", "mixed"])
    @pytest.mark.parametrize("m", [20, 300])
    def test_params_equal_cipher_keys(self, m, kind, invert):
        rng = np.random.default_rng((m, len(kind), invert))
        count, rounds = 4, 3
        keys = unreduced_keys(rng, m, count, rounds)
        stack = sparse_stacks(rng, m, count)[kind]
        op = cipher.decrypt if invert else cipher.encrypt
        for row_keys in (keys, keys[:1]):
            params = oracles.reduced_params(row_keys, m)
            assert params.dtype == np.int32 and params.shape == (len(row_keys), 4)
            # encryption runs in its frame
            move_in, move_out = (np.asarray, np.asarray) if invert else (oracles.frame, oracles.unframe)
            out = move_out(cipher._run(move_in(stack).reshape(-1), params, m, rounds, invert))
            want = oracles.per_image(op, stack, row_keys if len(row_keys) > 1 else row_keys[0])
            assert np.array_equal(out.reshape(stack.shape), want)

    @pytest.mark.parametrize("invert", [False, True], ids=["encrypt", "decrypt"])
    @pytest.mark.parametrize("m", [20, 300])
    def test_any_size_parameters_reduce_mod_m(self, m, invert):
        # fields of 2**64 and more: a fixed-width cast before the reduction overflows
        key = cipher.CipherKey(2**70 + 3, 2**64 + 7, 2**40, 5, rounds=3)
        reduced = cipher.CipherKey(*(p % m for p in key.params()), rounds=3)
        op = cipher.decrypt if invert else cipher.encrypt
        rng = np.random.default_rng((m, invert))
        one_bit = np.zeros((m, m), dtype=np.uint8)
        one_bit[3, 5] = 1
        for image in (rng.integers(0, 256, (m, m), dtype=np.uint8), one_bit):
            assert np.array_equal(op(image, key), op(image, reduced))


class TestRoundGenerator:
    """cipher._rounds yields the stack after each round: its k-th item is
    the k-round encryption (or decryption), and it builds one gather index
    at most, at its first dense round; decryption's rounds are all dense."""

    ROUNDS = 7

    @pytest.mark.parametrize("invert", [False, True], ids=["encrypt", "decrypt"])
    @pytest.mark.parametrize("kind", ["few", "full", "mixed"])
    @pytest.mark.parametrize("m, count", [(16, 3), (300, 3), (300, 20)])
    def test_kth_yield_equals_k_rounds(self, m, count, kind, invert, monkeypatch):
        rng = np.random.default_rng((m, count, len(kind), invert))
        keys = tuple(random_key(rng, m, 1) for _ in range(count))
        stack = sparse_stacks(rng, m, count)[kind]
        op = cipher.decrypt if invert else cipher.encrypt
        sparse = []
        sparse_round = cipher._sparse_round
        monkeypatch.setattr(cipher, "_sparse_round",
                            lambda *args: sparse.append(1) or sparse_round(*args))
        built = oracles.count_index_builds(monkeypatch)
        params = oracles.reduced_params(keys, m)
        # encryption runs in its frame
        move_in, move_out = (np.asarray, np.asarray) if invert else (oracles.frame, oracles.unframe)
        stacks = cipher._rounds(move_in(stack).reshape(-1), params, m, invert)
        yields = list(itertools.islice(stacks, self.ROUNDS))
        sparse_rounds = len(sparse)
        assert len(built) == (sparse_rounds < self.ROUNDS)
        for k, flat in enumerate(yields, start=1):
            k_keys = [cipher.CipherKey(*key.params(), rounds=k) for key in keys]
            assert np.array_equal(move_out(flat).reshape(stack.shape), oracles.per_image(op, stack, k_keys)), k
        if invert:
            assert sparse_rounds == 0
        elif (m, count, kind) == (300, 20, "mixed"):
            # the stack starts sparse and switches to dense mid-run
            assert 0 < sparse_rounds < self.ROUNDS

    @pytest.mark.parametrize("invert", [False, True], ids=["encrypt", "decrypt"])
    def test_zero_rounds_return_the_stack(self, invert):
        # the avalanche batch runs r - 1 rounds, none at r = 1
        m = 16
        flat = np.random.default_rng(m).integers(0, 256, 3 * m * m, dtype=np.uint8)
        before = flat.copy()
        params = oracles.reduced_params([(3, 5, 7, 11)], m)
        assert cipher._run(flat, params, m, 0, invert) is flat
        assert np.array_equal(flat, before)

    def test_run_builds_one_index_at_most(self, monkeypatch):
        built = oracles.count_index_builds(monkeypatch)
        m = 512
        image = np.zeros((m, m), dtype=np.uint8)
        image[100, 200] = 4
        params = oracles.reduced_params([(3, 5, 7, 11)], m)
        for invert in (False, True):
            cipher._run(image.reshape(-1), params, m, 2, invert)
            # encryption ran every round sparse; decryption runs dense only
            assert built == ([(1, m * m)] if invert else [])
            built.clear()
            cipher._run(image.reshape(-1), params, m, 7, invert)
            assert built == [(1, m * m)]
            built.clear()


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

class TestKeys:
    @pytest.mark.parametrize(
        "m, q", [(4, 2), (16, 4), (64, 6), (196, 8), (256, 8), (300, 9), (512, 9)]
    )
    def test_param_bits(self, m, q):
        assert cipher.param_bits(m) == q
        assert cipher.key_bits(m) == 4 * q

    def test_hex_roundtrip(self):
        key = cipher.CipherKey(a=0x2A, b=0x01, rx=0xFF, ry=0x80, rounds=6)
        text = oracles.key_to_hex(key, 256)
        assert len(text) == 8  # 32 bits
        assert cipher.key_from_hex(text, 256, 6) == key
        assert cipher.key_from_hex(text.upper(), 256, 6) == key

    def test_serialized_length_is_4q_bits(self):
        for m in (4, 16, 64, 256, 512):
            key = oracles.derive_trial_key(2, 1, m, 1)
            assert len(oracles.key_to_hex(key, m)) * 4 == cipher.key_bits(m)

    def test_wrong_hex_length_rejected(self):
        with pytest.raises(ValueError, match="hex digits"):
            cipher.key_from_hex("abcd", 256, 6)

    @pytest.mark.parametrize("text", ["0x3fa9c2", "3f_a9c2d", "-3fa9c2d", " 3fa9c2d"])
    def test_malformed_hex_rejected(self, text):
        # each is 8 characters, the length for M=256, and int(text, 16) reads it
        assert len(text) == 8
        int(text, 16)
        with pytest.raises(ValueError, match="only the hex digits"):
            cipher.key_from_hex(text, 256, 6)

    def test_oversized_parameter_rejected(self):
        key = cipher.CipherKey(a=256, b=0, rx=0, ry=0, rounds=1)
        with pytest.raises(ValueError, match="does not fit"):
            oracles.key_to_hex(key, 256)

    def test_invalid_rounds_rejected(self):
        with pytest.raises(ValueError):
            cipher.CipherKey(1, 1, 1, 1, rounds=0)

    @pytest.mark.parametrize("rounds", [2**32, 2**63])
    def test_round_counts_from_2_to_the_32_rejected(self, rounds):
        # a round count above sys.maxsize once failed deep in the rounds
        with pytest.raises(ValueError, match=f"^round counts must be within 1..{2**32 - 1}, got {rounds}$"):
            cipher.CipherKey(1, 2, 3, 4, rounds=rounds)
        assert cipher.check_rounds(2**32 - 1) == 2**32 - 1
        assert cipher.CipherKey(1, 2, 3, 4, rounds=2**32 - 1).rounds == 2**32 - 1

    @pytest.mark.parametrize("fields, name", [
        ((1.5, 0, 0, 0, 1), "a"),
        ((np.float64(3.9), 0, 0, 0, 1), "a"),
        ((1, 1, 1, 1, 2.0), "rounds"),
    ], ids=["float-a", "numpy-float-a", "float-rounds"])
    def test_non_integer_field_rejected(self, fields, name):
        # each would otherwise be truncated into another key, or fail deep in a round
        with pytest.raises(TypeError, match=f"key field {name} must be an integer"):
            cipher.CipherKey(*fields)

    def test_numpy_integer_key_equals_its_int_twin(self):
        key = cipher.CipherKey(np.int64(3), np.uint8(5), np.int32(7), np.uint64(11), np.int16(2))
        twin = cipher.CipherKey(3, 5, 7, 11, 2)
        assert key == twin and hash(key) == hash(twin)
        image = np.random.default_rng(5).integers(0, 256, (16, 16), dtype=np.uint8)
        np.testing.assert_array_equal(cipher.encrypt(image, key), cipher.encrypt(image, twin))
        np.testing.assert_array_equal(cipher.decrypt(image, key), cipher.decrypt(image, twin))

    def test_derive_trial_key_deterministic(self):
        first = trial_key(42, 7, 256, 6)
        assert trial_key(42, 7, 256, 6) == first
        assert trial_key(42, 8, 256, 6) != first

    def test_derived_parameters_in_range(self):
        for w in range(1000):
            key = trial_key(3, w, 256, 6)
            assert all(0 <= p <= 255 for p in key.params())

    def test_derived_parameters_uniform(self):
        # chi-square of each parameter over 1e5 draws, 256 bins, M=256
        draws = np.array([trial_key(0, w, 256, 6).params() for w in range(100_000)])
        expected = draws.shape[0] / 256
        for column in range(4):
            counts = np.bincount(draws[:, column], minlength=256)
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2 <= 293.0

    def test_stream_matches_derive(self):
        rng = np.random.default_rng((9, 4, 64, 2))
        assert cipher.key_from_stream(rng, 64, 2) == oracles.derive_trial_key(9, 4, 64, 2)


# ---------------------------------------------------------------------------
# encrypt / decrypt
# ---------------------------------------------------------------------------

class TestCipherRoundtrip:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8, 16, 32]), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, seed, m, rounds):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, (m, m), dtype=np.uint8)
        key = random_key(rng, m, rounds)
        assert np.array_equal(cipher.decrypt(cipher.encrypt(image, key), key), image)

    def test_zero_image_is_fixed_point(self):
        zero = np.zeros((4, 4), dtype=np.uint8)
        for w in range(5):
            key = oracles.derive_trial_key(1, w, 4, 1)
            assert np.array_equal(cipher.encrypt(zero, key), zero)
            assert np.array_equal(cipher.decrypt(zero, key), zero)

    def test_single_round_matches_hand_sequenced_trace(self):
        key = cipher.CipherKey(a=3, b=7, rx=5, ry=11, rounds=1)
        for m in (12, 16, 20):
            image = np.zeros((m, m), dtype=np.uint8)
            image[2, 9] = 1
            expected = oracles.encrypt_one_round_trace(
                image.tolist(), key, cipher.build_diffusion_matrix().tolist(),
                oracles.scramble_pairs(cipher.SCRAMBLE_SEED, m),
                oracles.rotation_shifts(cipher.ROTATION_SEED, m),
            )
            assert np.array_equal(cipher.encrypt(image, key), expected), f"M={m}"

    def test_encryption_is_linear_over_gf2(self):
        rng = np.random.default_rng(8)
        key = random_key(rng, 16, 3)
        u = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        v = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        assert np.array_equal(
            cipher.encrypt(u ^ v, key), cipher.encrypt(u, key) ^ cipher.encrypt(v, key)
        )

    def test_input_not_mutated(self):
        rng = np.random.default_rng(10)
        image = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        copy = image.copy()
        key = random_key(rng, 8, 2)
        cipher.encrypt(image, key)
        cipher.decrypt(image, key)
        assert np.array_equal(image, copy)

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(12)
        image = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        key = random_key(rng, 12, 2)
        for view in (image.T, image[::-1], image[:, ::-1]):
            copy = np.ascontiguousarray(view)
            assert np.array_equal(cipher.encrypt(view, key), cipher.encrypt(copy, key))
            assert np.array_equal(cipher.decrypt(view, key), cipher.decrypt(copy, key))

    @pytest.mark.parametrize("shape", [(5, 5), (8, 12), (2, 2)])
    def test_bad_dimensions_rejected(self, shape):
        key = cipher.CipherKey(1, 1, 1, 1, rounds=1)
        with pytest.raises(cipher.DimensionError):
            cipher.encrypt(np.zeros(shape, dtype=np.uint8), key)

    def test_wrong_dtype_rejected(self):
        key = cipher.CipherKey(1, 1, 1, 1, rounds=1)
        with pytest.raises(cipher.DimensionError):
            cipher.encrypt(np.zeros((8, 8), dtype=np.int32), key)


class TestStack:
    """A (W, M, M) stack on cipher._run, under W parameter rows or one row
    for every image, is W single-image public calls in one, in both
    directions; the public calls take one image under one CipherKey."""

    @staticmethod
    def mixed_keys(rng, m, rounds):
        # random keys, a repeat, and parameters at or past M (reduced mod M)
        keys = [random_key(rng, m, rounds) for _ in range(3)]
        q = cipher.param_bits(m)
        top = (1 << q) - 1
        return keys + [keys[0], cipher.CipherKey(top, m, top, m - 1, rounds=rounds)]

    @pytest.mark.parametrize("rounds", [1, 2, 6])
    @pytest.mark.parametrize("m", [4, 12, 20, 64])
    def test_stack_equals_separate_calls(self, m, rounds):
        rng = np.random.default_rng((m, rounds))
        keys = self.mixed_keys(rng, m, rounds)
        images = rng.integers(0, 256, (len(keys), m, m), dtype=np.uint8)
        encrypted = run_stack(images, keys, m, rounds, False)
        assert np.array_equal(encrypted, oracles.per_image(cipher.encrypt, images, keys))
        assert np.array_equal(oracles.per_image(cipher.decrypt, encrypted, keys), images)

    @pytest.mark.parametrize("one_key", [False, True])
    @pytest.mark.parametrize("rounds", [1, 2, 6])
    @pytest.mark.parametrize("m", [4, 12, 20, 64])
    def test_decrypt_stack_equals_separate_calls(self, m, rounds, one_key):
        rng = np.random.default_rng((m, rounds, one_key))
        keys = self.mixed_keys(rng, m, rounds)
        images = rng.integers(0, 256, (len(keys), m, m), dtype=np.uint8)
        if one_key:
            keys = keys[-1:]
        public_keys = keys[0] if one_key else keys
        decrypted = run_stack(images, keys, m, rounds, True)
        assert np.array_equal(decrypted, oracles.per_image(cipher.decrypt, images, public_keys))
        encrypted = run_stack(images, keys, m, rounds, False)
        assert np.array_equal(encrypted, oracles.per_image(cipher.encrypt, images, public_keys))
        assert np.array_equal(run_stack(encrypted, keys, m, rounds, True), images)

    def test_one_image_stack(self):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        key = random_key(rng, 12, 2)
        for invert, op in ((False, cipher.encrypt), (True, cipher.decrypt)):
            assert np.array_equal(run_stack(image[np.newaxis], [key], 12, 2, invert)[0], op(image, key))

    def test_stack_not_mutated_and_views(self):
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, (3, 8, 8), dtype=np.uint8)
        copy = images.copy()
        keys = [random_key(rng, 8, 2) for _ in range(3)]
        for invert in (False, True):
            run_stack(images, keys, 8, 2, invert)
        for view in (images[::-1], images.transpose(0, 2, 1)):
            for op in (cipher.encrypt, cipher.decrypt):
                assert np.array_equal(oracles.per_image(op, view, keys),
                                      oracles.per_image(op, np.ascontiguousarray(view), keys))
        assert np.array_equal(images, copy)

    @pytest.mark.parametrize("shape", [(0, 8, 8), (2, 8, 8), (2, 8, 12)])
    def test_bad_stack_shape_rejected(self, shape):
        # a stack goes through cipher._run, not the public calls
        key = cipher.CipherKey(1, 2, 3, 4, rounds=1)
        for op in (cipher.encrypt, cipher.decrypt):
            for keys in (key, [key] * shape[0]):
                with pytest.raises(cipher.DimensionError, match="2-D"):
                    op(np.zeros(shape, dtype=np.uint8), keys)

    KEY = cipher.CipherKey(1, 2, 3, 4, rounds=1)

    @pytest.mark.parametrize("op", [cipher.encrypt, cipher.decrypt])
    @pytest.mark.parametrize("keys", [[KEY], (KEY, KEY), (1, 2, 3, 4)], ids=["list", "tuple", "fields"])
    def test_key_sequence_rejected(self, keys, op):
        # a one-line TypeError, not an AttributeError from a missing .params()
        with pytest.raises(TypeError, match="CipherKey"):
            op(np.zeros((8, 8), dtype=np.uint8), keys)

    def test_decrypt_checks_stacks_as_encrypt_does(self):
        key = cipher.CipherKey(1, 2, 3, 4, rounds=1)
        image = np.zeros((8, 8), dtype=np.uint8)
        for data, keys, error in ((image[np.newaxis], key, cipher.DimensionError),
                                  (np.stack([image, image]), [key, key], cipher.DimensionError),
                                  (image, [key], TypeError)):
            messages = []
            for op in (cipher.encrypt, cipher.decrypt):
                with pytest.raises(error) as raised:
                    op(data, keys)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("op", [cipher.encrypt, cipher.decrypt])
    @pytest.mark.parametrize("shape", [(0, 8, 8), (2, 8, 12), (8,), (1, 2, 8, 8)])
    def test_bad_shape_under_one_key_rejected(self, shape, op):
        with pytest.raises(cipher.DimensionError):
            op(np.zeros(shape, dtype=np.uint8), cipher.CipherKey(1, 2, 3, 4, rounds=1))


class TestInvariants:
    """Properties the fast path relies on, at sizes where 16-byte blocks straddle rows."""

    @staticmethod
    def draw(seed, m, rounds, count):
        rng = np.random.default_rng(seed)
        key = random_key(rng, m, rounds)
        return key, [rng.integers(0, 256, (m, m), dtype=np.uint8) for _ in range(count)]

    @given(st.integers(0, 2**32 - 1), st.sampled_from(STRADDLING_SIZES), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_linear(self, seed, m, rounds):
        key, (x, y) = self.draw(seed, m, rounds, count=2)
        assert np.array_equal(
            cipher.encrypt(x ^ y, key), cipher.encrypt(x, key) ^ cipher.encrypt(y, key)
        )

    @given(st.integers(0, 2**32 - 1), st.sampled_from(STRADDLING_SIZES), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_zero_is_fixed(self, seed, m, rounds):
        key = random_key(np.random.default_rng(seed), m, rounds)
        zero = np.zeros((m, m), dtype=np.uint8)
        assert not cipher.encrypt(zero, key).any()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(STRADDLING_SIZES), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_decrypt_inverts_encrypt(self, seed, m, rounds):
        key, (x,) = self.draw(seed, m, rounds, count=1)
        assert np.array_equal(cipher.decrypt(cipher.encrypt(x, key), key), x)

    @pytest.mark.parametrize("rounds", [1, 2, 4, 7])
    def test_decryption_is_the_transpose_of_encryption(self, rounds):
        # E and D over GF(2) at M=8, column j the image of unit bit j (bit
        # j % 8 of byte j // 8): every layer is a permutation or A, whose
        # inverse is its transpose, so D = E^T.  One round spreads a bit over
        # the 15 bytes that A's column gives it, in one plane.
        m = 8
        n = 8 * m * m
        units = np.zeros((n, m * m), dtype=np.uint8)
        units[np.arange(n), np.arange(n) >> 3] = 1 << (np.arange(n) & 7)
        units = units.reshape(n, m, m)
        rng = np.random.default_rng(8)
        keys = [cipher.CipherKey(0, 0, 0, 0, rounds=rounds), cipher.CipherKey(7, 7, 7, 7, rounds=rounds),
                random_key(rng, m, rounds), random_key(rng, m, rounds)]
        for key in keys:
            e, d = (np.unpackbits(oracles.per_image(op, units, key).reshape(n, -1), axis=1, bitorder="little").T
                    for op in (cipher.encrypt, cipher.decrypt))
            assert np.array_equal(d, e.T), key
            if rounds == 1:
                assert e.sum(axis=0).tolist() == [15] * n, key

    def test_round_one_weighs_15_bits_for_every_key_and_unit_image(self):
        # all 4096 keys at M=8 on all 512 unit images (bit j % 8 of byte
        # j // 8), in encryption's frame, 256 keys per cipher._run call
        m = 8
        n = 8 * m * m
        units = np.zeros((n, m * m), dtype=np.uint8)
        units[np.arange(n), np.arange(n) >> 3] = 1 << (np.arange(n) & 7)
        stack = oracles.frame(units).reshape(-1)
        keys = np.array(list(itertools.product(range(m), repeat=4)), dtype=np.int32)
        assert len(keys) == 4096
        for chunk in np.split(keys, 16):
            out = cipher._run(np.tile(stack, len(chunk)), np.repeat(chunk, n, axis=0), m, 1, False)
            assert (oracles.row_bit_weights(out.reshape(-1, m * m)) == 15).all()

    @staticmethod
    def same_cell_pairs(m):
        """Every image of two bits in one 16-byte block and one bit-plane, one per row."""
        pairs = [(block, i, j, plane) for block in range(m * m // 16)
                 for i, j in itertools.combinations(range(16), 2) for plane in range(8)]
        images = np.zeros((len(pairs), m * m), dtype=np.uint8)
        for image, (block, i, j, plane) in zip(images, pairs):
            image[[16 * block + i, 16 * block + j]] = 1 << plane
        return images

    def test_block_xor_leaves_same_cell_pairs(self):
        # an even weight in every (block, plane) cell adds nothing to the block's XOR
        images = self.same_cell_pairs(8)
        assert len(images) == 4 * 120 * 8
        assert np.array_equal(cipher._block_xor(images.reshape(-1)).reshape(images.shape), images)

    def test_same_cell_pairs_stay_two_bits_after_round_one_for_every_key(self):
        # all 4096 keys at M=8 on 16 drawn same-cell pairs: the block XOR
        # leaves each pair, and the rest of the round only moves its two bits
        m = 8
        images = self.same_cell_pairs(m)
        pairs = images[np.random.default_rng(12).choice(len(images), 16, replace=False)]
        keys = np.array(list(itertools.product(range(m), repeat=4)), dtype=np.int32)
        out = cipher._run(np.tile(pairs.reshape(-1), len(keys)), np.repeat(keys, 16, axis=0), m, 1, False)
        assert (oracles.row_bit_weights(out.reshape(-1, m * m)) == 2).all()


class TestSameCellPairs:
    """A 2-bit difference inside one (block, plane) cell has even weight
    there, so it adds nothing to its block's XOR and leaves the block XOR
    as 2 bits.  Where the rest of the round moves both bits into one cell
    again, it stays at 2 bits for another round, and for some keys for
    every round."""

    def test_two_bits_of_one_block_and_plane_stay_two_bits(self):
        # the 120 byte pairs of one block in each of the 8 bit-planes
        pairs = [(i, j, plane) for i, j in itertools.combinations(range(16), 2) for plane in range(8)]
        assert len(pairs) == 120 * 8
        deltas = np.zeros((len(pairs), 16), dtype=np.uint8)
        for delta, (i, j, plane) in zip(deltas, pairs):
            delta[[i, j]] = 1 << plane
        x = np.random.default_rng(120).integers(0, 256, 16, dtype=np.uint8)
        moved = cipher._block_xor(np.tile(x, len(pairs)) ^ deltas.reshape(-1)).reshape(-1, 16) ^ cipher._block_xor(x)
        assert np.array_equal(moved, deltas)
        assert oracles.row_bit_weights(moved).tolist() == [2] * len(pairs)

    # keys under which the round's byte map keeps the two bytes in one
    # block with equal rotations, round after round
    @pytest.mark.parametrize("m, params, flipped", [
        (16, (0, 0, 0, 15), (23, 27)),
        (64, (35, 48, 26, 59), (2414, 2408)),
        (16, (0, 1, 11, 4), (149, 157)),
        (32, (4, 1, 27, 29), (128, 136)),
        (32, (27, 17, 1, 25), (295, 296)),
    ])
    def test_permanent_two_bit_pair(self, m, params, flipped):
        plain = np.random.default_rng(m).integers(0, 256, (m, m), dtype=np.uint8)
        changed = plain.copy()
        changed.reshape(-1)[list(flipped)] ^= 1
        for rounds in (1, 6, 7, 10, 30):
            key = cipher.CipherKey(*params, rounds=rounds)
            diff = cipher.encrypt(plain, key) ^ cipher.encrypt(changed, key)
            assert oracles.popcount_bytes(diff) == 2, rounds
