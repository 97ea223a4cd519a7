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
    return cipher.key_from_stream(cipher.trial_stream(master_seed, trial_index, m, rounds), m, rounds)


def byte_sources() -> list[int]:
    """pinv: output byte j of a block is the block XOR xor input byte pinv[j],
    read off the matrix (the one 0 in row j of A = J xor P)."""
    return [row.index(0) for row in cipher.build_diffusion_matrix().tolist()]


def package_diffusion(image: np.ndarray) -> np.ndarray:
    """The package's diffusion layer: block XOR, then the in-block move by pinv."""
    flat = cipher._block_xor(np.ascontiguousarray(image).reshape(-1))
    return flat.reshape(-1, 16)[:, byte_sources()].reshape(image.shape)


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
        first = cipher.build_diffusion_matrix()
        again = cipher.generate_diffusion_matrix(cipher.DIFFUSION_SEED)
        assert np.array_equal(first, again)

    def test_static_binary_entries(self):
        matrix = cipher.build_diffusion_matrix()
        assert matrix.shape == (16, 16)
        assert set(np.unique(matrix)) <= {0, 1}

    def test_matrix_lines_format(self):
        lines = cipher.matrix_lines()
        assert len(lines) == 16
        assert all(len(line) == 16 and set(line) <= {"0", "1"} for line in lines)

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
    """Grid cell (x, y) of the diffused image that each output position reads,
    undoing the in-block move folded into the fused index."""
    sources = byte_sources()
    moved = {src: j for j, src in enumerate(sources)}
    cells = []
    for f in index.tolist():
        cell = f - f % 16 + moved[f % 16]
        cells.append(divmod(cell, m))
    return cells


class TestCatMap:
    def test_identity_parameters(self):
        key = cipher.CipherKey(0, 0, 0, 0, rounds=1)
        for x, y in ((0, 0), (1, 2), (3, 3)):
            assert cipher.cat_map_point(x, y, key, 4) == (x, y)

    def test_direct_evaluation_example(self):
        key = cipher.CipherKey(1, 1, 0, 0, rounds=1)
        assert cipher.cat_map_point(1, 0, key, 4) == (1, 1)

    def test_out_of_range_rejected(self):
        key = cipher.CipherKey(1, 1, 0, 0, rounds=1)
        with pytest.raises(ValueError):
            cipher.cat_map_point(4, 0, key, 4)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=30)
    def test_bijective_on_8x8(self, a, b, rx, ry):
        key = cipher.CipherKey(a, b, rx, ry, rounds=1)
        table = oracles.cat_map_table(a, b, rx, ry, 8)
        assert set(table.values()) == {(x, y) for x in range(8) for y in range(8)}
        for (x, y), target in table.items():
            assert cipher.cat_map_point(x, y, key, 8) == target

    def test_grids_match_pointwise(self):
        # the closed-form inverse in the fused index, cell by cell: output
        # position k reads the cell that the cat map sends to the scramble's
        # source of k
        for key, m in ((cipher.CipherKey(5, 9, 2, 7, rounds=1), 16),
                       (cipher.CipherKey(13, 6, 11, 3, rounds=1), 12)):
            scramble = oracles.scramble_pairs(cipher.SCRAMBLE_SEED, m)
            cells = decode_index(cipher._stack_index([key], m, False), m)
            for k, (x, y) in enumerate(cells):
                assert cipher.cat_map_point(x, y, key, m) == scramble[k // m][k % m]


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
            index = cipher._stack_index([key], m, False)
            inverse = cipher._stack_index([key], m, True)
            identity = np.arange(m * m)
            assert np.array_equal(np.sort(index), identity)
            assert np.array_equal(index[inverse], identity)
            assert np.array_equal(inverse[index], identity)
            u, v = cipher._scramble_coords(m)
            pairs = oracles.scramble_pairs(cipher.SCRAMBLE_SEED, m)
            assert list(zip(u.tolist(), v.tolist())) == [p for row in pairs for p in row]

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
        left, right = cipher._rotation_shifts(m)
        shifts = oracles.rotation_shifts(cipher.ROTATION_SEED, m)
        assert left.tolist() == [s for row in shifts for s in row]
        assert right.tolist() == [8 - s for row in shifts for s in row]
        assert not left.flags.writeable and not right.flags.writeable


class TestStaticTables:
    """The tables are built without int64 temporaries; they must equal the
    seeded int64 draws that define them."""

    @pytest.mark.parametrize("m", [4, 12, 196, 300, 512])
    def test_scramble_coords_equal_int64_permutation(self, m):
        flat = np.random.default_rng((cipher.SCRAMBLE_SEED, m)).permutation(m * m)
        want_u, want_v = np.divmod(flat, m)
        u, v = cipher._scramble_coords(m)
        assert u.dtype == v.dtype == np.int16
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
        assert not u.flags.writeable and not v.flags.writeable

    @pytest.mark.parametrize("m", [4, 12, 196, 300, 512])
    def test_rotation_shifts_equal_int64_draw(self, m):
        want = np.random.default_rng((cipher.ROTATION_SEED, m)).integers(0, 8, size=m * m)
        shift, complement = cipher._rotation_shifts(m)
        assert shift.dtype == complement.dtype == np.uint8
        assert np.array_equal(shift, want) and np.array_equal(complement, 8 - want)
        assert not shift.flags.writeable and not complement.flags.writeable


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
        text = cipher.key_to_hex(key, 256)
        assert len(text) == 8  # 32 bits
        assert cipher.key_from_hex(text, 256, 6) == key
        assert cipher.key_from_hex(text.upper(), 256, 6) == key

    def test_serialized_length_is_4q_bits(self):
        for m in (4, 16, 64, 256, 512):
            key = oracles.derive_trial_key(2, 1, m, 1)
            assert len(cipher.key_to_hex(key, m)) * 4 == cipher.key_bits(m)

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
            cipher.key_to_hex(key, 256)

    def test_invalid_rounds_rejected(self):
        with pytest.raises(ValueError):
            cipher.CipherKey(1, 1, 1, 1, rounds=0)

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
        rng = cipher.trial_stream(9, 4, 64, 2)
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
    """A (W, M, M) stack under W keys, or under one key for every image, is
    W single-image calls in one, in both directions."""

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
        encrypted = cipher.encrypt(images, keys)
        assert encrypted.shape == images.shape
        for image, key, row in zip(images, keys, encrypted):
            assert np.array_equal(row, cipher.encrypt(image, key))
            assert np.array_equal(cipher.decrypt(row, key), image)

    @pytest.mark.parametrize("one_key", [False, True])
    @pytest.mark.parametrize("rounds", [1, 2, 6])
    @pytest.mark.parametrize("m", [4, 12, 20, 64])
    def test_decrypt_stack_equals_separate_calls(self, m, rounds, one_key):
        rng = np.random.default_rng((m, rounds, one_key))
        keys = self.mixed_keys(rng, m, rounds)
        images = rng.integers(0, 256, (len(keys), m, m), dtype=np.uint8)
        if one_key:
            keys = [keys[-1]] * len(keys)
        stack_keys = keys[0] if one_key else keys
        decrypted = cipher.decrypt(images, stack_keys)
        assert decrypted.shape == images.shape
        for image, key, row in zip(images, keys, decrypted):
            assert np.array_equal(row, cipher.decrypt(image, key))
        encrypted = cipher.encrypt(images, stack_keys)
        for image, key, row in zip(images, keys, encrypted):
            assert np.array_equal(row, cipher.encrypt(image, key))
        assert np.array_equal(cipher.decrypt(encrypted, stack_keys), images)

    def test_one_image_stack(self):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        key = random_key(rng, 12, 2)
        assert np.array_equal(cipher.encrypt(image[np.newaxis], [key])[0], cipher.encrypt(image, key))
        assert np.array_equal(cipher.decrypt(image[np.newaxis], [key])[0], cipher.decrypt(image, key))
        assert np.array_equal(cipher.decrypt(image[np.newaxis], key)[0], cipher.decrypt(image, key))

    def test_stack_not_mutated_and_views(self):
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, (3, 8, 8), dtype=np.uint8)
        copy = images.copy()
        keys = [random_key(rng, 8, 2) for _ in range(3)]
        for view in (images, images[::-1], images.transpose(0, 2, 1)):
            assert np.array_equal(cipher.encrypt(view, keys),
                                  cipher.encrypt(np.ascontiguousarray(view), keys))
        assert np.array_equal(images, copy)

    def test_mismatched_rounds_rejected(self):
        keys = [cipher.CipherKey(1, 2, 3, 4, rounds=2), cipher.CipherKey(1, 2, 3, 4, rounds=3)]
        with pytest.raises(ValueError, match="round count"):
            cipher.encrypt(np.zeros((2, 8, 8), dtype=np.uint8), keys)

    @pytest.mark.parametrize("count", [1, 3])
    def test_key_count_must_match(self, count):
        keys = [cipher.CipherKey(1, 2, 3, 4, rounds=1)] * count
        with pytest.raises(ValueError, match="needs 2 keys"):
            cipher.encrypt(np.zeros((2, 8, 8), dtype=np.uint8), keys)

    @pytest.mark.parametrize("shape", [(0, 8, 8), (8, 8), (2, 8, 12)])
    def test_bad_stack_shape_rejected(self, shape):
        keys = [cipher.CipherKey(1, 2, 3, 4, rounds=1)] * 2
        with pytest.raises(cipher.DimensionError):
            cipher.encrypt(np.zeros(shape, dtype=np.uint8), keys)

    def test_decrypt_checks_stacks_as_encrypt_does(self):
        key = cipher.CipherKey(1, 2, 3, 4, rounds=1)
        stack = np.zeros((2, 8, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="round count"):
            cipher.decrypt(stack, [key, cipher.CipherKey(1, 2, 3, 4, rounds=2)])
        for count in (1, 3):
            with pytest.raises(ValueError, match="needs 2 keys"):
                cipher.decrypt(stack, [key] * count)
        for shape in ((0, 8, 8), (8, 8), (2, 8, 12)):
            with pytest.raises(cipher.DimensionError):
                cipher.decrypt(np.zeros(shape, dtype=np.uint8), [key] * 2)

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
