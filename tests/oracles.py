"""Independent reference implementations used to cross-check the package.

The package runs a cipher round as block XOR -> fused gather -> rotation
by shifts, over one image or a stack, and runs encryption in a frame where
every 16-byte block is permuted by the diffusion's in-block move
(:func:`frame`, :func:`unframe`).  Everything here follows the cipher's
definition instead: matrix products over GF(2), the cat map applied per
bit-plane, the static stages rebuilt from their seeds.  Most of it is
plain Python loops; the numpy helpers (GF(2) elimination, bit-planes)
share no code with the package.
The experiment trials here take the direct route that the package skips by
linearity: they encrypt every plaintext, decrypt every corrupted
ciphertext, and score SSIM from float64 integral images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cipher_audit import cipher, metrics
from cipher_audit.cipher import CipherKey


def gf2_matvec_bytes(matrix, block):
    """Straight-line GF(2) matrix-times-byte-vector: out[j] = XOR of selected bytes."""
    out = []
    for row in matrix:
        acc = 0
        for coeff, byte in zip(row, block):
            if coeff:
                acc ^= int(byte)
        out.append(acc)
    return bytes(out)


def gf2_matmul(a, b):
    """Binary matrix product mod 2, entry by entry."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc ^= int(a[i][k]) & int(b[k][j])
            out[i][j] = acc
    return out


def cat_map_table(a, b, rx, ry, m):
    """Image of every grid cell under the affine cat map, by direct evaluation."""
    table = {}
    for x in range(m):
        for y in range(m):
            table[(x, y)] = ((x + a * y + rx) % m, (b * x + (a * b + 1) * y + ry) % m)
    return table


def popcount_bytes(data):
    """Bit count via int.bit_count, one byte at a time."""
    return sum(int(byte).bit_count() for byte in bytes(data))


def row_bit_weights(rows):
    """Set bits of each row, along the first axis, of a uint8 array: one
    np.bitwise_count over single bytes, with no 8-byte lanes."""
    rows = np.asarray(rows, dtype=np.uint8)
    return np.bitwise_count(rows.reshape(len(rows), -1)).sum(axis=1, dtype=np.int64)


def encrypt_one_round_trace(image, key, matrix, scramble_pairs, rotation):
    """Hand-sequenced single round: diffusion, cat map, scramble, rotation.

    Executes the two cipher layers step by step with per-pixel loops.
    scramble_pairs maps destination (x, y) -> source (x, y); rotation is the
    per-position left-rotation amount.
    """
    m = len(image)
    flat = [int(v) for row in image for v in row]

    # byte diffusion over consecutive 16-byte blocks
    diffused = []
    for start in range(0, len(flat), 16):
        diffused.extend(gf2_matvec_bytes(matrix, flat[start : start + 16]))
    grid = [[diffused[x * m + y] for y in range(m)] for x in range(m)]

    # key-dependent cat map, same for every bit of a byte
    a, b, rx, ry = key.a, key.b, key.rx, key.ry
    mapped = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            xp = (x + a * y + rx) % m
            yp = (b * x + (a * b + 1) * y + ry) % m
            mapped[xp][yp] = grid[x][y]

    # static position scramble (gather form)
    scrambled = [[mapped[sx][sy] for (sx, sy) in row] for row in scramble_pairs]

    # static per-position bit rotation
    out = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            s = int(rotation[x][y]) % 8
            v = scrambled[x][y]
            out[x][y] = ((v << s) | (v >> (8 - s))) & 0xFF
    return np.array(out, dtype=np.uint8)


def ssim_windows(a, b, window=8):
    """Window-by-window SSIM with explicit loops and biased moments."""
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    m = len(a)
    scores = []
    n = window * window
    for x0 in range(m - window + 1):
        for y0 in range(m - window + 1):
            wa = [float(a[x][y]) for x in range(x0, x0 + window) for y in range(y0, y0 + window)]
            wb = [float(b[x][y]) for x in range(x0, x0 + window) for y in range(y0, y0 + window)]
            mu_a = sum(wa) / n
            mu_b = sum(wb) / n
            var_a = sum((v - mu_a) ** 2 for v in wa) / n
            var_b = sum((v - mu_b) ** 2 for v in wb) / n
            cov = sum((u - mu_a) * (v - mu_b) for u, v in zip(wa, wb)) / n
            scores.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
            )
    return sum(scores) / len(scores)


def ssim_float_integral(a, b, window=8):
    """SSIM from float64 integral images, every statistic recomputed per call."""
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2

    def window_sums(x):
        c = np.cumsum(np.cumsum(x, axis=0, dtype=np.float64), axis=1)
        c = np.pad(c, ((1, 0), (1, 0)))
        return c[window:, window:] - c[:-window, window:] - c[window:, :-window] + c[:-window, :-window]

    n = window * window
    af = np.asarray(a).astype(np.float64)
    bf = np.asarray(b).astype(np.float64)
    mu_a = window_sums(af) / n
    mu_b = window_sums(bf) / n
    var_a = window_sums(af * af) / n - mu_a * mu_a
    var_b = window_sums(bf * bf) / n - mu_b * mu_b
    cov = window_sums(af * bf) / n - mu_a * mu_b
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


def psnr_float(a, b):
    """PSNR from the mean of float64 squared differences."""
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def chi_square_direct(data):
    """Chi-square of byte data against the uniform 256-bin histogram."""
    counts = [0] * 256
    for byte in bytes(data):
        counts[byte] += 1
    expected = len(bytes(data)) / 256
    return sum((c - expected) ** 2 / expected for c in counts)


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------

def gf2_rank(matrix) -> int:
    """Rank of a 0/1 matrix over GF(2) by Gaussian elimination."""
    work = (np.asarray(matrix, dtype=np.uint8) & 1).copy()
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        pivots = np.nonzero(work[rank:, col])[0]
        if pivots.size == 0:
            continue
        pivot = rank + int(pivots[0])
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        hits = np.nonzero(work[:, col])[0]
        hits = hits[hits != rank]
        work[hits] ^= work[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def gf2_inverse(matrix) -> np.ndarray:
    """Inverse of a square 0/1 matrix over GF(2); ValueError if it is singular."""
    a = (np.asarray(matrix, dtype=np.uint8) & 1).copy()
    n, m = a.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    aug = np.hstack([a, np.eye(n, dtype=np.uint8)])
    for col in range(n):
        pivots = np.nonzero(aug[col:, col])[0]
        if pivots.size == 0:
            raise ValueError("matrix is singular over GF(2)")
        pivot = col + int(pivots[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        hits = np.nonzero(aug[:, col])[0]
        hits = hits[hits != col]
        aug[hits] ^= aug[col]
    return aug[:, n:].copy()


def diffuse(block, matrix) -> np.ndarray:
    """Multiply one 16-byte block by a binary matrix over GF(2)."""
    if isinstance(block, (bytes, bytearray)):
        block = np.frombuffer(bytes(block), dtype=np.uint8)
    data = np.asarray(block, dtype=np.uint8)
    if data.shape != (16,):
        raise ValueError(f"block must be exactly 16 bytes, got {data.size}")
    return np.frombuffer(gf2_matvec_bytes(matrix, data), dtype=np.uint8)


def diffuse_image(image, matrix) -> np.ndarray:
    """Diffuse an image's bytes row-major in consecutive 16-byte blocks."""
    blocks = np.asarray(image, dtype=np.uint8).reshape(-1, 16)
    return np.concatenate([diffuse(block, matrix) for block in blocks]).reshape(np.shape(image))


# ---------------------------------------------------------------------------
# bit-plane route of the permutation layer
# ---------------------------------------------------------------------------

def cat_map_grids(key, m):
    """Destination coordinates of every grid cell under the cat map."""
    x, y = np.indices((m, m), dtype=np.int64)
    xp = (x + key.a * y + key.rx) % m
    yp = (key.b * x + (key.a * key.b + 1) * y + key.ry) % m
    return xp, yp


def to_bitplanes(image) -> np.ndarray:
    """Split an image into 8 bit-planes; plane k holds bit k (k=0 is LSB)."""
    shifts = np.arange(8, dtype=np.uint8)[:, np.newaxis, np.newaxis]
    return (np.asarray(image)[np.newaxis, :, :] >> shifts) & 1


def from_bitplanes(planes) -> np.ndarray:
    """Reassemble bit-planes into an image (inverse of :func:`to_bitplanes`)."""
    shifts = np.arange(8, dtype=np.uint8)[:, np.newaxis, np.newaxis]
    return np.bitwise_or.reduce(planes << shifts, axis=0).astype(np.uint8)


def permute_bits(planes, key) -> np.ndarray:
    """Move the bit at (x, y) of every plane to the cat map's image of (x, y)."""
    xp, yp = cat_map_grids(key, planes.shape[1])
    out = np.empty_like(planes)
    out[:, xp, yp] = planes
    return out


def inverse_permute_bits(planes, key) -> np.ndarray:
    """Undo :func:`permute_bits`."""
    xp, yp = cat_map_grids(key, planes.shape[1])
    return planes[:, xp, yp]


# ---------------------------------------------------------------------------
# static stages, rebuilt from their seeds
# ---------------------------------------------------------------------------

def scramble_pairs(seed, m):
    """Source cell (x, y) that the static scramble brings to each (row, column)."""
    flat = np.random.default_rng((seed, m)).permutation(m * m)
    return [[divmod(int(flat[x * m + y]), m) for y in range(m)] for x in range(m)]


def byte_sources():
    """pinv: output byte j of a block is the block XOR xor input byte pinv[j],
    read off the matrix (the one 0 in row j of A = J xor P)."""
    return [row.index(0) for row in cipher.build_diffusion_matrix().tolist()]


def frame(data):
    """data moved into encryption's frame: in every 16 consecutive bytes
    (row-major), position k holds the byte at pinv[k] of the block.  In this
    frame one round's diffusion is the block XOR alone: the diffusion
    layer's in-block move by pinv is what moving the data in does."""
    data = np.asarray(data)
    return data.reshape(-1, 16)[:, byte_sources()].reshape(data.shape)


def unframe(data):
    """Undo :func:`frame`: position pinv[k] of every block gets the byte at k."""
    data = np.asarray(data)
    out = np.empty_like(data).reshape(-1, 16)
    out[:, byte_sources()] = data.reshape(-1, 16)
    return out.reshape(data.shape)


def one_hot(framed, m):
    """The (W, M, M) plaintext stack of one round count's drawn trials, as
    _draw_trials' framed positions give it: image w all zero but for the
    LSB of flat byte framed[w], in encryption's frame."""
    plains = np.zeros((len(framed), m * m), dtype=np.uint8)
    plains[np.arange(len(framed)), framed] = 1
    return plains.reshape(-1, m, m)


def inverse_index_by_scatter(index):
    """Inverse of a flat gather index (a permutation), by one scatter:
    inverse[index[k]] = k."""
    inverse = np.empty_like(index)
    inverse[index] = np.arange(index.size)
    return inverse


def gather_rows(params, m, invert):
    """Gather index of one round under each key row of params, int32, one
    (M*M,) row per key, in one whole-row pass of the cipher's closed forms:
    encryption's, in its frame, is cipher._source at every position's framed
    scramble cell (u, v); decryption's, natural, is cipher._destination at
    every position's cell after the in-block move, its block's start plus
    p0."""
    a, b, rx, ry = np.asarray(params).T[:, :, np.newaxis]
    if invert:
        p0 = np.array([byte_sources().index(i) for i in range(16)], dtype=np.int32)
        cells = np.arange(0, m * m, 16, dtype=np.int32)[:, np.newaxis] + p0
        return cipher._destination(cells.reshape(-1), a, b, rx, ry, m)
    u, v = cipher.static_tables(m)[:2]
    return cipher._source(u, v, a, b, rx, ry, m)


def stack_index_whole(params, m, invert):
    """Flat gather index of one round under reduced key parameters, in one
    whole-array pass: every position of every key's row at once
    (:func:`gather_rows`), then the row offsets w*M*M, which widen it to
    intp.  cipher._stack_index builds the same index in blocks."""
    index = gather_rows(params, m, invert)
    offsets = np.arange(0, index.size, m * m, dtype=np.intp)
    return (index + offsets[:, np.newaxis]).reshape(-1)


def block_xor_broadcast(data):
    """XOR every byte of a flat buffer with the XOR of its 16-byte block: the
    block XOR folded on a block's two uint64 lanes and broadcast back over
    them as one (n, 1) operand."""
    lanes = data.view(np.uint64).reshape(-1, 2)
    fold = lanes[:, 0] ^ lanes[:, 1]
    fold ^= fold >> 32
    fold ^= fold >> 16
    fold ^= fold >> 8
    fold = (fold & 0xFF) * 0x0101010101010101
    return (lanes ^ fold[:, np.newaxis]).reshape(-1).view(np.uint8)


def gather_index_closed_form(params, m, invert):
    """Gather index of one round's byte permutations, one list per key row
    of params, evaluated position by position with Python's % on Python
    integers.

    Encryption, in its frame (see :func:`frame`): output position k reads
    the cell whose cat-map image is the scramble's source cell (u, v) of
    position k - k % 16 + pinv[k % 16]; no in-block move enters the index.
    Decryption, natural: output position j reads the position that the
    in-block move, the cat map and the scramble carry j to.  pinv is read
    off the matrix.
    """
    pinv = byte_sources()
    sources = [cell for row in scramble_pairs(cipher.SCRAMBLE_SEED, m) for cell in row]
    if invert:
        lands = {cell: k for k, cell in enumerate(sources)}
        p0 = [pinv.index(i) for i in range(16)]
        cells = [divmod(j - j % 16 + p0[j % 16], m) for j in range(m * m)]
    else:
        framed = [sources[k - k % 16 + pinv[k % 16]] for k in range(m * m)]
    rows = []
    for a, b, rx, ry in (tuple(int(p) for p in row) for row in params):
        if invert:
            rows.append([lands[(x0 + a * y0 + rx) % m, (b * x0 + (a * b + 1) * y0 + ry) % m]
                         for x0, y0 in cells])
            continue
        index = []
        for u, v in framed:
            y = (v - ry - b * (u - rx)) % m
            index.append(((u - rx - a * y) % m) * m + y)
        rows.append(index)
    return rows


def rotation_shifts(seed, m):
    """Static left-rotation amount of each grid position."""
    return np.random.default_rng((seed, m)).integers(0, 8, size=(m, m)).tolist()


def rotate_left(byte, shift):
    """8-bit left rotation of one byte."""
    shift %= 8
    return ((byte << shift) | (byte >> (8 - shift))) & 0xFF


def encrypt_one_round_planes(image, key, matrix, scramble, rotation):
    """One round through bit-planes: block diffusion, per-plane cat map,
    scramble gather, per-position rotation."""
    planes = permute_bits(to_bitplanes(diffuse_image(image, matrix)), key)
    mapped = from_bitplanes(planes)
    return np.array(
        [[rotate_left(int(mapped[sx, sy]), rotation[x][y]) for y, (sx, sy) in enumerate(row)]
         for x, row in enumerate(scramble)],
        dtype=np.uint8,
    )


# ---------------------------------------------------------------------------
# experiment trials by the direct route
# ---------------------------------------------------------------------------

def avalanche_trial(task):
    """PS and Diff of one avalanche trial: encrypt both plaintexts and compare."""
    master_seed, m, rounds, index = task
    rng = np.random.default_rng((master_seed, index, m, rounds))
    key = cipher.key_from_stream(rng, m, rounds)
    plain = np.zeros((m, m), dtype=np.uint8)
    x, y = (int(v) for v in rng.integers(0, m, size=2))
    plain_flipped = plain.copy()
    plain_flipped[x, y] = 1
    c0 = cipher.encrypt(plain, key)
    c1 = cipher.encrypt(plain_flipped, key)
    return metrics.hamming_percent(c0, c1), metrics.hamming_percent(plain_flipped, c1)


def flip_bits(data, positions):
    """Flip bit p % 8 of byte p // 8 (row-major) for every position p."""
    flat = np.asarray(data, dtype=np.uint8).reshape(-1).copy()
    for p in positions:
        flat[int(p) // 8] ^= 1 << (int(p) % 8)
    return flat.reshape(np.shape(data))


def flip_bits_packed(data, positions):
    """data with bit p % 8 of byte p // 8 (row-major) flipped for every position p.

    The positions must be distinct (the trials draw them without
    replacement): they are scattered into a bit array, which would set a
    repeated position once instead of flipping it back.
    """
    bits = np.zeros(8 * data.size, dtype=np.uint8)
    bits[positions] = 1
    return data ^ np.packbits(bits, bitorder="little").reshape(data.shape)


def errprop_trial(task, image):
    """One error-propagation trial: encrypt, flip ciphertext bits, decrypt,
    and compare with the clean decryption."""
    master_seed, m, rounds, index, percents = task
    rng = np.random.default_rng((master_seed, index, m, rounds))
    key = cipher.key_from_stream(rng, m, rounds)
    total_bits = 8 * m * m
    encrypted = cipher.encrypt(image, key)
    clean = cipher.decrypt(encrypted, key)
    out = []
    for flips in [1] + [math.ceil(p * total_bits / 100.0) for p in percents]:
        if flips == 0:
            damaged = clean
        else:
            positions = rng.choice(total_bits, size=flips, replace=False)
            damaged = cipher.decrypt(flip_bits(encrypted, positions), key)
        out.append(
            (
                metrics.hamming_percent(clean, damaged),
                metrics.psnr(clean, damaged),
                ssim_float_integral(clean, damaged),
            )
        )
    return out


# ---------------------------------------------------------------------------
# keys and records
# ---------------------------------------------------------------------------

def key_to_hex(key, m):
    """Serialize a || b || rx || ry big-endian, each padded to q bits, as the
    q hex digits that cipher.key_from_hex parses."""
    q = cipher.param_bits(m)
    packed = 0
    for value in key.params():
        if value >> q:
            raise ValueError(f"key parameter {value} does not fit in {q} bits (M={m})")
        packed = (packed << q) | value
    return format(packed, f"0{q}x")


def reduced_params(keys, m):
    """Key parameters (a, b, rx, ry) mod M, int32, one row per key: the form
    the cipher's private route takes.  keys are CipherKeys or 4-tuples of
    Python integers, reduced one by one."""
    rows = [key.params() if isinstance(key, CipherKey) else key for key in keys]
    return np.array([[int(p) % m for p in row] for row in rows], dtype=np.int32)


def per_image(op, stack, keys):
    """op (cipher.encrypt or cipher.decrypt) on each image of a (W, M, M)
    stack, one public call per image, stacked: image w under keys[w], or
    every image under keys if it is one CipherKey."""
    if isinstance(keys, CipherKey):
        keys = [keys] * len(stack)
    return np.stack([op(image, key) for image, key in zip(stack, keys, strict=True)])


def count_index_builds(monkeypatch):
    """The gather indices cipher._stack_index builds from now on, as (count, M*M) shapes."""
    built = []
    stack_index = cipher._stack_index

    def spy(params, m, invert):
        built.append((len(params), m * m))
        return stack_index(params, m, invert)

    monkeypatch.setattr(cipher, "_stack_index", spy)
    return built


def derive_trial_key(master_seed, trial_index, m, rounds):
    """Trial key from the documented stream contract: the first four q-bit draws
    of default_rng((master_seed, trial_index, M, rounds))."""
    q = (m - 1).bit_length()
    rng = np.random.default_rng((master_seed, trial_index, m, rounds))
    a, b, rx, ry = (int(v) for v in rng.integers(0, 1 << q, size=4))
    return CipherKey(a=a, b=b, rx=rx, ry=ry, rounds=rounds)


def trial_draws(master_seed, index, m, rounds):
    """One trial's draws through its own Generator: the key, then the pixel
    (row, column) of the single-LSB plaintext.  The Generator is returned
    after them."""
    rng = np.random.default_rng((master_seed, index, m, rounds))
    key = cipher.key_from_stream(rng, m, rounds)
    pixel = tuple(int(v) for v in rng.integers(0, m, size=2))
    return rng, key, pixel


@dataclass(frozen=True)
class TrialRecord:
    """One trial's measurements; fields are filled per experiment type."""

    ps_percent: float | None = None
    diff_percent: float | None = None
    chi2: float | None = None
    psnr_db: float | None = None
    ssim: float | None = None

    def __post_init__(self) -> None:
        for name in ("ps_percent", "diff_percent"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 100.0:
                raise ValueError(f"{name} must be within [0, 100], got {value}")
        if self.chi2 is not None and self.chi2 < 0.0:
            raise ValueError(f"chi2 must be non-negative, got {self.chi2}")
        if self.ssim is not None and not -1.0 <= self.ssim <= 1.0:
            raise ValueError(f"ssim must be within [-1, 1], got {self.ssim}")
