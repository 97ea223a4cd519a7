"""Round cipher under audit: static binary diffusion + key-dependent bit permutation.

One round encrypts an M x M grayscale image (M a multiple of 4) in two layers:

1. Diffusion: the flattened bytes are cut into consecutive 16-byte blocks and
   each block is multiplied by a fixed invertible binary matrix over GF(2)
   (output byte j = XOR of the input bytes selected by matrix row j).

2. Bit permutation: every bit moves to a new position, in three stages that
   are each bijections of the 8*M*M bit positions:
     a. the key-dependent affine cat map relocates every grid cell (x, y); it
        acts identically on all 8 bit-planes, i.e. it permutes whole bytes;
     b. a static seeded position scramble relocates bytes again, breaking the
        algebraic structure of the affine map (without it, keys with even
        parameters confine differences to row/column cosets and the avalanche
        effect is never reached);
     c. a static seeded bit rotation inside each byte moves bits between
        planes (the per-plane cat map alone never moves a bit out of its
        plane, capping a one-bit avalanche at 12.5% of the image).

Only stage (a) is keyed; the cipher is a key-selected linear map over GF(2),
so the all-zero image is a fixed point for every key.  The experiments module
quantifies the consequences.

The code runs a round as block XOR -> one fused gather -> bit rotation by
shifts, which the construction allows:

- The matrix is A = J xor P (all-ones xor a permutation), so output byte j of
  a block is the XOR of the whole block xor input byte pinv[j].  The block
  XOR is folded on two uint64 lanes per block and broadcast back; the
  in-block move by pinv is a byte permutation like stages (a) and (b).  The
  stored form of the diffusion layer is that permutation, _PINV; the matrix
  is derived from it.
- The in-block move, the cat map and the scramble compose into one flat
  gather index per (key, M).  The cat-map part is evaluated in closed form
  from its inverse [[ab+1, -a], [-b, 1]] mod M at the scramble's coordinates.
  The widths are fixed: the scramble's coordinates are int16 and the index
  is built in int32, which check_side's bound M <= MAX_SIDE guarantees.
- The rotation is two uint8 shifts, (z << s) | (z >> (8 - s)), over cached
  grids of s and 8 - s.

encrypt and decrypt take an M x M image under one key, or a (W, M, M) stack
under one key for every image or under W keys that share the round count.
Only the gather index depends on the key.  Each call builds it for all its
keys in one vectorized pass, with row w offset by w*M*M into the flat stack;
one key's index is one image long and is applied to each image in turn.  A
round is one block XOR, one gather and one rotation over the whole stack.

Decryption rotates right, gathers with the inverse index (all rows inverted
by one scatter) and applies the same block XOR: x -> x xor (block XOR of x)
is an involution on 16-byte blocks, which is why A^-1 = J xor P^T = A^T.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

BLOCK_BYTES = 16

# Seeds of the built-in static components (key-independent, fixed for life).
DIFFUSION_SEED = 0xD1FF5EED
SCRAMBLE_SEED = 0x5C2A3B1E
ROTATION_SEED = 0xB17F1E1D

# Largest side length: the largest multiple of 4 with 2*M*M <= 2**31 - 1, so
# that the gather index and its intermediates fit in int32.
MAX_SIDE = 32764


class DimensionError(ValueError):
    """Image dimensions that the cipher does not support."""


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------

def check_side(m: int) -> int:
    """Check a side length M and return it.

    M must be a multiple of 4 and >= 4, so that M*M is divisible by the
    16-byte diffusion block, and at most MAX_SIDE.
    """
    if m < 4 or m % 4 != 0:
        raise DimensionError(f"side lengths must be multiples of 4 and >= 4, got {m}")
    if m > MAX_SIDE:
        raise DimensionError(f"side lengths must be at most {MAX_SIDE}, got {m}")
    return m


def validate_image(image: np.ndarray) -> int:
    """Check an image array and return its side length M.

    Valid images are square 2-D uint8 arrays whose side passes check_side.
    """
    if not isinstance(image, np.ndarray) or image.ndim != 2:
        raise DimensionError("image must be a 2-D array of bytes")
    m, n = image.shape
    if m != n:
        raise DimensionError(f"image must be square, got {m}x{n}")
    check_side(m)
    if image.dtype != np.uint8:
        raise DimensionError(f"image dtype must be uint8, got {image.dtype}")
    return m


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def param_bits(m: int) -> int:
    """Bit width q = ceil(log2(M)) of one cat-map parameter."""
    return (check_side(m) - 1).bit_length()


def key_bits(m: int) -> int:
    """Total permutation-key length in bits: 4*q."""
    return 4 * param_bits(m)


@dataclass(frozen=True)
class CipherKey:
    """Cat-map parameters (a, b, rx, ry) plus the round count.

    Each parameter is a q-bit unsigned integer, q = ceil(log2(M)); the cat
    map reduces it modulo M when applied.
    """

    a: int
    b: int
    rx: int
    ry: int
    rounds: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "rx", "ry"):
            if getattr(self, name) < 0:
                raise ValueError(f"key parameter {name} must be non-negative")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")

    def params(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.rx, self.ry)


def key_from_hex(text: str, m: int, rounds: int) -> CipherKey:
    """Parse a key serialized as a || b || rx || ry, big-endian, each q bits.

    4*q bits is exactly q hex digits.  Exactly q characters from [0-9a-fA-F]
    are accepted; a prefix, sign, separator or whitespace is an error rather
    than a different key.
    """
    q = param_bits(m)
    if len(text) != q:
        raise ValueError(
            f"key must be exactly {q} hex digits ({4 * q} bits) for M={m}, "
            f"got {len(text)} digits"
        )
    if not re.fullmatch(r"[0-9a-fA-F]+", text):
        raise ValueError(f"key must contain only the hex digits 0-9, a-f, A-F, got {text!r}")
    packed = int(text, 16)
    mask = (1 << q) - 1
    ry = packed & mask
    rx = (packed >> q) & mask
    b = (packed >> (2 * q)) & mask
    a = (packed >> (3 * q)) & mask
    return CipherKey(a=a, b=b, rx=rx, ry=ry, rounds=rounds)


def key_from_stream(rng: np.random.Generator, m: int, rounds: int) -> CipherKey:
    """Draw the four q-bit parameters from an already-seeded stream."""
    q = param_bits(m)
    a, b, rx, ry = (int(v) for v in rng.integers(0, 1 << q, size=4))
    return CipherKey(a=a, b=b, rx=rx, ry=ry, rounds=rounds)


# ---------------------------------------------------------------------------
# static diffusion matrix
# ---------------------------------------------------------------------------

# Input byte pinv[j] is the one that output byte j of a block does not XOR in:
# the argsort of the permutation drawn from DIFFUSION_SEED.
_PINV = np.argsort(np.random.default_rng(DIFFUSION_SEED).permutation(BLOCK_BYTES)).astype(np.int32)
_PINV.flags.writeable = False


def build_diffusion_matrix() -> np.ndarray:
    """The single static diffusion matrix (identical for every key and round).

    The matrix is A = J xor P, where J is all-ones and P is the 16x16
    permutation matrix drawn from DIFFUSION_SEED: output byte j is the XOR of
    every input byte except pinv[j].  A is invertible by construction (A^-1 =
    J xor P^T), and every column of A and of A^-1 has weight 15 -- the
    densest a 16x16 binary matrix can be in both directions at once.
    Maximal two-way density is what lets a single flipped bit reach half the
    image within six rounds even at 512x512, in the decryption direction as
    well.
    """
    matrix = np.ones((BLOCK_BYTES, BLOCK_BYTES), dtype=np.uint8)
    matrix[np.arange(BLOCK_BYTES), _PINV] = 0
    return matrix


# ---------------------------------------------------------------------------
# one round: block XOR -> fused gather -> rotation by shifts
# ---------------------------------------------------------------------------

def _block_xor(data: np.ndarray) -> np.ndarray:
    """XOR every byte of a flat C-contiguous buffer with the XOR of its 16-byte block.

    This is A = J xor P without the in-block move by P, which the gather
    index carries.  It is its own inverse: the 16 copies of the block XOR
    cancel in pairs, so the block XOR of the output is that of the input.
    """
    lanes = data.view(np.uint64).reshape(-1, 2)
    fold = lanes[:, 0] ^ lanes[:, 1]
    fold ^= fold >> 32
    fold ^= fold >> 16
    fold ^= fold >> 8
    fold = (fold & 0xFF) * 0x0101010101010101
    return (lanes ^ fold[:, np.newaxis]).reshape(-1).view(np.uint8)


@functools.lru_cache(maxsize=8)
def static_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The key-independent tables of side length M, read-only: (u, v, shift, complement).

    (u, v) is the int16 grid cell that the static scramble brings to each
    flat position; :func:`_gather_index` widens it.  shift is the uint8
    left-rotation amount s of each position, and complement is 8 - s.
    """
    flat = np.random.default_rng((SCRAMBLE_SEED, m)).permutation(m * m)
    coords = np.empty((2, m * m), dtype=np.int16)
    np.divmod(flat, m, out=(coords[0], coords[1]), casting="same_kind")
    del flat  # the int64 permutation: 8*M*M bytes, freed before the rotation draw
    # An int32 draw below 2**32 gives the values of the default int64 one.
    rng = np.random.default_rng((ROTATION_SEED, m))
    shift = rng.integers(0, 8, size=m * m, dtype=np.int32).astype(np.uint8)
    complement = 8 - shift
    for table in (coords, shift, complement):
        table.flags.writeable = False
    return coords[0], coords[1], shift, complement


def _reduce(values: np.ndarray, m: int, tmp: np.ndarray) -> None:
    """Reduce values mod m in place, to [0, m); tmp is overwritten.

    numpy divides an integer array by a scalar far faster than it takes the remainder.
    """
    np.floor_divide(values, m, out=tmp)
    tmp *= m
    values -= tmp


def _gather_index(params: list[tuple[int, int, int, int]], m: int) -> np.ndarray:
    """Gather index of the byte permutations of one round, one row per key.

    Row i is the index of one M x M image under the key parameters params[i]:
    output position k takes the block-XORed byte that the in-block move by
    pinv, then the cat map, then the scramble carry to k.  The cat map
    (x, y) -> (x + a*y + rx, b*x + (a*b + 1)*y + ry) is inverted in closed
    form at the scramble's coordinates (u, v), for all keys in one pass:
    y = (v - ry) - b*(u - rx), then x = (u - rx) - a*y, both mod M.  The
    steps run in place, so at most three arrays of the index's size are
    alive at once.
    """
    u, v, _, _ = static_tables(m)
    # Intermediates stay within (-2*M*M, 2*M*M), which int32 holds for M <= MAX_SIDE.
    reduced = np.array([[p % m for p in key] for key in params], dtype=np.int32)
    a, b, rx, ry = reduced.T[:, :, np.newaxis]
    x = u - rx
    y = v - ry
    tmp = b * x
    y -= tmp
    _reduce(y, m, tmp)
    x -= np.multiply(a, y, out=tmp)
    _reduce(x, m, tmp)
    del tmp
    cell = x
    cell *= m
    cell += y
    low = np.bitwise_and(cell, BLOCK_BYTES - 1, out=y)
    cell &= -BLOCK_BYTES
    cell |= _PINV[low]
    return cell


def _stack_index(keys: Sequence[CipherKey], m: int, invert: bool) -> np.ndarray:
    """Flat gather index of one round under keys: one key, or one per image.

    Row w is offset by w*M*M, so a single key's index covers one image and
    is applied to every image of a stack in turn.  Adding the offsets also
    widens the index to intp, which take() would otherwise do in every
    round.  With invert, for decryption, one scatter inverts the whole
    offset index: that is the offset inverse of each row.
    """
    index = _gather_index([k.params() for k in keys], m)
    offsets = np.arange(0, index.size, m * m, dtype=np.intp)
    index = (index + offsets[:, np.newaxis]).reshape(-1)
    if invert:
        forward = index
        index = np.empty_like(forward)
        index[forward] = np.arange(forward.size)
    return index


def _rotate(data: np.ndarray, by: np.ndarray, back: np.ndarray) -> np.ndarray:
    """(z << by) | (z >> back) for every byte z of a flat stack of images.

    by and back are per-position grids of one image.  With back = 8 - by
    this rotates left by `by`; swapped, it rotates right.  A uint8 shift by 8
    gives 0, so a zero shift leaves the byte as it is.
    """
    z = data.reshape(-1, by.size)
    out = z << by
    out |= z >> back
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# full cipher
# ---------------------------------------------------------------------------

def _flat_stack(
    data: np.ndarray, key: CipherKey | Sequence[CipherKey]
) -> tuple[np.ndarray, int, tuple[CipherKey, ...]]:
    """The bytes of an image or a stack, flat and C-contiguous, with M and the keys.

    An M x M image takes one CipherKey.  A (W, M, M) stack takes one
    CipherKey for every image, or a sequence of W keys that share the round
    count.
    """
    stack = np.ndim(data) == 3
    if stack and len(data) == 0:
        raise DimensionError("a stack needs at least one image")
    m = validate_image(data[0] if stack else data)
    if isinstance(key, CipherKey):
        return np.ascontiguousarray(data).reshape(-1), m, (key,)
    keys = tuple(key)
    if not stack:
        raise DimensionError("a key sequence needs a (W, M, M) stack of images")
    if len(keys) != len(data):
        raise ValueError(f"a stack of {len(data)} images needs {len(data)} keys, got {len(keys)}")
    if len({k.rounds for k in keys}) != 1:
        raise ValueError("the keys of a stack must share one round count")
    return np.ascontiguousarray(data).reshape(-1), m, keys


def encrypt(image: np.ndarray, key: CipherKey | Sequence[CipherKey]) -> np.ndarray:
    """Run key.rounds rounds of diffusion followed by the bit permutation.

    image is an M x M image under one CipherKey, or a (W, M, M) stack under
    one CipherKey or a sequence of W keys with one round count: image w
    under key w.
    """
    out, m, keys = _flat_stack(image, key)
    index = _stack_index(keys, m, False)
    _, _, shift, complement = static_tables(m)
    for _ in range(keys[0].rounds):
        # Rows of the index's size: the whole stack, or each image under one key.
        out = _block_xor(out).reshape(-1, index.size).take(index, axis=1)
        out = _rotate(out, shift, complement)
    return out.reshape(image.shape)


def decrypt(cipher: np.ndarray, key: CipherKey | Sequence[CipherKey]) -> np.ndarray:
    """Exact inverse of :func:`encrypt`, on the same images and keys."""
    out, m, keys = _flat_stack(cipher, key)
    index = _stack_index(keys, m, True)
    _, _, shift, complement = static_tables(m)
    for _ in range(keys[0].rounds):
        out = _rotate(out, complement, shift).reshape(-1, index.size).take(index, axis=1)
        out = _block_xor(out)
    return out.reshape(cipher.shape)
