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
  XOR (BX) is folded from a block's two uint64 lanes and XORed into each
  lane in turn, through strided views; the in-block move by pinv (Pm) is a
  byte permutation like stages (a) and (b).  The stored form of the
  diffusion layer is that permutation, _PINV; the matrix is derived from it.
- Encryption runs in a frame where Pm is gone from every round.  One round
  is Rot . Scr . C . Pm . BX (rotation, scramble, cat map, in-block move,
  block XOR).  BX XORs every byte with its block's XOR, so it commutes with
  any permutation inside a block.  With Pi = Pm, Pi . Round . Pi^-1 =
  (Pi Rot Pi^-1) . (Pi Scr) . C . BX, so r rounds are E = Pi^-1 . F^r . Pi,
  where F is that framed round and both bracketed maps are static.  Pi
  moves byte pi(k) = (k & -16) | pinv[k & 15] to position k; encrypt moves
  its image in and the result back out, one in-block pass each, and the
  sweeps draw their plaintexts in the frame and score framed stacks.
- F's cat map and scramble compose into one flat gather index per (key,
  M): the cat map's inverse [[ab+1, -a], [-b, 1]] mod M in closed form, at
  the scramble's coordinates held in the frame.  Only the cat map is keyed,
  and it is the whole index.  The widths are fixed: the scramble's
  coordinates are int16 and the index is built in int32, which check_side's
  bound M <= MAX_SIDE guarantees.
- The rotation is two uint8 shifts, (z << s) | (z >> (8 - s)), over a cached
  grid of s (encryption's in the frame); a call derives 8 - s once.

encrypt and decrypt take one M x M image under one CipherKey and reduce its
parameters mod M, as Python integers, into one int32 row (_key_row).  The
one route into the rounds is _run: the public calls pass that row, the
sweeps a flat (W, M, M) stack with one row for every image or one per image.
_run drains _rounds, a generator of the stack after each round.  Only the
gather index depends on the key.  A call builds it at most once, at its
first dense round, as one intp array with row w offset by w*M*M into the
flat stack, allocated first and filled in blocks of at most _INDEX_BLOCK
positions, each block evaluated in int32 for all of its keys at once.  One
key's index is one image long and is applied to each image in turn.  A
round is one block XOR, one gather and one rotation over the whole stack.

Decryption runs natural, outside the frame.  It rotates right, gathers and
applies the same block XOR: x -> x xor (block XOR of x) is an involution on
16-byte blocks, which is why A^-1 = J xor P^T = A^T.  Its gather index is the forward byte map
(_destination), evaluated in closed form at every position: the in-block move
takes position j to a cell, one division by M from j's block start, the cat
map (x + a*y + rx, b*x + (a*b + 1)*y + ry) mod M moves that cell, and the
inverse of the scramble gives the position it lands on.  Only the cat map is
keyed.  One cache, static_tables, holds every key-independent table of a size
M, encryption's framed ones and decryption's natural ones; it is the
module's only per-size state.

Sparse rounds.  A nonzero byte fills at most its 16-byte block under the
block XOR, and the gather sends a block's 16 bytes into at most 16 blocks,
so a one-bit image touches one block, then at most 16, 256, ... blocks.
While a stack's touched blocks are few, a round of encryption runs on them
alone: each of their bytes is carried by the forward map (_destination) at
its own cell, then into the frame, into a fresh zero stack, and no M*M
gather index is built.  The frame keeps every byte in its block, so a
stack touches the same blocks in the frame and out of it.  The switch is
read from the input: the touched blocks are counted in the input and after
each sparse round, and a round runs sparse while they are at most
(S - 24576) / 144 for a stack of S bytes, the point where a sparse round
stops being cheaper than a dense one.  From the first round
over that limit the remaining rounds run dense.  Decryption runs dense
only: the sweeps decrypt only error-propagation stacks, whose default 5%
row touches every block.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections.abc import Iterator
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


def check_rounds(r: int) -> int:
    """Check a round count r, 1 <= r < 2**32 (one 32-bit word of a sweep trial's seed), and return it."""
    if not 1 <= r < 2**32:
        raise ValueError(f"round counts must be within 1..{2**32 - 1}, got {r}")
    return r


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
        # A float or other non-integer would be truncated into a different key.
        for name in ("a", "b", "rx", "ry", "rounds"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise TypeError(f"key field {name} must be an integer, got {value!r}") from None
        for name in ("a", "b", "rx", "ry"):
            if getattr(self, name) < 0:
                raise ValueError(f"key parameter {name} must be non-negative")
        check_rounds(self.rounds)

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

# The in-block move sends input byte i of a block to byte p0[i]: the inverse
# of _PINV.
_P0 = np.argsort(_PINV).astype(np.int32)
_P0.flags.writeable = False


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
    The output is a fresh C-contiguous buffer; data is not written.
    """
    lanes = data.view(np.uint64).reshape(-1, 2)
    fold = lanes[:, 0] ^ lanes[:, 1]
    out = np.empty_like(lanes)
    tmp = out.reshape(-1)[: fold.size]  # scratch until the lanes are written
    for bits in (32, 16, 8):
        fold ^= np.right_shift(fold, bits, out=tmp)
    fold &= 0xFF
    fold *= 0x0101010101010101
    for k in range(2):
        np.bitwise_xor(lanes[:, k], fold, out=out[:, k])
    return out.reshape(-1).view(np.uint8)


# Most positions of a per-position table built in one pass, the gather
# index and the scramble's inverse: every int32 temporary of a pass is 64 KiB
# and each intp one 128 KiB, so a pass reuses the same few small buffers
# whatever M and W are.
_INDEX_BLOCK = 16384


@functools.lru_cache(maxsize=8)
def static_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The key-independent tables of side length M, read-only: (u, v, shift, natural_shift, scramble_pos).

    The first three are encryption's and are held in its frame (see the
    module docstring): entry k is the natural table's entry at pi(k) =
    (k & -16) | pinv[k & 15].  (u, v) is the int16 grid cell that the
    static scramble brings to position pi(k); :func:`_stack_index` widens
    it.  shift is the uint8 left-rotation amount s at pi(k).  The last two
    are decryption's and are natural: natural_shift is the rotation amount
    of each position, and scramble_pos is the int32 flat position that the
    scramble takes each grid cell to, the inverse of the scramble:
    scramble_pos[u[k]*M + v[k]] = pi(k).  The right shifts 8 - s are
    derived where a round needs them.  This is the only per-size state of
    the module.
    """
    flat = np.random.default_rng((SCRAMBLE_SEED, m)).permutation(m * m)
    coords = np.empty((2, m * m), dtype=np.int16)
    np.divmod(flat, m, out=(coords[0], coords[1]), casting="same_kind")
    del flat  # the int64 permutation: 8*M*M bytes, freed before the framing and the rotation draw
    framed = coords.reshape(2, -1, BLOCK_BYTES)
    framed[...] = framed[:, :, _PINV]
    # An int32 draw below 2**32 gives the values of the default int64 one.
    rng = np.random.default_rng((ROTATION_SEED, m))
    natural_shift = rng.integers(0, 8, size=m * m, dtype=np.int32).astype(np.uint8)
    shift = natural_shift.reshape(-1, BLOCK_BYTES)[:, _PINV].reshape(-1)
    # Last and in blocks, so the build peaks at the int64 permutation: a sweep
    # builds the tables before it forks a pool, and whole-array temporaries
    # would stay in the caller's resident memory.
    scramble_pos = np.empty(m * m, dtype=np.int32)
    for start in range(0, m * m, _INDEX_BLOCK):
        part = slice(start, start + _INDEX_BLOCK)
        cell = coords[0, part].astype(np.intp)
        cell *= m
        cell += coords[1, part]
        starts = np.arange(start, start + cell.size, BLOCK_BYTES, dtype=np.int32)[:, np.newaxis]
        scramble_pos[cell] = (starts + _PINV).reshape(-1)
    for table in (coords, shift, natural_shift, scramble_pos):
        table.flags.writeable = False
    return coords[0], coords[1], shift, natural_shift, scramble_pos


def _reduce(values: np.ndarray, m: int, tmp: np.ndarray) -> None:
    """Reduce values mod m in place, to [0, m); tmp is overwritten.

    A power of two m is one mask: the low bits of a two's-complement integer
    are its residue.  Otherwise numpy divides by a scalar far faster than it
    takes the remainder.
    """
    if m & (m - 1) == 0:
        values &= m - 1
        return
    np.floor_divide(values, m, out=tmp)
    tmp *= m
    values -= tmp


# The byte maps of one round take the key parameters (a, b, rx, ry), reduced
# mod M in int32, as arrays that broadcast against the coordinates: one row
# per key against a whole image for a gather index, or one entry per block
# against the blocks of a sparse round.  Every intermediate stays within
# (-2*M*M, 2*M*M), which int32 holds for M <= MAX_SIDE.

def _source(u, v, a, b, rx, ry, m: int) -> np.ndarray:
    """Flat cell x*M + y that the cat map carries to grid cell (u, v).

    The cat map (x, y) -> (x + a*y + rx, b*x + (a*b + 1)*y + ry) is inverted
    in closed form: y = (v - ry) - b*(u - rx), then x = (u - rx) - a*y, both
    mod M.  In encryption's frame this is the whole gather index: the
    in-block move is not in it.  The steps run in place, so at most three
    arrays of the result's size are alive at once.
    """
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
    return cell


def _destination(cell, a, b, rx, ry, m: int) -> np.ndarray:
    """Natural flat position that the cat map and the scramble carry each flat grid cell to.

    cell holds int32 flat cells and is overwritten.  Decryption's index
    passes each block's start + p0, flattened: the cells that the in-block
    move takes a block's bytes to; a sparse round of encryption, in its
    frame, passes start + arange(16), one row per block.  With (x0, y0) =
    divmod(cell, M), the cat map is evaluated forward, x = x0 + a*y0 + rx,
    then y = b*(x - rx) + y0 + ry, which is b*x0 + (a*b + 1)*y0 + ry, both
    mod M, and the scramble's inverse in static_tables gives the position
    the scramble takes (x, y) to.  The result broadcasts the cells against the key
    parameters.
    """
    x0 = cell // m
    y0 = cell
    y0 -= x0 * m
    x = a * y0
    x += x0
    del x0
    x += rx
    tmp = np.empty_like(x)
    _reduce(x, m, tmp)
    y = x - rx
    y *= b
    y += y0
    del y0
    y += ry
    _reduce(y, m, tmp)
    x *= m
    x += y
    del y
    scramble_pos = static_tables(m)[4]
    # x is within [0, M*M): "clip" never clips, and unlike "raise" it does not buffer.
    return np.take(scramble_pos, x, out=tmp, mode="clip")


def _stack_index(params: np.ndarray, m: int, invert: bool) -> np.ndarray:
    """Flat gather index of one round under reduced key parameters: one key, or one per image.

    params holds key parameters reduced mod M, int32, one row per key.
    Row w is offset by w*M*M, so a single key's index covers one image and
    is applied to every image of a stack in turn.  Adding the offsets also
    widens the index to intp, which take() would otherwise do in every
    round.  For encryption, in its frame, position k takes the byte at
    _source of the framed scramble cell (u, v) of k.  With invert, the
    index is decryption's, natural: position j takes the byte at
    _destination of j's cell after the in-block move, its block's start
    plus p0.

    The intp index is allocated first and filled in blocks of at most
    _INDEX_BLOCK positions: whole rows of keys while M*M <= _INDEX_BLOCK,
    otherwise consecutive segments of one key's row.  Each block is one
    closed form evaluated in int32 for all of its keys at once.
    """
    n = m * m
    index = np.empty((len(params), n), dtype=np.intp)
    rows = max(1, _INDEX_BLOCK // n)
    span = min(n, _INDEX_BLOCK)
    u, v = static_tables(m)[:2]
    for first in range(0, len(params), rows):
        keys = params[first : first + rows]
        offsets = np.arange(first * n, (first + len(keys)) * n, n, dtype=np.intp)[:, np.newaxis]
        a, b, rx, ry = keys.T[:, :, np.newaxis]
        for start in range(0, n, span):
            stop = min(start + span, n)
            part = slice(start, stop)
            if invert:
                cells = np.arange(start, stop, BLOCK_BYTES, dtype=np.int32)[:, np.newaxis] + _P0
                block = _destination(cells.reshape(-1), a, b, rx, ry, m)
            else:
                block = _source(u[part], v[part], a, b, rx, ry, m)
            np.add(block, offsets, out=index[first : first + rows, part])
    return index.reshape(-1)


def _framed(p: np.ndarray) -> np.ndarray:
    """Position in encryption's frame of the byte at each natural position p.

    That is (p & -16) | p0[p & 15], in p's dtype: the frame keeps every
    byte in its 16-byte block.
    """
    framed = p & -BLOCK_BYTES
    framed |= np.take(_P0, p & (BLOCK_BYTES - 1), mode="clip")
    return framed


def _rotate(data: np.ndarray, by: np.ndarray, back: np.ndarray) -> np.ndarray:
    """(z << by) | (z >> back) for every byte z of data, flattened.

    by and back broadcast against data: a per-position grid of one image
    against a stack with one image per row, or one amount per byte.  With
    back = 8 - by this rotates left by `by`; swapped, it rotates right.  A
    uint8 shift by 8 gives 0, so a zero shift leaves the byte as it is.
    """
    out = data << by
    out |= data >> back
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# sparse rounds: only the touched 16-byte blocks
# ---------------------------------------------------------------------------

# Cost of a sparse round in bytes of a dense round: each byte of its touched
# blocks costs about _SPARSE_BYTE_COST of them, and the round's fixed numpy
# call overhead about _SPARSE_ROUND_BYTES.  A round runs sparse while this
# is at most the stack's size.
_SPARSE_BYTE_COST = 9
_SPARSE_ROUND_BYTES = 24576


def _touched_blocks(flat: np.ndarray) -> np.ndarray:
    """Mark of each 16-byte block of a flat stack: nonzero where the block holds a nonzero byte.

    A block is two uint64 lanes, so the two lane tests of a block, as bools,
    read as one uint16.
    """
    return (flat.view(np.uint64) != 0).view(np.uint16)


def _sparse_round(
    flat: np.ndarray, blocks: np.ndarray, params: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """One round of encrypt, in its frame, on the touched blocks of a flat stack.

    flat is zero outside the 16-byte blocks whose ids, ascending, are
    blocks; params holds the reduced key of every image.  Returns the next
    stack and its touched blocks in the same form.  A block never spans two
    images, so each block's image and key are taken once and broadcast over
    its 16 bytes.  The blocks are XORed, and every byte at cell j is carried
    to its natural _destination, then _framed into the frame, where
    _rotate turns it by the framed shift s gathered there.
    """
    n = m * m
    image = blocks // (n // BLOCK_BYTES)
    offset = image * n
    start = (blocks * BLOCK_BYTES - offset).astype(np.int32)[:, np.newaxis]
    a, b, rx, ry = params[image].T[:, :, np.newaxis]
    data = _block_xor(flat.reshape(-1, BLOCK_BYTES)[blocks].reshape(-1))
    target = _framed(_destination(start + np.arange(BLOCK_BYTES, dtype=np.int32), a, b, rx, ry, m))
    shift = static_tables(m)[2][target.reshape(-1)]
    values = _rotate(data, shift, 8 - shift)
    target = (target + offset[:, np.newaxis]).reshape(-1)  # intp: a stack may hold more than 2**31 bytes
    out = np.zeros_like(flat)
    out[target] = values
    mark = np.zeros(flat.size // BLOCK_BYTES, dtype=bool)
    mark[target // BLOCK_BYTES] = True
    return out, np.flatnonzero(mark)


# ---------------------------------------------------------------------------
# full cipher
# ---------------------------------------------------------------------------

def _rounds(flat: np.ndarray, params: np.ndarray, m: int, invert: bool) -> Iterator[np.ndarray]:
    """The flat stack after each round of encrypt (or with invert, decrypt), without end.

    Encryption takes and yields stacks in its frame, decryption natural
    ones (see the module docstring).  params holds the reduced key
    parameters: one row, or one per image.  Encryption runs sparse, then
    dense, by the switch of the module docstring, and decryption dense
    only; the gather index is built when the first dense round is asked
    for, and a stack's images switch together.  The dense rounds rotate by
    the cached shifts s of the direction's frame and by 8 - s, derived once
    per call.  No yielded stack is written to again.
    """
    # the most touched blocks with which a sparse round costs no more than a dense one
    limit = (flat.size - _SPARSE_ROUND_BYTES) / (_SPARSE_BYTE_COST * BLOCK_BYTES)
    if not invert and limit >= 1 and np.count_nonzero(touched := _touched_blocks(flat)) <= limit:
        blocks = np.flatnonzero(touched)
        per_image = np.broadcast_to(params, (flat.size // (m * m), 4))
        while blocks.size <= limit:
            flat, blocks = _sparse_round(flat, blocks, per_image, m)
            yield flat
    index = _stack_index(params, m, invert)
    shift = static_tables(m)[3 if invert else 2]
    back = 8 - shift
    while True:
        # Rows of the index's size: the whole stack, or each image under one
        # key; the rotation takes rows of one image.
        if invert:
            flat = _rotate(flat.reshape(-1, shift.size), back, shift).reshape(-1, index.size).take(index, axis=1)
            flat = _block_xor(flat)
        else:
            flat = _block_xor(flat).reshape(-1, index.size).take(index, axis=1)
            flat = _rotate(flat.reshape(-1, shift.size), shift, back)
        yield flat


def _run(flat: np.ndarray, params: np.ndarray, m: int, rounds: int, invert: bool) -> np.ndarray:
    """rounds rounds of encrypt (or with invert, decrypt) over a flat stack: the last of :func:`_rounds`.

    params holds the key parameters mod M, int32: one row that every image
    shares, or one row per image.  It is the one route into the rounds: for
    encrypt and decrypt (one image, one row) and for the sweeps' stacks.
    With rounds = 0 it returns flat itself, unchanged, in either direction.
    """
    for flat in itertools.islice(_rounds(flat, params, m, invert), rounds):
        pass
    return flat


def _key_row(key: CipherKey, m: int) -> np.ndarray:
    """A key's (a, b, rx, ry) mod M, reduced as Python integers of any size: :func:`_run`'s int32 row."""
    if not isinstance(key, CipherKey):
        raise TypeError(f"key must be one CipherKey, got {type(key).__name__}")
    return np.array([p % m for p in key.params()], dtype=np.int32)


def encrypt(image: np.ndarray, key: CipherKey) -> np.ndarray:
    """Run key.rounds rounds of diffusion followed by the bit permutation on one M x M image.

    The rounds run in encryption's frame: the image is moved into it, byte
    pi(k) to position k, and the result back out, one in-block pass each.
    """
    m = validate_image(image)
    framed = image.reshape(-1, BLOCK_BYTES)[:, _PINV].reshape(-1)
    flat = _run(framed, _key_row(key, m)[np.newaxis], m, key.rounds, False)
    return flat.reshape(-1, BLOCK_BYTES)[:, _P0].reshape(m, m)


def decrypt(cipher: np.ndarray, key: CipherKey) -> np.ndarray:
    """Exact inverse of :func:`encrypt`, on one M x M image under the same key."""
    m = validate_image(cipher)
    flat = np.ascontiguousarray(cipher).reshape(-1)
    return _run(flat, _key_row(key, m)[np.newaxis], m, key.rounds, True).reshape(m, m)
