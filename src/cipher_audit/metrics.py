"""Pure measurement functions: Hamming distance %, chi-square, PSNR, SSIM."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Chi-square acceptance threshold for a 256-bin histogram (255 degrees of
# freedom at significance level 0.05).  Values at or below it are considered
# uniform; no p-value machinery.
CHI2_THRESHOLD = 293.0

GRAY_LEVELS = 256

_SSIM_C1 = (0.01 * 255.0) ** 2
_SSIM_C2 = (0.03 * 255.0) ** 2
SSIM_WINDOW = 8


def _as_bytes(data: np.ndarray | bytes | bytearray) -> np.ndarray:
    if isinstance(data, (bytes, bytearray)):
        return np.frombuffer(bytes(data), dtype=np.uint8)
    arr = np.asarray(data)
    if arr.dtype != np.uint8:
        raise ValueError(f"byte sequence must be uint8, got {arr.dtype}")
    return arr.reshape(-1)


def bit_weights(rows: np.ndarray) -> np.ndarray:
    """Set bits in each row, along the first axis, of a uint8 array, as int64.

    Each row is counted in one np.bitwise_count pass over its bytes read as
    8-byte lanes; a row whose length is not a multiple of 8 counts its last
    bytes as uint8.
    """
    flat = np.ascontiguousarray(rows).reshape(len(rows), -1)
    cut = flat.shape[1] - flat.shape[1] % 8
    weights = np.bitwise_count(flat[:, :cut].view(np.uint64)).sum(axis=1, dtype=np.int64)
    if cut < flat.shape[1]:
        weights += np.bitwise_count(flat[:, cut:]).sum(axis=1, dtype=np.int64)
    return weights


def bit_percents(rows: np.ndarray) -> np.ndarray:
    """Percentage of set bits in each row, along the first axis, of a uint8
    array, as float64: 100.0 * weight / bits, the weight from bit_weights."""
    flat = rows.reshape(len(rows), -1)
    return 100.0 * bit_weights(flat) / (8 * flat.shape[1])


def hamming_percent(x: np.ndarray | bytes, y: np.ndarray | bytes) -> float:
    """Percentage of differing bits between two equal-length byte sequences."""
    a = _as_bytes(x)
    b = _as_bytes(y)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size} bytes")
    if a.size == 0:
        raise ValueError("byte sequences must be non-empty")
    return float(bit_percents((a ^ b)[np.newaxis])[0])


def byte_histogram(data: np.ndarray | bytes) -> np.ndarray:
    """Occurrence counts of each byte value 0..255.

    The bytes are read as 8-byte lanes, plus the last size % 8 bytes.  If at
    most half of the lanes are nonzero, only the bytes of the nonzero lanes
    and the last bytes are counted, and the zeros of the other lanes are
    added to bin 0: on a mostly zero buffer, such as a low-round ciphertext,
    this is much faster than counting every byte, whose run of equal values
    np.bincount counts at half its speed on random bytes.
    """
    flat = np.ascontiguousarray(_as_bytes(data))
    tail = flat.size % 8
    lanes = flat[: flat.size - tail].view(np.uint64)
    nonzero = lanes != 0
    if 2 * np.count_nonzero(nonzero) > lanes.size:
        return np.bincount(flat, minlength=GRAY_LEVELS).astype(np.int64)
    values = np.concatenate([lanes[nonzero].view(np.uint8), flat[flat.size - tail :]])
    counts = np.bincount(values, minlength=GRAY_LEVELS).astype(np.int64)
    counts[0] += flat.size - values.size
    return counts


def chi_square(histogram: np.ndarray) -> float:
    """Chi-square statistic of a 256-bin histogram against the uniform one.

    sum over i of (o_i - e)^2 / e with e = total / 256.
    """
    counts = np.asarray(histogram, dtype=np.float64)
    if counts.shape != (GRAY_LEVELS,):
        raise ValueError(f"histogram must have {GRAY_LEVELS} bins, got {counts.shape}")
    if np.any(counts < 0):
        raise ValueError("histogram counts must be non-negative")
    total = counts.sum()
    if total == 0:
        raise ValueError("histogram is empty")
    expected = total / GRAY_LEVELS
    return float(((counts - expected) ** 2 / expected).sum())


def check_ssim_image(image: np.ndarray) -> None:
    """Raise ValueError unless the image is 2-D and holds one SSIM window."""
    if image.ndim != 2 or min(image.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be 2-D with sides >= {SSIM_WINDOW}")


def _check_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def _psnr_from_sse(sse: int, size: int) -> float:
    """PSNR in dB of uint8 images whose squared differences sum to sse."""
    mse = sse / size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the images are identical.

    Images are uint8.  The sum of squared differences is an exact integer;
    a float64 sum is exact too below 2^53, so the mean equals the one taken
    in float64 to the last bit.
    """
    _check_pair(a, b)
    if a.dtype != np.uint8 or b.dtype != np.uint8:
        raise ValueError(f"images must be uint8, got {a.dtype} and {b.dtype}")
    diff = np.subtract(a, b, dtype=np.int16)
    return _psnr_from_sse(int(np.square(diff, dtype=np.int32).sum(dtype=np.int64)), a.size)


def _window_sums(x: np.ndarray) -> np.ndarray:
    """Sums over every 8x8 sliding window (stride 1) of the last two axes,
    as rows of width w: column j < w - 7 of row i holds the window whose
    top-left pixel is (i, j).

    Each (h, w) plane is read as one row-major run of h*w values.  Widths
    double 1 -> 2 -> 4 -> 8 along the run, each step adding two shifted
    copies, and then along steps of w, so that element i*w + j of the run is
    the sum at (i, j).  The last step writes the run into h - 7 rows of w.
    Their last 7 columns hold windows that wrap into the next row, or 0 in
    the last row: sums over 64 pixels of the plane, or 0, so arithmetic on
    whole rows stays in range, and SSIM's denominators stay positive there.
    Adds along a flat run, and arithmetic on whole rows, are faster than on
    2-D slices.  The input is uint16, so every partial sum is an integer of
    at most 64 * 255^2 and the int32 result is exact.
    """
    h, w = x.shape[-2:]
    lead = x.shape[:-2]
    s = x.reshape(*lead, h * w)
    s = np.add(s[..., :-1], s[..., 1:], dtype=np.int32)
    for step in (2, 4, w, 2 * w):
        s = s[..., :-step] + s[..., step:]
    n = (h - 7) * w - 7  # the run's length after the last step
    out = np.zeros((*lead, (h - 7) * w), dtype=np.int32)
    np.add(s[..., :n], s[..., 4 * w :], out=out[..., :n])
    return out.reshape(*lead, h - 7, w)


class _ReferenceSums(NamedTuple):
    """The integer sums of a reference image a that every score against it shares."""

    wide: np.ndarray  # a as uint16
    s_a: np.ndarray  # window sums of a
    s_a_sq: np.ndarray  # their squares
    var_a: np.ndarray  # 64 * (window sums of a*a) - s_a_sq
    energy: int  # the sum of a*a over the image


def _reference_sums(a: np.ndarray) -> _ReferenceSums:
    """The sums of a uint8 reference image a, already checked, that ssim and
    psnr against it need."""
    wide = a.astype(np.uint16)
    square = wide * wide
    s_a, s_aa = _window_sums(np.stack([wide, square]))
    s_a_sq = s_a * s_a
    s_aa <<= 6
    s_aa -= s_a_sq
    return _ReferenceSums(wide, s_a, s_a_sq, s_aa, int(square.sum(dtype=np.int64)))


def _product_planes(wide_a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b, b*b and a*b as one uint16 stack: a product of two bytes fits in uint16."""
    planes = np.empty((3, *b.shape), dtype=np.uint16)
    planes[0] = b
    np.multiply(planes[0], planes[0], out=planes[1])
    np.multiply(wide_a, planes[0], out=planes[2])
    return planes


# C1 and C2 at the scale of the integer terms in _ssim_of.
_SSIM_C1_4096 = 4096 * _SSIM_C1
_SSIM_C2_4096 = 4096 * _SSIM_C2


def _ssim_of(ref: _ReferenceSums, planes: np.ndarray) -> float:
    """Mean SSIM of b against the reference a, from b's product planes.

    With S the 8x8 window sums, the float64 code that takes the means first
    (mu = S / 64, var = S_aa / 64 - mu_a^2, ...) has these four terms before
    it adds C1 or C2:
        2 mu_a mu_b       = 2 S_a S_b * 2^-12
        2 cov             = 2 (64 S_ab - S_a S_b) * 2^-12
        mu_a^2 + mu_b^2   = (S_a^2 + S_b^2) * 2^-12
        var_a + var_b     = (64 (S_aa + S_bb) - S_a^2 - S_b^2) * 2^-12
    Every intermediate there is a multiple of 2^-12 below 2^53, so it is
    exact and equals the right-hand side.  Here each term is the integer in
    front of 2^-12, which int32 holds (all are below 2^30), and the
    constants are 4096 C1 and 4096 C2.  Multiplying the operands of a float
    sum by 2^12, or those of a product or quotient by powers of two,
    multiplies the rounded result by the same power at these magnitudes, so
    each window's score is the float code's to the last bit, and so is
    their mean.
    """
    s_b, s_bb, s_ab = _window_sums(planes)
    s_b_sq = s_b * s_b
    s_b *= ref.s_a  # S_a S_b
    s_ab <<= 6
    s_ab -= s_b
    s_ab <<= 1  # 2 (64 S_ab - S_a S_b)
    s_b <<= 1  # 2 S_a S_b
    s_bb <<= 6
    s_bb -= s_b_sq
    s_bb += ref.var_a  # 64 (S_aa + S_bb) - S_a^2 - S_b^2
    s_b_sq += ref.s_a_sq  # S_a^2 + S_b^2
    numerator = s_b + _SSIM_C1_4096
    cov = s_ab + _SSIM_C2_4096
    numerator *= cov
    denominator = np.add(s_b_sq, _SSIM_C1_4096, out=cov)
    var = s_bb + _SSIM_C2_4096
    denominator *= var
    numerator /= denominator
    # numpy sums a strided view in another order than a contiguous array;
    # the float code takes the mean of a contiguous array of the windows.
    return float(numerator[:, : numerator.shape[1] - 7].copy().mean())


def _psnr_ssim(ref: _ReferenceSums, b: np.ndarray) -> tuple[float, float]:
    """psnr(a, b) and ssim(a, b) of a uint8 image b of the reference a's shape.

    PSNR comes from the same planes as SSIM, by the exact integer identity
    sum (a - b)^2 = sum a^2 + sum b^2 - 2 sum ab.
    """
    planes = _product_planes(ref.wide, b)
    sum_bb, sum_ab = (int(s) for s in planes[1:].sum(axis=(1, 2), dtype=np.int64))
    return _psnr_from_sse(ref.energy + sum_bb - 2 * sum_ab, b.size), _ssim_of(ref, planes)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over all 8x8 sliding windows (stride 1).

    Uniform windows, standard constants C1 = (0.01*255)^2, C2 = (0.03*255)^2,
    biased (divide by N) variance convention (Wang, Bovik, Sheikh &
    Simoncelli, IEEE TIP 2004).  Images are uint8; a is the reference.

    The window sums of a, b, a*a, b*b and a*b, and the four terms the score
    is built from, are computed in exact integer arithmetic.  The float64
    operations that follow round exactly as those of the float64 code that
    takes the means first (see _ssim_of), such as SSIM from a float64
    integral image: the result is the same to the last bit.
    """
    _check_pair(a, b)
    check_ssim_image(a)
    if a.dtype != np.uint8 or b.dtype != np.uint8:
        raise ValueError(f"images must be uint8, got {a.dtype} and {b.dtype}")
    ref = _reference_sums(a)
    return _ssim_of(ref, _product_planes(ref.wide, b))
