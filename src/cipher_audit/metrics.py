"""Pure measurement functions: Hamming distance %, chi-square, PSNR, SSIM."""

from __future__ import annotations

import math

import numpy as np

# Chi-square acceptance threshold for a 256-bin histogram (255 degrees of
# freedom at significance level 0.05).  Values at or below it are considered
# uniform; no p-value machinery.
CHI2_THRESHOLD = 293.0

GRAY_LEVELS = 256

# Smallest buffer that byte_histogram counts by its nonzero lanes alone
# (2 KiB); timed against np.bincount on a 2-core Xeon, numpy 2.4.6.
_SPARSE_HISTOGRAM_BYTES = 2048

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


def bit_percents(rows: np.ndarray) -> list[float]:
    """Percentage of set bits in each row, along the first axis, of a uint8 array."""
    flat = rows.reshape(len(rows), -1)
    bits = 8 * flat.shape[1]
    return [100.0 * int(w) / bits for w in np.bitwise_count(flat).sum(axis=1, dtype=np.int64)]


def hamming_percent(x: np.ndarray | bytes, y: np.ndarray | bytes) -> float:
    """Percentage of differing bits between two equal-length byte sequences."""
    a = _as_bytes(x)
    b = _as_bytes(y)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size} bytes")
    if a.size == 0:
        raise ValueError("byte sequences must be non-empty")
    return bit_percents((a ^ b)[np.newaxis])[0]


def byte_histogram(data: np.ndarray | bytes) -> np.ndarray:
    """Occurrence counts of each byte value 0..255.

    The bytes are read as 8-byte lanes, plus the last size % 8 bytes.  If at
    most half of the lanes are nonzero, only the bytes of the nonzero lanes
    and the last bytes are counted, and the zeros of the other lanes are
    added to bin 0: on a mostly zero buffer, such as a low-round ciphertext,
    this is much faster than counting every byte, whose run of equal values
    np.bincount counts at half its speed on random bytes.  A buffer under
    2 KiB is counted whole, since there the lane pass costs more than it
    saves.
    """
    flat = np.ascontiguousarray(_as_bytes(data))
    if flat.size < _SPARSE_HISTOGRAM_BYTES:
        return np.bincount(flat, minlength=GRAY_LEVELS).astype(np.int64)
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


def _check_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


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
    mse = int(np.square(diff, dtype=np.int32).sum(dtype=np.int64)) / a.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def _window_sums(x: np.ndarray) -> np.ndarray:
    """Sums over every 8x8 sliding window (stride 1) of the last two axes.

    Widths double 1 -> 2 -> 4 -> 8 along each axis, each step adding two
    shifted copies.  The input is uint16, so every partial sum is an integer
    of at most 64 * 255^2 and the int32 result is exact.
    """
    s = np.add(x[..., :-1], x[..., 1:], dtype=np.int32)
    s = s[..., :-2] + s[..., 2:]
    s = s[..., :-4] + s[..., 4:]
    s = s[..., :-1, :] + s[..., 1:, :]
    s = s[..., :-2, :] + s[..., 2:, :]
    return s[..., :-4, :] + s[..., 4:, :]


# Window statistics of the last reference image: (shape, bytes, stats).
_ssim_reference: tuple[tuple[int, ...], bytes, tuple[np.ndarray, ...]] | None = None


def _reference_stats(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a as uint16, mu_a, mu_a^2, var_a) of a reference image, kept for the last one.

    The cache key is the shape and the bytes, so an image edited in place
    or replaced by a different one is recomputed.
    """
    global _ssim_reference
    key = a.tobytes()
    cached = _ssim_reference  # read once: another thread may replace it
    if cached is not None and cached[:2] == (a.shape, key):
        return cached[2]
    wide = a.astype(np.uint16)
    mu, var = _window_sums(np.stack([wide, wide * wide])) / (SSIM_WINDOW * SSIM_WINDOW)
    mu_sq = mu * mu
    var -= mu_sq
    stats = (wide, mu, mu_sq, var)
    for array in stats:
        array.flags.writeable = False
    _ssim_reference = (a.shape, key, stats)
    return stats


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over all 8x8 sliding windows (stride 1).

    Uniform windows, standard constants C1 = (0.01*255)^2, C2 = (0.03*255)^2,
    biased (divide by N) variance convention (Wang, Bovik, Sheikh &
    Simoncelli, IEEE TIP 2004).  Images are uint8; a is the reference.

    The window sums of a, b, a*a, b*b and a*b are computed in exact integer
    arithmetic.  They are integers far below 2^53, so they equal the sums a
    float64 integral image gives, and the score follows from them by the same
    float64 operations in the same order: the result is the same to the last
    bit.  The statistics of a are kept for the last reference seen, keyed by
    its shape and bytes, so scoring many images against one clean image
    computes them once.
    """
    _check_pair(a, b)
    if a.ndim != 2 or min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be 2-D with sides >= {SSIM_WINDOW}")
    if a.dtype != np.uint8 or b.dtype != np.uint8:
        raise ValueError(f"images must be uint8, got {a.dtype} and {b.dtype}")
    wide_a, mu_a, mu_a_sq, var_a = _reference_stats(a)
    wide_b = b.astype(np.uint16)  # a product of two bytes fits in uint16
    sums = _window_sums(np.stack([wide_b, wide_b * wide_b, wide_a * wide_b]))
    mu_b, var_b, cov = sums / (SSIM_WINDOW * SSIM_WINDOW)
    mu_b_sq = mu_b * mu_b
    var_b -= mu_b_sq
    mu_ab = mu_a * mu_b
    cov -= mu_ab
    # 2*mu_a*mu_b == 2*(mu_a*mu_b) exactly: doubling does not round.
    numerator = mu_ab * 2
    numerator += _SSIM_C1
    cov *= 2
    cov += _SSIM_C2
    numerator *= cov
    denominator = mu_a_sq + mu_b_sq
    denominator += _SSIM_C1
    var_b += var_a  # == var_a + var_b: float addition commutes exactly
    var_b += _SSIM_C2
    denominator *= var_b
    numerator /= denominator
    return float(numerator.mean())
