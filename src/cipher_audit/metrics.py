"""Pure measurement functions: Hamming distance %, chi-square, PSNR, SSIM."""

from __future__ import annotations

import math

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


def hamming_percent(x: np.ndarray | bytes, y: np.ndarray | bytes) -> float:
    """Percentage of differing bits between two equal-length byte sequences."""
    a = _as_bytes(x)
    b = _as_bytes(y)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size} bytes")
    if a.size == 0:
        raise ValueError("byte sequences must be non-empty")
    total_bits = 8 * a.size
    return 100.0 * int(np.bitwise_count(a ^ b).sum(dtype=np.int64)) / total_bits


def byte_histogram(data: np.ndarray | bytes) -> np.ndarray:
    """Occurrence counts of each byte value 0..255."""
    return np.bincount(_as_bytes(data), minlength=GRAY_LEVELS).astype(np.int64)


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
    """Peak signal-to-noise ratio in dB; +inf when the images are identical."""
    _check_pair(a, b)
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def _window_sums(a: np.ndarray, w: int) -> np.ndarray:
    """Sums over every w x w sliding window (stride 1) via an integral image."""
    c = np.cumsum(np.cumsum(a, axis=0, dtype=np.float64), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    return c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over all 8x8 sliding windows (stride 1).

    Uniform windows, standard constants C1 = (0.01*255)^2, C2 = (0.03*255)^2,
    biased (divide by N) variance convention.
    """
    _check_pair(a, b)
    if a.ndim != 2 or min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be 2-D with sides >= {SSIM_WINDOW}")
    n = SSIM_WINDOW * SSIM_WINDOW
    af = a.astype(np.float64)
    bf = b.astype(np.float64)
    mu_a = _window_sums(af, SSIM_WINDOW) / n
    mu_b = _window_sums(bf, SSIM_WINDOW) / n
    var_a = _window_sums(af * af, SSIM_WINDOW) / n - mu_a * mu_a
    var_b = _window_sums(bf * bf, SSIM_WINDOW) / n - mu_b * mu_b
    cov = _window_sums(af * bf, SSIM_WINDOW) / n - mu_a * mu_b
    score = ((2 * mu_a * mu_b + _SSIM_C1) * (2 * cov + _SSIM_C2)) / (
        (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    )
    return float(score.mean())
