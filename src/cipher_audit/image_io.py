"""Grayscale image I/O: binary PGM (P5), raw ciphertext blobs, synthetic images."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cipher import DimensionError, validate_image

PGM_MAXVAL = 255

# Default seed of the natural-statistics test image.
PORTRAIT_SEED = 0x10E7


class PgmParseError(ValueError):
    """Malformed PGM header or truncated payload."""


class UnsupportedDepthError(ValueError):
    """PGM with a sample depth other than 8 bits (maxval != 255)."""


def _read_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read whitespace-separated header tokens, skipping '#' comments.

    Returns the tokens and the offset of the byte right after the single
    whitespace character that terminates the last token.
    """
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise PgmParseError("unterminated comment in header")
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise PgmParseError("truncated header")
        tokens.append(data[start:pos])
        if len(tokens) == count:
            if pos >= len(data) or not data[pos : pos + 1].isspace():
                raise PgmParseError("missing whitespace after header")
            pos += 1
    return tokens, pos


def read_pgm(path) -> np.ndarray:
    """Read a square 8-bit binary PGM (P5) into an M x M uint8 array."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read PGM {path}: {exc}") from exc
    if not data.startswith(b"P5"):
        raise PgmParseError(f"{path}: not a binary PGM (P5) file")
    try:
        (magic, width, height, maxval), offset = _read_tokens(data, 4)
        w, h, depth = int(width), int(height), int(maxval)
    except PgmParseError as exc:
        raise PgmParseError(f"{path}: {exc}") from None
    except ValueError:
        raise PgmParseError(f"{path}: non-numeric header field") from None
    if w != h:
        raise DimensionError(f"{path}: image must be square, got {w}x{h}")
    if depth != PGM_MAXVAL:
        raise UnsupportedDepthError(f"{path}: only 8-bit PGM supported, maxval={depth}")
    payload = data[offset : offset + w * h]
    if len(payload) != w * h:
        raise PgmParseError(f"{path}: payload has {len(payload)} bytes, expected {w * h}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w).copy()


def write_pgm(image: np.ndarray, path) -> None:
    """Write an image as binary PGM; read_pgm(write_pgm(I)) == I bit-exact."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise DimensionError("image must be a 2-D uint8 array")
    h, w = image.shape
    header = f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(image.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write PGM {path}: {exc}") from exc


def read_raw(path, m: int) -> np.ndarray:
    """Read a headerless ciphertext blob of exactly M*M bytes."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read blob {path}: {exc}") from exc
    if len(data) != m * m:
        raise DimensionError(
            f"{path}: blob has {len(data)} bytes, expected {m * m} for M={m}"
        )
    return np.frombuffer(data, dtype=np.uint8).reshape(m, m).copy()


def write_raw(image: np.ndarray, path) -> None:
    """Write an image's bytes row-major with no header."""
    validate_image(image)
    try:
        with open(path, "wb") as fh:
            fh.write(image.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write blob {path}: {exc}") from exc


def make_test_image(kind: str, m: int, *, x: int = 0, y: int = 0, seed: int = 0) -> np.ndarray:
    """Synthetic test inputs: 'all-zero', 'single-lsb' or 'uniform-random'."""
    if m < 4 or m % 4 != 0:
        raise DimensionError(f"side length must be a multiple of 4 and >= 4, got {m}")
    if kind == "all-zero":
        return np.zeros((m, m), dtype=np.uint8)
    if kind == "single-lsb":
        if not (0 <= x < m and 0 <= y < m):
            raise ValueError(f"pixel ({x}, {y}) outside [0, {m})")
        image = np.zeros((m, m), dtype=np.uint8)
        image[x, y] = 1
        return image
    if kind == "uniform-random":
        return np.random.default_rng(seed).integers(0, 256, size=(m, m), dtype=np.uint8)
    raise ValueError(f"unknown test image kind {kind!r}")


def _upsample_bilinear(coarse: np.ndarray, m: int) -> np.ndarray:
    """Bilinear resize of a small square grid to M x M."""
    k = coarse.shape[0]
    pos = (np.arange(m) + 0.5) * k / m - 0.5
    i0 = np.clip(np.floor(pos).astype(int), 0, k - 1)
    i1 = np.clip(i0 + 1, 0, k - 1)
    f = np.clip(pos - i0, 0.0, 1.0)
    rows = coarse[i0][:, i0] * np.outer(1 - f, 1 - f)
    rows += coarse[i0][:, i1] * np.outer(1 - f, f)
    rows += coarse[i1][:, i0] * np.outer(f, 1 - f)
    rows += coarse[i1][:, i1] * np.outer(f, f)
    return rows


def make_portrait_image(m: int = 256, seed: int = PORTRAIT_SEED) -> np.ndarray:
    """Deterministic smooth test image with natural-photo statistics.

    Multi-scale random blobs normalized to mean ~124 and std ~48, the first
    and second moments of the classic grayscale portrait test photos.  The
    error-propagation report's PSNR range depends only on those moments.
    """
    if m < 8 or m % 4 != 0:
        raise DimensionError(f"side length must be a multiple of 4 and >= 8, got {m}")
    rng = np.random.default_rng((seed, m))
    field = np.zeros((m, m), dtype=np.float64)
    for scale, weight in ((4, 1.0), (8, 0.6), (16, 0.35), (64, 0.15)):
        field += weight * _upsample_bilinear(rng.normal(size=(scale, scale)), m)
    field = (field - field.mean()) / field.std()
    return np.clip(124.0 + 50.0 * field, 0, 255).round().astype(np.uint8)
