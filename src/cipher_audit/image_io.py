"""Grayscale image I/O: binary PGM (P5), raw ciphertext blobs, synthetic images."""

from __future__ import annotations

import numpy as np

from .cipher import DimensionError, check_side, validate_image

PGM_MAXVAL = 255

# Default seed of the natural-statistics test image.
PORTRAIT_SEED = 0x10E7


class PgmParseError(ValueError):
    """Malformed PGM header or truncated payload."""


class UnsupportedDepthError(ValueError):
    """PGM with a sample depth other than 8 bits (maxval != 255)."""


# The Netpbm P5 header: magic, then width, height and maxval as ASCII
# decimals, each after whitespace or '#' comments that run to the end of the
# line, then exactly one whitespace byte before the raster.  A field has at
# most 10 digits, far below int()'s 4300-digit limit.
_PGM_FIELD_DIGITS = 10
# Most bytes of a comment line held at once while it is skipped.
_PGM_COMMENT_CHUNK = 4096


def _read_pgm_header(fh, path) -> list[int]:
    """Width, height and maxval of a P5 header, read from fh byte by byte
    through the one whitespace byte that ends it.  A comment is skipped in
    chunks of at most _PGM_COMMENT_CHUNK bytes, so even an endless input is
    held only a chunk at a time."""
    bad = PgmParseError(f"{path}: not a binary PGM header (P5, then decimal width, height and maxval)")
    if fh.read(2) != b"P5":
        raise bad
    fields = []
    byte = fh.read(1)
    while len(fields) < 3:
        if not (byte.isspace() or byte == b"#"):
            raise bad
        while byte.isspace() or byte == b"#":
            if byte == b"#":
                while not (line := fh.readline(_PGM_COMMENT_CHUNK)).endswith(b"\n"):
                    if not line:
                        raise bad
            byte = fh.read(1)
        digits = b""
        while byte.isdigit():
            digits += byte
            if len(digits) > _PGM_FIELD_DIGITS:
                raise bad
            byte = fh.read(1)
        if not digits:
            raise bad
        fields.append(int(digits))
    if not byte.isspace():
        raise bad
    return fields


def read_pgm(path) -> np.ndarray:
    """Read a square 8-bit binary PGM (P5) into an M x M uint8 array.

    The header is read first and its side checked, then exactly M*M bytes
    of raster: bytes after the raster are never read, so a long or endless
    input costs no more memory than the image.
    """
    try:
        with open(path, "rb") as fh:
            w, h, depth = _read_pgm_header(fh, path)
            if w != h:
                raise DimensionError(f"{path}: image must be square, got {w}x{h}")
            if depth != PGM_MAXVAL:
                raise UnsupportedDepthError(f"{path}: only 8-bit PGM supported, maxval={depth}")
            payload = fh.read(check_side(w) * h)
    except OSError as exc:
        raise OSError(f"cannot read PGM {path}: {exc}") from exc
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
    """Read a headerless ciphertext blob of exactly M*M bytes.

    At most M*M + 1 bytes are read: a longer input, even an endless one such
    as a device, is rejected without being read to its end.
    """
    check_side(m)
    size = m * m
    try:
        with open(path, "rb") as fh:
            data = fh.read(size + 1)
    except OSError as exc:
        raise OSError(f"cannot read blob {path}: {exc}") from exc
    if len(data) > size:
        raise DimensionError(f"{path}: blob has more than {size} bytes, expected {size} for M={m}")
    if len(data) != size:
        raise DimensionError(f"{path}: blob has {len(data)} bytes, expected {size} for M={m}")
    return np.frombuffer(data, dtype=np.uint8).reshape(m, m).copy()


def write_raw(image: np.ndarray, path) -> None:
    """Write an image's bytes row-major with no header."""
    validate_image(image)
    try:
        with open(path, "wb") as fh:
            fh.write(image.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write blob {path}: {exc}") from exc


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"the image seed must be >= 0, got {seed}")


def make_test_image(kind: str, m: int, *, x: int = 0, y: int = 0, seed: int = 0) -> np.ndarray:
    """Synthetic test inputs: 'all-zero', 'single-lsb' or 'uniform-random'."""
    check_side(m)
    _check_seed(seed)
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
    if check_side(m) < 8:
        raise DimensionError(f"a portrait side length must be >= 8 (one SSIM window), got {m}")
    _check_seed(seed)
    rng = np.random.default_rng((seed, m))
    field = np.zeros((m, m), dtype=np.float64)
    for scale, weight in ((4, 1.0), (8, 0.6), (16, 0.35), (64, 0.15)):
        field += weight * _upsample_bilinear(rng.normal(size=(scale, scale)), m)
    field = (field - field.mean()) / field.std()
    return np.clip(124.0 + 50.0 * field, 0, 255).round().astype(np.uint8)
