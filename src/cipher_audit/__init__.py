"""Bit-permutation image cipher and its statistical audit harness."""

from .cipher import (
    BLOCK_BYTES,
    CipherKey,
    DimensionError,
    build_diffusion_matrix,
    decrypt,
    encrypt,
    key_bits,
    key_from_hex,
    param_bits,
)
from .experiments import (
    ExperimentConfig,
    avalanche_sweep,
    error_propagation,
    keyspace_report,
    uniformity_sweep,
)
from .metrics import CHI2_THRESHOLD, chi_square, hamming_percent, psnr, ssim

__all__ = [
    "BLOCK_BYTES",
    "CHI2_THRESHOLD",
    "CipherKey",
    "DimensionError",
    "ExperimentConfig",
    "avalanche_sweep",
    "build_diffusion_matrix",
    "chi_square",
    "decrypt",
    "encrypt",
    "error_propagation",
    "hamming_percent",
    "key_bits",
    "key_from_hex",
    "keyspace_report",
    "param_bits",
    "psnr",
    "ssim",
    "uniformity_sweep",
]

__version__ = "0.1.0"
