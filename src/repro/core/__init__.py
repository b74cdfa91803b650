"""SZ-1.4 core: the paper's contribution.

Multilayer multidimensional prediction (Section III), adaptive
error-controlled quantization and variable-length encoding (AEQVE,
Section IV), and the container format tying them together.
"""

from repro.core.bounds import MODES, ErrorBound
from repro.core.compressor import (
    CompressionStats,
    compress,
    compress_with_stats,
    container_info,
    decompress,
)
from repro.core.predictor import prediction_stencil, predict_from_original

__all__ = [
    "CompressionStats",
    "ErrorBound",
    "MODES",
    "compress",
    "compress_with_stats",
    "container_info",
    "decompress",
    "prediction_stencil",
    "predict_from_original",
]
