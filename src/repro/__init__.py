"""repro — reproduction of SZ-1.4 (Tao, Di, Chen, Cappello, IPDPS 2017).

Error-bounded lossy compression for scientific floating-point data via
multidimensional multilayer prediction and adaptive error-controlled
quantization, with every baseline the paper evaluates against built from
scratch on shared substrates.

Quickstart
----------
>>> import numpy as np, repro
>>> data = np.sin(np.linspace(0, 20, 10000)).reshape(100, 100).astype(np.float32)
>>> blob = repro.compress(data, mode="rel", bound=1e-4)
>>> out = repro.decompress(blob)
>>> assert abs(out - data).max() <= 1e-4 * (data.max() - data.min())

Or through the canonical config/codec objects (``repro.api``):

>>> codec = repro.Codec(repro.SZConfig.from_kwargs(mode="rel", bound=1e-4))
>>> assert codec.decode(codec.encode(data)).shape == data.shape
"""

__version__ = "4.0.0"

from repro.api import Codec, SZConfig, get_codec, register_codec
from repro.chunked import (
    TiledReader,
    TiledWriter,
    compress_tiled,
    decompress_region,
    decompress_tiled,
)
from repro.core import (
    CompressionStats,
    ErrorBound,
    compress,
    compress_with_stats,
    container_info,
    decompress,
)
from repro.metrics import verify_bound
from repro.obs import Collector
from repro.tuning import autotune, estimate

__all__ = [
    "Codec",
    "Collector",
    "CompressionStats",
    "ErrorBound",
    "SZConfig",
    "TiledReader",
    "TiledWriter",
    "autotune",
    "compress",
    "compress_tiled",
    "compress_with_stats",
    "container_info",
    "decompress",
    "decompress_region",
    "decompress_tiled",
    "estimate",
    "get_codec",
    "register_codec",
    "verify_bound",
    "__version__",
]
