"""GZIP-like lossless baseline: stdlib ``zlib`` over the raw array bytes.

The paper uses GZIP [8] as the lossless strawman (CF ~1.1-1.3 on float
data).  This wrapper adds array framing (dtype code, ndim, 6-byte
extents) around a zlib stream at gzip's default level.  Decoding treats
the blob as untrusted: the framing is validated and the stream must
inflate to exactly the byte count the shape implies.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from repro.core.lossless_post import ZLIB_LEVEL, inflate_exact

__all__ = ["GzipLike"]

_DTYPES = {0: np.float32, 1: np.float64}
_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class GzipLike:
    """Lossless byte-stream compressor (DEFLATE via stdlib ``zlib``)."""

    name = "GZIP-like"

    def compress(self, data: np.ndarray) -> bytes:
        data = np.ascontiguousarray(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"only float32/float64 supported, got {data.dtype}")
        head = bytearray()
        head.append(_CODES[data.dtype])
        head.append(data.ndim)
        for s in data.shape:
            head += int(s).to_bytes(6, "big")
        return bytes(head) + zlib.compress(data.tobytes(), ZLIB_LEVEL)

    def decompress(self, blob: bytes) -> np.ndarray:
        if len(blob) < 2:
            raise ValueError("GZIP-like blob shorter than its 2-byte header")
        if blob[0] not in _DTYPES:
            raise ValueError(f"GZIP-like blob has unknown dtype code {blob[0]}")
        dtype = np.dtype(_DTYPES[blob[0]])
        ndim = blob[1]
        body = 2 + 6 * ndim
        if len(blob) < body:
            raise ValueError(
                f"GZIP-like blob truncated: {ndim} extents need {body} header bytes"
            )
        shape = tuple(
            int.from_bytes(blob[2 + 6 * i : 8 + 6 * i], "big")
            for i in range(ndim)
        )
        raw = inflate_exact(blob[body:], math.prod(shape) * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
