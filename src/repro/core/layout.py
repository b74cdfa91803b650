"""Effective-dimensionality selection.

The multilayer stencil (Eq. 11) is symmetric under axis permutation —
transposing the array provably cannot change the hitting rate — so the
layout decision that *does* matter for this codec is how many dimensions
to predict across.  When leading-axis slices are mutually uncorrelated
(ensemble members, detector frames, far-apart snapshots), the
d-dimensional stencil reaches across slice boundaries and only adds
noise: its residual on independent slices is ~sqrt(2) times the
per-slice residual.  Treating the leading axis as a batch and
compressing each slice independently wins there, and also parallelizes
(paper §VI: independent pieces, no communication).

``suggest_batching`` measures both in-loop hitting rates on a subsample;
``compress_sliced`` / ``decompress_sliced`` wrap the per-slice mode in a
small envelope::

    'SZSL' | slice count (4) | per-slice container length (6) x count |
    containers
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import finite_range
from repro.core.compressor import compress as _compress
from repro.core.compressor import decompress as _decompress
from repro.core.wavefront import WavefrontPlan, wavefront_compress

__all__ = ["suggest_batching", "compress_sliced", "decompress_sliced"]

_MAGIC = b"SZSL"


def _subsample(data: np.ndarray, limit: int) -> np.ndarray:
    if data.size <= limit:
        return data
    step = max(1, int(np.ceil((data.size / limit) ** (1.0 / data.ndim))))
    # never subsample the leading (batch-candidate) axis away entirely
    slices = [slice(None)] + [slice(None, None, step)] * (data.ndim - 1)
    return data[tuple(slices)]


def suggest_batching(
    data: np.ndarray,
    eb: float,
    layers: int = 1,
    sample_limit: int = 32768,
) -> bool:
    """True when per-slice compression out-predicts the full-d stencil.

    Compares the d-dimensional model against the (d-1)-dimensional model
    applied per leading-axis slice on a subsample.  The comparison uses
    the *center-interval* hitting rate (radius 1, as in the paper's
    Table II methodology): with the full 2^m-1 intervals both variants
    saturate near 100 % and the residual-width difference — which is
    what actually costs bits — would be invisible.
    """
    data = np.asarray(data)
    if data.ndim < 2 or data.shape[0] < 2:
        return False
    if eb <= 0:
        raise ValueError("error bound must be positive")
    sample = _subsample(data, sample_limit)
    plan_full = WavefrontPlan(sample.shape, layers)
    full = wavefront_compress(sample, eb, plan_full, radius=1).hit_rate
    plan_slice = WavefrontPlan(sample.shape[1:], layers)
    rates = [
        wavefront_compress(
            np.ascontiguousarray(sample[i]), eb, plan_slice, radius=1
        ).hit_rate
        for i in range(sample.shape[0])
    ]
    return float(np.mean(rates)) > full + 1e-12


def compress_sliced(
    data: np.ndarray,
    abs_bound: float | None = None,
    rel_bound: float | None = None,
    **sz_kwargs,
) -> bytes:
    """Compress each leading-axis slice as an independent container.

    A relative bound is resolved against the *global* value range first
    so every slice honors the same absolute bound (matching what the
    full-array call would guarantee).
    """
    data = np.asarray(data)
    if data.ndim < 2:
        raise ValueError("slicing needs at least 2 dimensions")
    if rel_bound is not None:
        eb_from_rel = rel_bound * finite_range(data)
        abs_bound = (
            min(abs_bound, eb_from_rel) if abs_bound is not None else eb_from_rel
        )
    if abs_bound is None or abs_bound <= 0:
        raise ValueError("resolved bound must be positive")
    blobs = [
        _compress(np.ascontiguousarray(data[i]), mode="abs", bound=abs_bound, **sz_kwargs)
        for i in range(data.shape[0])
    ]
    out = bytearray(_MAGIC)
    out += len(blobs).to_bytes(4, "big")
    for blob in blobs:
        out += len(blob).to_bytes(6, "big")
    for blob in blobs:
        out += blob
    return bytes(out)


def decompress_sliced(blob: bytes) -> np.ndarray:
    """Inverse of :func:`compress_sliced`."""
    if blob[:4] != _MAGIC:
        raise ValueError("not a sliced container")
    count = int.from_bytes(blob[4:8], "big")
    if len(blob) < 8 + 6 * count:
        raise ValueError("truncated sliced container")
    pos = 8
    lengths = []
    for _ in range(count):
        lengths.append(int.from_bytes(blob[pos : pos + 6], "big"))
        pos += 6
    slices = []
    for length in lengths:
        if pos + length > len(blob):
            raise ValueError("truncated sliced container")
        slices.append(_decompress(bytes(blob[pos : pos + length])))
        pos += length
    return np.stack(slices)
