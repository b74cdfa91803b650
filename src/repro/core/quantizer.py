"""Error-controlled quantization (paper Section IV-A).

The encoder expands ``2^m - 2`` second-phase predicted values around the
first-phase prediction by linear scaling of the error bound: interval
``i`` is centered at ``pred + (i - 2^(m-1)) * 2 * eb`` and has width
``2 * eb``, so any value landing in an interval is reconstructed with
error at most ``eb``.  Code ``0`` is reserved for unpredictable data;
code ``2^(m-1)`` is the center (prediction hit within ``eb``).

Unlike the *vector quantization* of NUMARCK/SSEM, intervals are uniform
and the bound holds point-wise by construction — the paper's "uniformity
and error-control" distinction.

All arithmetic runs in float64; reconstructed values are rounded through
the output dtype *before* the bound check, so the guarantee holds for the
values a decompressor will actually materialize (important for float32
data whose ulp can exceed ``eb``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "interval_radius",
    "num_intervals",
    "quantize",
    "reconstruct",
    "resolve_interior_dtype",
    "UNPREDICTABLE",
]

UNPREDICTABLE = 0
"""Quantization code marking unpredictable data (paper: code 0)."""


def interval_radius(interval_bits: int) -> int:
    """Half the code range: ``2^(m-1)`` for ``m`` interval bits."""
    if not 2 <= interval_bits <= 16:
        raise ValueError(
            f"interval_bits must be in [2, 16], got {interval_bits}"
        )
    return 1 << (interval_bits - 1)


def num_intervals(interval_bits: int) -> int:
    """Number of usable quantization intervals: ``2^m - 1``."""
    return (1 << interval_bits) - 1


def resolve_interior_dtype(out_dtype: np.dtype | type) -> np.dtype:
    """Storage dtype of the wavefront plane buffers for ``out_dtype`` data.

    The quantization arithmetic always runs in float64, but every value
    *stored* into a plane buffer has already been rounded through the
    output dtype (the reconstruction round-trip above, or the truncated
    unpredictable fallback).  For float32 output those values are exact
    float32 numbers, so storing them as float32 and upcasting on read
    loses nothing — the prediction sums, bound checks and quantization
    codes are bit-identical while the working set halves.  Any other
    dtype (notably the float64 ``pw_rel`` log domain) keeps float64.
    """
    dt = np.dtype(out_dtype)
    return dt if dt == np.float32 else np.dtype(np.float64)


def quantize(
    values: np.ndarray,
    preds: np.ndarray,
    eb: float,
    radius: int,
    out_dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize ``values`` against first-phase predictions ``preds``.

    Parameters
    ----------
    values
        Original values (float64).
    preds
        Predicted values (float64), same shape.
    eb
        Absolute error bound (> 0).
    radius
        ``2^(m-1)``; codes span ``[1, 2*radius - 1]`` for predictable data.
    out_dtype
        Dtype of the decompressed array; reconstructions are rounded
        through it before the bound check.

    Returns
    -------
    codes
        int64 array; ``UNPREDICTABLE`` (0) where the value missed every
        interval, else ``offset + radius``.
    recon
        float64 array of reconstructed values (already rounded through
        ``out_dtype``); meaningless where unpredictable.
    predictable
        boolean mask of predictable points.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        diff = values - preds
        qoff = np.rint(diff / (2.0 * eb))
        within = np.abs(qoff) < radius
        qoff = np.where(within, qoff, 0.0)  # avoid overflow on wild misses
        recon64 = preds + qoff * (2.0 * eb)
        recon = recon64.astype(out_dtype).astype(np.float64)
        predictable = (
            within
            & np.isfinite(values)
            & np.isfinite(recon)
            & (np.abs(values - recon) <= eb)
        )
    codes = np.where(predictable, qoff + radius, float(UNPREDICTABLE))
    return codes.astype(np.int64), recon, predictable


def reconstruct(
    preds: np.ndarray, codes: np.ndarray, eb: float, radius: int,
    out_dtype: np.dtype,
) -> np.ndarray:
    """Rebuild predictable values from codes (inverse of :func:`quantize`).

    Entries with code ``UNPREDICTABLE`` are returned as NaN; the caller
    substitutes the separately stored unpredictable reconstructions.
    """
    qoff = codes.astype(np.float64) - radius
    recon64 = preds + qoff * (2.0 * eb)
    recon = recon64.astype(out_dtype).astype(np.float64)
    return np.where(codes == UNPREDICTABLE, np.nan, recon)
