"""Multilayer multidimensional prediction model (paper Section III).

The paper derives (Theorem 1 and Eq. 11) a unified formula predicting a
data point from its ``n``-layer neighborhood in ``d`` dimensions::

    f(x1..xd) = sum over 0 <= k1..kd <= n, k != 0 of
                - prod_j (-1)^{k_j} C(n, k_j) * V(x1-k1, ..., xd-kd)

The classic Lorenzo predictor [Ibarria et al. 2003] is the ``n = 1``
special case.  The prediction surface interpolates polynomials of total
degree up to ``2n - 1`` exactly, which is the property the test suite
verifies against randomly drawn polynomials.

This module produces the stencil (offset/coefficient pairs) consumed by
the wavefront engine, and a whole-array "prediction from original values"
used to reproduce the paper's Table II hitting-rate analysis.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "MAX_LAYERS",
    "prediction_stencil",
    "predict_from_original",
    "layer_counts",
    "unit_coeff_signs",
]


MAX_LAYERS = 4
"""Largest supported layer count ``n``: the deepest model the layers
ablation evaluates (124 arms in 3-D).  The stencil has ``(n+1)^d - 1``
arms, so an unchecked ``n`` read from a corrupt container would size a
huge stencil."""


@lru_cache(maxsize=None)
def _stencil_cached(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    if not 1 <= n <= MAX_LAYERS:
        raise ValueError(f"layer count must be in [1, {MAX_LAYERS}], got {n}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    grids = np.meshgrid(*[np.arange(n + 1)] * d, indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=-1)
    offsets = offsets[offsets.any(axis=1)]  # drop the origin (0,...,0)
    binom = np.array([comb(n, k) for k in range(n + 1)], dtype=np.float64)
    signs = np.where(offsets % 2 == 0, 1.0, -1.0)
    coeffs = -np.prod(signs * binom[offsets], axis=1, dtype=np.float64)
    offsets.setflags(write=False)
    coeffs.setflags(write=False)
    return offsets, coeffs


def prediction_stencil(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and coefficients of the ``n``-layer, ``d``-dimensional model.

    Returns
    -------
    offsets
        ``((n+1)^d - 1, d)`` int64 array; each row is ``(k1..kd)`` meaning
        the neighbor at ``x - k`` participates in the prediction.
    coeffs
        Matching float64 coefficients from Eq. (11).  They always sum to 1
        (a constant field is predicted exactly).
    """
    return _stencil_cached(int(n), int(d))


def unit_coeff_signs(coeffs: np.ndarray) -> np.ndarray | None:
    """Sign pattern of an all-``±1`` stencil, or ``None``.

    The ``n = 1`` (Lorenzo) stencil has coefficients that are all exactly
    ``+1.0`` or ``-1.0`` in every dimension, which lets the wavefront
    kernels accumulate the prediction with pure adds/subtracts instead of
    multiply-adds.  ``c * arm`` with ``c = ±1.0`` is bitwise ``±arm``, so
    the rewrite is exact; anything else returns ``None`` and the caller
    keeps the general multiply-accumulate.
    """
    if coeffs.size and bool((np.abs(coeffs) == 1.0).all()):
        return np.where(coeffs > 0, 1, -1).astype(np.int8)
    return None


def layer_counts(n: int, d: int) -> int:
    """Number of data points used by the ``n``-layer model (paper: n(n+2)
    for d=2)."""
    return (n + 1) ** d - 1


def predict_from_original(data: np.ndarray, n: int) -> np.ndarray:
    """Predict every point from *original* (not decompressed) neighbors.

    This is the quantity behind the paper's Table II column
    ``R_PH^orig``: the idealized hitting rate when prediction could see
    exact preceding values.  Out-of-range neighbors are treated as zero,
    which degrades gracefully to the lower-dimensional / extrapolating
    forms of the same model at the array borders.

    Parameters
    ----------
    data
        d-dimensional float array.
    n
        Number of layers.

    Returns
    -------
    float64 array of predictions, same shape as ``data``.
    """
    data = np.asarray(data)
    d = data.ndim
    offsets, coeffs = prediction_stencil(n, d)
    padded = np.zeros(tuple(s + n for s in data.shape), dtype=np.float64)
    padded[tuple(slice(n, None) for _ in range(d))] = data
    pred = np.zeros(data.shape, dtype=np.float64)
    for off, c in zip(offsets, coeffs):
        src = tuple(
            slice(n - o, n - o + s) for o, s in zip(off, data.shape)
        )
        pred += c * padded[src]
    return pred
