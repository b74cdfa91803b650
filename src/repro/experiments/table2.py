"""Table II: prediction hitting rate per layer, original vs decompressed.

The paper's pivotal observation: predicting from *original* values favors
2 layers (R_PH 37.5% on ATM), but compression must predict from
*preceding decompressed* values, whose in-loop error feedback punishes
larger stencils (bigger coefficient mass amplifies the noise) — 1 layer
wins (19.2% vs 6.5%).  Hence the compressor's default n=1.

"Hitting" here is the paper's definition: ``|x - f(x)| <= eb`` — the
center interval only, not the full quantization range.
"""

from __future__ import annotations

import numpy as np

from repro.core.predictor import predict_from_original
from repro.core.wavefront import WavefrontPlan, wavefront_compress
from repro.datasets import load
from repro.experiments.common import Table

__all__ = ["run"]


def hitting_rate_original(data: np.ndarray, n: int, eb: float) -> float:
    pred = predict_from_original(data, n)
    hits = np.abs(data.astype(np.float64) - pred) <= eb
    return float(hits.mean())


def hitting_rate_decompressed(data: np.ndarray, n: int, eb: float) -> float:
    # radius=1 keeps only the center interval: a "hit" means the
    # prediction itself lands within eb, exactly the paper's definition.
    plan = WavefrontPlan(data.shape, n)
    result = wavefront_compress(data, eb, plan, radius=1, keep_recon=False)
    return result.hit_rate


# The interesting regime sits where the 1-layer truncation error
# straddles eb; it tightens as the grid gets finer (smoother at grid
# scale), so the default bound tracks the scale.
_DEFAULT_BOUNDS = {"tiny": 1e-3, "small": 3e-5, "paper": 1e-5}


def run(scale: str = "small", rel_bound: float | None = None, seed: int = 0) -> Table:
    # PHIS-like: smooth at grid scale, the regime of the paper's
    # oversampled 1800x3600 ATM fields where the inversion shows.
    if rel_bound is None:
        rel_bound = _DEFAULT_BOUNDS.get(scale, 3e-5)
    data = load("ATM", scale=scale, seed=seed)["PHIS"]
    eb = rel_bound * float(data.max() - data.min())
    table = Table(
        "Table II: prediction hitting rate by layer (ATM-like PHIS, "
        f"eb_rel={rel_bound:g})"
    )
    for n in (1, 2, 3, 4):
        table.add(
            layer=f"{n}-Layer",
            R_PH_orig=f"{100 * hitting_rate_original(data, n, eb):.1f}%",
            R_PH_decomp=f"{100 * hitting_rate_decompressed(data, n, eb):.1f}%",
        )
    table.note(
        "paper (ATM): orig 21.5/37.5/25.8/14.5%, decomp 19.2/6.5/9.8/5.9% — "
        "expect orig to peak at n>=2 while decomp peaks at n=1"
    )
    return table
