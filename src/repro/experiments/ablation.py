"""Ablation studies for the design choices DESIGN.md calls out.

Not paper artifacts, but each isolates one decision of the SZ-1.4 design:

* ``layers`` — why n=1 is the default (Section III-B beyond Table II:
  the full end-to-end CF per layer count).
* ``intervals`` — the cost/benefit of the interval count (Section IV-B):
  CF and hitting rate per m at two bounds.
* ``entropy`` — what the variable-length stage buys over raw m-bit codes
  (Section IV-A's "reduced significantly after variable-length encoding"),
  plus the arithmetic-coder extension and the lossless post-pass.
* ``quantization`` — error-controlled uniform quantization vs
  NUMARCK-style vector quantization: CF *and* whether the bound held
  (the paper's central argument against [6]/[16]).
* ``tiles`` — what block-indexed tiling (the v2 container) costs and
  buys: CF loss from shorter prediction contexts and per-tile Huffman
  tables vs. the fraction of the file a small region read touches.
* ``modes`` — what each error-bound mode costs at a comparable accuracy
  request: abs/rel/pw_rel/psnr CF on fields with narrow and wide value
  distributions, with every guarantee machine-checked via
  ``metrics.verify_bound``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import NumarckLike
from repro.core import compress_with_stats, decompress
from repro.datasets import load
from repro.experiments.common import Table
from repro.metrics import max_rel_error, verify_bound

__all__ = [
    "run_layers",
    "run_intervals",
    "run_entropy",
    "run_quantization",
    "run_tiles",
    "run_modes",
    "ABLATIONS",
]


def run_layers(scale: str = "small", seed: int = 0, rel_bound: float = 1e-4) -> Table:
    table = Table(f"Ablation: prediction layers (eb_rel={rel_bound:g})")
    for dataset, variable in (("ATM", "FREQSH"), ("ATM", "PHIS"), ("Hurricane", "U")):
        data = load(dataset, scale=scale, seed=seed)[variable]
        for n in (1, 2, 3, 4):
            blob, stats = compress_with_stats(data, mode="rel", bound=rel_bound, layers=n)
            out = decompress(blob)
            assert max_rel_error(data, out) <= rel_bound
            table.add(
                panel=f"{dataset}/{variable}",
                layers=n,
                cf=round(stats.compression_factor, 2),
                hit_rate=f"{stats.hit_rate:.1%}",
            )
    table.note("n=1 should win end-to-end on most data (paper default)")
    return table


def run_intervals(scale: str = "small", seed: int = 0) -> Table:
    table = Table("Ablation: quantization interval count (2^m - 1)")
    data = load("ATM", scale=scale, seed=seed)["FREQSH"]
    for rel_bound in (1e-3, 1e-5):
        for m in (4, 6, 8, 10, 12, 14, 16):
            blob, stats = compress_with_stats(
                data, mode="rel", bound=rel_bound, interval_bits=m
            )
            table.add(
                eb_rel=f"{rel_bound:.0e}",
                m=m,
                intervals=(1 << m) - 1,
                cf=round(stats.compression_factor, 2),
                hit_rate=f"{stats.hit_rate:.1%}",
            )
    table.note(
        "smallest m with a high hitting rate maximizes CF (Sec. IV-B); "
        "oversized m wastes code bits, undersized m floods the "
        "unpredictable path"
    )
    return table


def run_entropy(scale: str = "small", seed: int = 0, rel_bound: float = 1e-4) -> Table:
    table = Table(f"Ablation: entropy stage (eb_rel={rel_bound:g})")
    data = load("ATM", scale=scale, seed=seed)["FREQSH"]
    # raw m-bit packing baseline: quantization codes stored flat
    blob_h, stats_h = compress_with_stats(data, mode="rel", bound=rel_bound)
    m = stats_h.interval_bits
    raw_bits = data.size * m  # codes at m bits each, no entropy coding
    unpred_share = stats_h.n_unpredictable / data.size
    table.add(
        stage="raw m-bit codes (no entropy coding)",
        bytes=int(raw_bits / 8),
        cf=round(data.nbytes / (raw_bits / 8), 2),
    )
    table.add(
        stage="Huffman (paper AEQVE)",
        bytes=stats_h.compressed_bytes,
        cf=round(stats_h.compression_factor, 2),
    )
    blob_a, stats_a = compress_with_stats(
        data, mode="rel", bound=rel_bound, entropy_coder="arithmetic"
    )
    table.add(
        stage="arithmetic coder (extension)",
        bytes=stats_a.compressed_bytes,
        cf=round(stats_a.compression_factor, 2),
    )
    blob_p, stats_p = compress_with_stats(
        data, mode="rel", bound=rel_bound, lossless_post=True
    )
    table.add(
        stage="Huffman + zlib post-pass",
        bytes=stats_p.compressed_bytes,
        cf=round(stats_p.compression_factor, 2),
    )
    table.note(
        f"hit rate {stats_h.hit_rate:.1%}, unpredictable share "
        f"{unpred_share:.2%}; variable-length coding is what turns the "
        "skewed code distribution (Fig. 3) into compression"
    )
    return table


def run_quantization(scale: str = "small", seed: int = 0, rel_bound: float = 1e-3) -> Table:
    table = Table(
        f"Ablation: error-controlled vs vector quantization (eb_rel={rel_bound:g})"
    )
    data = load("ATM", scale=scale, seed=seed)["FREQSH"]
    blob, stats = compress_with_stats(data, mode="rel", bound=rel_bound)
    out = decompress(blob)
    table.add(
        scheme="SZ-1.4 error-controlled (uniform intervals)",
        cf=round(stats.compression_factor, 2),
        max_rel_err=f"{max_rel_error(data, out):.2e}",
        bound_held=bool(max_rel_error(data, out) <= rel_bound),
    )
    for bits in (6, 8, 10):
        nmk = NumarckLike(bits=bits)
        nblob = nmk.compress(data)
        nout = nmk.decompress(nblob)
        err = max_rel_error(data, nout)
        table.add(
            scheme=f"NUMARCK-like vector quantization ({1 << bits} bins)",
            cf=round(data.nbytes / len(nblob), 2),
            max_rel_err=f"{err:.2e}",
            bound_held=bool(err <= rel_bound),
        )
    table.note(
        "vector quantization reaches similar CF but cannot bound the "
        "point-wise error (paper Sections I and IV-A)"
    )
    return table


def run_tiles(scale: str = "small", seed: int = 0, rel_bound: float = 1e-4) -> Table:
    from repro.chunked import (
        ByteAccountant,
        compress_tiled,
        decompress_region,
        tiled_container_info,
    )
    from repro.metrics import tile_ratio_stats

    table = Table(f"Ablation: tile size (eb_rel={rel_bound:g})")
    data = load("Hurricane", scale=scale, seed=seed)["U"]
    blob_whole, stats_whole = compress_with_stats(data, mode="rel", bound=rel_bound)
    table.add(
        tiling="whole array (v1)",
        tiles=1,
        cf=round(stats_whole.compression_factor, 2),
        cf_std="-",
        roi_read="100.0%",
    )
    # A small centered region: the random-access payoff being measured.
    roi = tuple(slice(s // 3, s // 3 + max(1, s // 6)) for s in data.shape)
    for side in (8, 16, 32):
        tile = tuple(min(side, s) for s in data.shape)
        blob = compress_tiled(data, tile_shape=tile, mode="rel", bound=rel_bound)
        info = tiled_container_info(blob)
        stats = tile_ratio_stats(
            info["tile_bytes"], info["tile_values"], data.dtype.itemsize
        )
        acc = ByteAccountant()
        region = decompress_region(blob, roi, accountant=acc)
        assert region.shape == tuple(sl.stop - sl.start for sl in roi)
        table.add(
            tiling=f"{'x'.join(str(t) for t in tile)} tiles",
            tiles=info["n_tiles"],
            cf=round(info["compression_factor"], 2),
            cf_std=round(stats["cf_std"], 2),
            roi_read=f"{acc.total_bytes / len(blob):.1%}",
        )
    table.note(
        "small tiles cut the bytes a region read touches but pay for "
        "shorter prediction contexts and per-tile Huffman tables; the "
        "per-tile CF spread (cf_std) is the signal ratio-quality "
        "models exploit"
    )
    return table


def run_modes(scale: str = "small", seed: int = 0, rel: float = 1e-3) -> Table:
    """CF across error-bound modes at a comparable accuracy request.

    ``rel`` anchors the sweep: abs gets ``rel * range``, rel gets
    ``rel``, pw_rel gets ``rel`` (now per point), and psnr gets
    ``20 log10(1/rel)`` dB — the PSNR a just-met range-relative bound
    would produce.  The wide-dynamic-range field is where the modes
    separate: a range-relative bound wipes out the small values a
    pointwise bound preserves.
    """
    table = Table(f"Ablation: error-bound modes (anchor rel={rel:g})")
    rng = np.random.default_rng(seed)
    fields = {
        "ATM/FREQSH": load("ATM", scale=scale, seed=seed)["FREQSH"],
        "wide-range": (
            rng.standard_normal((64, 64))
            * 10.0 ** rng.integers(-6, 6, (64, 64))
        ).astype(np.float32),
    }
    psnr_target = float(20.0 * np.log10(1.0 / rel))
    for panel, data in fields.items():
        value_range = float(data.max() - data.min())
        requests = (
            ("abs", rel * value_range),
            ("rel", rel),
            ("pw_rel", rel),
            ("psnr", psnr_target),
        )
        for mode, bound in requests:
            blob, stats = compress_with_stats(data, mode=mode, bound=bound)
            out = decompress(blob)
            check = verify_bound(data, out, mode, bound)
            table.add(
                panel=panel,
                mode=mode,
                bound=f"{bound:g}",
                cf=round(stats.compression_factor, 2),
                hit_rate=f"{stats.hit_rate:.1%}",
                bound_held=bool(check["ok"]),
            )
    table.note(
        "pw_rel pays for the sign/flag planes and log-domain coding but "
        "is the only mode whose guarantee survives a wide dynamic range; "
        "psnr converts a quality target into the loosest bound that "
        "meets it (verified post-hoc)"
    )
    return table


ABLATIONS = {
    "layers": run_layers,
    "intervals": run_intervals,
    "entropy": run_entropy,
    "quantization": run_quantization,
    "tiles": run_tiles,
    "modes": run_modes,
}
