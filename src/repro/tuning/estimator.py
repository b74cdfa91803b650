"""Sample-based compression-ratio / quality estimation.

Predicts what :func:`repro.core.compress_array` *would* produce —
compression ratio, bit rate, PSNR, max error — from a small
deterministic sample, at a small fraction of the cost.  The approach
follows the ratio-quality modeling line of work (Jin et al.,
arXiv 2111.09815; Underwood et al., arXiv 2305.08801) specialized to
this prediction-based compressor:

1. run the **real quantizer** (`wavefront_compress`, the exact
   prediction + error-controlled quantization kernel) on the sampled
   blocks, in the mode's real domain (``pw_rel`` samples are
   log-preconditioned and verify-repaired exactly like the pipeline).
   Blocks sharing a shape are assembled into one near-cubic grid and
   quantized in a **single kernel launch** — per-hyperplane dispatch
   overhead, not arithmetic, dominates quantizing many small blocks —
   and the code plane is sliced back into per-block regions afterwards
   so the across-block spread survives;
2. aggregate the per-block quantization-code histograms and derive
   optimal code lengths for the *aggregate* alphabet
   (:func:`repro.encoding.huffman.huffman_code_lengths`) — this models
   the whole-array entropy stage without encoding a single codeword,
   and avoids the small-sample bias of simply compressing tiny blocks
   (each of which would pay its own header and Huffman table);
3. measure the real byte cost of the sample's unpredictable values and
   ``pw_rel`` side channel, and add the container's fixed overhead
   (header + code-length table + section framing) analytically from
   the documented v1/v2 layout — no extra compression pass.

The predicted payload bits/value carry a 95% confidence interval from
the across-block spread.  Quality (PSNR, max error) is measured on the
sampled reconstruction — free, because the quantizer's
``result.decompressed`` is exactly what a decompressor materializes.

Estimating an *existing tiled container* as-is needs no sampling at
all: the footer index already stores every tile's compressed length
and histogram features, so :func:`estimate` returns the exact ratio
with ``method="footer"`` in O(n_tiles).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.bounds import (
    MODED_MODES,
    psnr_fallback_bound,
    psnr_to_abs_bound,
    pw_apply_repairs,
    pw_encode_side,
    pw_log_bound,
    pw_postcondition,
    pw_precondition,
)
from repro.core.quantizer import UNPREDICTABLE, interval_radius
from repro.core.unpredictable import encode_unpredictable
from repro.encoding import DEFAULT_ENTROPY_CODER
from repro.encoding.bitio import BitWriter
from repro.encoding.huffman import HuffmanCodec, huffman_code_lengths
from repro.obs.tracer import metric_add, metric_observe, span
from repro.tuning.sampler import Sample, draw_sample

__all__ = ["Estimate", "estimate"]

_STREAM_FIXED_BYTES = 16  # EncodedStream header (see encoding.huffman)
_STREAM_CHUNK_BYTES = 5  # per-chunk bit-length record in the stream header
_CONSTANT_CONTAINER_BYTES = 64  # ~size of a v1/v2 constant container


@dataclass(frozen=True)
class Estimate:
    """One ratio/quality prediction and how it was obtained.

    ``ratio`` is the predicted compression factor (original bytes /
    predicted container bytes); ``ratio_low``/``ratio_high`` bracket it
    with a 95% confidence interval from the across-block payload
    spread (equal to ``ratio`` when fewer than two blocks were
    sampled, or when ``method`` is exact).  ``method`` is ``"sampled"``
    (the quantize-and-extrapolate path), ``"footer"`` (exact, from a
    tiled container's index) or ``"constant"`` (zero-range field).
    """

    ratio: float
    ratio_low: float
    ratio_high: float
    bit_rate: float
    predicted_bytes: int
    original_bytes: int
    psnr: float | None
    max_abs_error: float | None
    max_pw_rel_error: float | None
    mode: str
    bound: float
    eb_abs: float | None
    method: str
    sample_fraction: float
    n_blocks: int
    n_values_sampled: int
    n_values_total: int
    seed: int
    seconds: float
    features: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict of every field (CLI/service serialization)."""
        def _num(x: float | None) -> float | None:
            return None if x is None else float(x)

        return {
            "ratio": float(self.ratio),
            "ratio_low": float(self.ratio_low),
            "ratio_high": float(self.ratio_high),
            "bit_rate": float(self.bit_rate),
            "predicted_bytes": int(self.predicted_bytes),
            "original_bytes": int(self.original_bytes),
            "psnr": _num(self.psnr),
            "max_abs_error": _num(self.max_abs_error),
            "max_pw_rel_error": _num(self.max_pw_rel_error),
            "mode": self.mode,
            "bound": float(self.bound),
            "eb_abs": _num(self.eb_abs),
            "method": self.method,
            "sample_fraction": float(self.sample_fraction),
            "n_blocks": int(self.n_blocks),
            "n_values_sampled": int(self.n_values_sampled),
            "n_values_total": int(self.n_values_total),
            "seed": int(self.seed),
            "seconds": float(self.seconds),
            "features": {k: float(v) for k, v in self.features.items()},
        }


@dataclass
class _BlockStats:
    """Per-block measurements feeding the extrapolation."""

    hist: np.ndarray
    payload_extra_bytes: float  # unpredictable + pw_rel side channel
    n_values: int
    sq_err: float
    max_abs_err: float
    max_pw_rel_err: float
    n_unpredictable: int


def _grid_dims(k: int, ndim: int) -> tuple[int, ...]:
    """Near-isotropic integer grid with extents multiplying to ``k``."""
    dims: list[int] = []
    remaining = k
    for axes_left in range(ndim, 1, -1):
        target = max(1, int(round(remaining ** (1.0 / axes_left))))
        d = 1
        for c in range(target, 1, -1):
            if remaining % c == 0:
                d = c
                break
        dims.append(d)
        remaining //= d
    dims.append(remaining)
    return tuple(dims)


def _plane_count(grids: list[tuple[int, ...]], shape: tuple[int, ...]) -> int:
    """Total wavefront hyperplanes the assembled grids would execute."""
    return sum(
        sum(g * s for g, s in zip(grid, shape)) - (len(shape) - 1)
        for grid in grids
    )


def _assembly_plan(
    k: int, shape: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Split ``k`` same-shape blocks into near-cubic assembly grids.

    The wavefront kernel's cost is dominated by its per-hyperplane
    dispatch, and a grid's hyperplane count is the *sum* of its extents
    — so compact (cubic) grids quantize the same values in far fewer
    launches than a pile of standalone blocks.  Two candidate plans are
    compared by hyperplane count: one exact near-isotropic
    factorization of ``k`` (poor when ``k`` is prime) and a greedy
    cube-chunking (``31 -> 3x3x3 + 2x1x2``); the cheaper wins.
    """
    ndim = len(shape)
    if k == 1:
        return [(1,) * ndim]
    single = [_grid_dims(k, ndim)]
    chunked: list[tuple[int, ...]] = []
    rem = k
    while rem > 0:
        side = 1
        while (side + 1) ** ndim <= rem:
            side += 1
        if side == 1:
            chunked.append(_grid_dims(rem, ndim))
            break
        chunked.append((side,) * ndim)
        rem -= side**ndim
    if _plane_count(single, shape) <= _plane_count(chunked, shape):
        return single
    return chunked


def _assemble(
    blocks: list[np.ndarray], grid: tuple[int, ...]
) -> tuple[np.ndarray, list[tuple[slice, ...]]]:
    """Pack same-shape blocks into one grid array; return each region."""
    shape = tuple(int(s) for s in blocks[0].shape)
    if len(blocks) == 1:
        return blocks[0], [tuple(slice(0, s) for s in shape)]
    out = np.empty(
        tuple(g * s for g, s in zip(grid, shape)), dtype=blocks[0].dtype
    )
    regions: list[tuple[slice, ...]] = []
    for flat, block in enumerate(blocks):
        coord = np.unravel_index(flat, grid)
        region = tuple(
            slice(int(c) * s, (int(c) + 1) * s)
            for c, s in zip(coord, shape)
        )
        out[region] = block
        regions.append(region)
    return out, regions


def _measure_assembled(
    block: np.ndarray,
    regions: list[tuple[slice, ...]],
    mode: str,
    bound: float,
    eb: float,
    config: Any,
) -> list[_BlockStats]:
    """One quantizer pass over an assembled grid, sliced per region.

    Values on internal grid faces are predicted from a neighboring
    block's data — the same order of boundary error a standalone block
    pays at its zero-padded faces, and bounded by ``eb`` either way
    (a missed prediction just lands in the unpredictable store).
    """
    from repro.core.wavefront import (
        WavefrontPlan,
        WavefrontResult,
        wavefront_compress,
    )

    radius = interval_radius(config.interval_bits)
    plan = WavefrontPlan(block.shape, config.layers)
    side = b""
    if mode == "pw_rel":
        logs, flags, signs = pw_precondition(block)
        result = wavefront_compress(logs, eb, plan, radius)
        assert isinstance(result, WavefrontResult)  # one array, one result
        pw_apply_repairs(block, result.decompressed, flags, signs, bound)
        side = pw_encode_side(block, flags, signs)
        recon = pw_postcondition(result.decompressed, side, block.dtype)
    else:
        result = wavefront_compress(block, eb, plan, radius)
        assert isinstance(result, WavefrontResult)
        recon = result.decompressed

    # The kernel emits codes in wavefront order; regions slice rasters.
    codes = plan.to_raster(result.codes)
    unpred_payload = encode_unpredictable(result.unpredictable, eb)
    n_unpred_total = int(result.unpredictable.size)
    a = block.astype(np.float64)
    b = recon.astype(np.float64)
    finite = np.isfinite(a) & np.isfinite(b)
    err = np.where(finite, np.abs(a - b), 0.0)

    out: list[_BlockStats] = []
    for region in regions:
        hist = np.bincount(
            codes[region].ravel(), minlength=2 * radius
        ).astype(np.int64)
        n_unpred = int(hist[UNPREDICTABLE])
        e = err[region]
        sq_err = float(np.sum(e * e, dtype=np.float64))
        max_abs = float(e.max()) if e.size else 0.0
        max_pw = 0.0
        if mode == "pw_rel":
            ar, br = a[region], b[region]
            nz = finite[region] & (ar != 0.0)
            if nz.any():
                max_pw = float(np.max(np.abs((br[nz] - ar[nz]) / ar[nz])))
        n_values = int(e.size)
        # The sample-wide unpredictable payload and side channel are
        # apportioned per block: by outlier count (the payload is a flat
        # per-value record) and by value count (the side channel is
        # pointwise) respectively.
        extra = len(unpred_payload) * (
            n_unpred / max(1, n_unpred_total)
        ) + len(side) * (n_values / max(1, int(block.size)))
        out.append(
            _BlockStats(
                hist=hist,
                payload_extra_bytes=extra,
                n_values=n_values,
                sq_err=sq_err,
                max_abs_err=max_abs,
                max_pw_rel_err=max_pw,
                n_unpredictable=n_unpred,
            )
        )
    return out


def _measure_blocks(
    blocks: list[np.ndarray], mode: str, bound: float, eb: float, config: Any
) -> list[_BlockStats]:
    """Measure every sampled block in as few kernel launches as possible.

    Blocks sharing a shape are assembled into near-cubic grids (see
    :func:`_assembly_plan`) and quantized together; odd-shaped edge
    blocks fall through as single-block grids.  The returned stats are
    in ``blocks`` order regardless of grouping.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, block in enumerate(blocks):
        groups.setdefault(tuple(int(s) for s in block.shape), []).append(i)
    stats: list[_BlockStats | None] = [None] * len(blocks)
    for shape, idxs in groups.items():
        pos = 0
        for grid in _assembly_plan(len(idxs), shape):
            take = idxs[pos : pos + int(np.prod(grid, dtype=np.int64))]
            pos += len(take)
            assembled, regions = _assemble([blocks[i] for i in take], grid)
            measured = _measure_assembled(
                assembled, regions, mode, bound, eb, config
            )
            for i, st in zip(take, measured):
                stats[i] = st
    return [s for s in stats if s is not None]


def _payload_bits(
    stats: _BlockStats, lengths: np.ndarray, entropy_coder: str
) -> float:
    """Entropy-stage + side-channel bits this block contributes."""
    if entropy_coder == DEFAULT_ENTROPY_CODER:
        code_bits = float(stats.hist @ lengths)
    else:
        # Arithmetic coding approaches the Shannon bound; charge the
        # aggregate-distribution cross-entropy instead of code lengths.
        total = float(stats.hist.sum(dtype=np.int64))
        probs = lengths  # repurposed: aggregate probabilities, see caller
        nz = stats.hist > 0
        code_bits = float(
            -(stats.hist[nz] * np.log2(probs[nz])).sum(dtype=np.float64)
        ) if total else 0.0
    return code_bits + 8.0 * stats.payload_extra_bytes


def _chunks(n: int, block_size: int) -> int:
    return -(-n // block_size)


def _fixed_overhead(
    ndim: int, lengths: np.ndarray, config: Any, mode: str
) -> int:
    """Analytic per-container fixed bytes (header + table + framing).

    Mirrors the v1/v2 layout documented in :mod:`repro.core.stream`:
    the bit-packed header is ``32 + 6*ndim`` bytes (moded containers
    add a 9-byte mode tag/param and a third framed section), each
    payload section carries a 6-byte length, and the Huffman
    code-length table costs whatever serializing a codec built from
    the aggregate sample alphabet costs — the sample's alphabet stands
    in for the full array's.  Computing this from the layout instead of
    compressing a calibration block keeps the estimate orders of
    magnitude cheaper than the compression it predicts.
    """
    header_bytes = 32 + 6 * ndim
    framing = 12  # stream + unpredictable section lengths
    if mode in MODED_MODES:
        header_bytes += 9  # mode code byte + raw float64 parameter
        framing += 6  # side-payload section length
    table_bytes = 0
    if config.entropy_coder == DEFAULT_ENTROPY_CODER:
        w = BitWriter()
        HuffmanCodec(lengths).write_table(w)
        table_bytes = len(w.getvalue())
    return header_bytes + table_bytes + framing


def _resolve_eb(mode: str, spec: Any, sample: Sample) -> float:
    """First-candidate absolute bound in the mode's working domain."""
    if mode == "pw_rel":
        return pw_log_bound(spec.pw_bound, sample.dtype)
    if mode == "psnr":
        return psnr_to_abs_bound(spec.psnr_target, sample.value_range)
    return spec.resolve(sample.value_range)


def _constant_estimate(sample: Sample, config: Any, t0: float) -> Estimate:
    """Zero-range field: the compressor's constant shortcut applies."""
    original = sample.n_values_total * sample.dtype.itemsize
    predicted = _CONSTANT_CONTAINER_BYTES
    ratio = original / predicted
    return Estimate(
        ratio=ratio, ratio_low=ratio, ratio_high=ratio,
        bit_rate=8.0 * predicted / max(1, sample.n_values_total),
        predicted_bytes=predicted, original_bytes=original,
        psnr=float("inf"), max_abs_error=0.0, max_pw_rel_error=None,
        mode=config.mode, bound=config.bound, eb_abs=None,
        method="constant", sample_fraction=sample.sampled_fraction,
        n_blocks=len(sample.blocks),
        n_values_sampled=sample.n_values_sampled,
        n_values_total=sample.n_values_total, seed=sample.seed,
        seconds=time.perf_counter() - t0,
    )


def _footer_estimate(source: Any, seed: int, t0: float) -> Estimate:
    """Exact as-is stats of a tiled container, from the footer alone."""
    from repro.chunked.format import footer_features
    from repro.chunked.streams import TiledReader

    with TiledReader(source) as reader:
        feats = footer_features(reader.entries, reader.dtype.itemsize)
        compressed = reader._src.size
        n_values = reader.header.n_values
        itemsize = reader.dtype.itemsize
        mode = reader.header.mode
        if reader.header.version >= 3:
            bound = reader.header.mode_param
        elif mode == "rel":
            bound = float(reader.header.rel_bound or 0.0)
        else:
            bound = float(reader.header.abs_bound or 0.0)
        abs_bound = reader.header.abs_bound
    original = n_values * itemsize
    ratio = original / max(1, compressed)
    n_vals = float(feats["n_values"].sum(dtype=np.int64))
    return Estimate(
        ratio=ratio, ratio_low=ratio, ratio_high=ratio,
        bit_rate=8.0 * compressed / max(1, n_values),
        predicted_bytes=int(compressed), original_bytes=int(original),
        psnr=None,
        max_abs_error=(
            float(abs_bound) if mode == "abs" and abs_bound else None
        ),
        max_pw_rel_error=bound if mode == "pw_rel" else None,
        mode=mode, bound=bound, eb_abs=abs_bound,
        method="footer", sample_fraction=0.0, n_blocks=0,
        n_values_sampled=0, n_values_total=int(n_values), seed=seed,
        seconds=time.perf_counter() - t0,
        features={
            "outlier_rate": float(
                feats["n_unpredictable"].sum(dtype=np.int64)
            ) / max(1.0, n_vals),
            "hit_rate": float(feats["hit_rate"].mean(dtype=np.float64)),
            "mode_share": float(feats["mode_share"].mean(dtype=np.float64)),
            "nonzero_bins": float(
                feats["nonzero_bins"].astype(np.float64).mean(
                    dtype=np.float64
                )
            ),
        },
    )


def _is_container_source(source: Any) -> bool:
    from repro.chunked.format import is_tiled

    if isinstance(source, (bytes, bytearray, memoryview)):
        return is_tiled(source)
    if isinstance(source, (str, np.str_)) or hasattr(source, "__fspath__"):
        try:
            with open(source, "rb") as fh:
                return fh.read(4) == b"SZRT"
        except OSError:
            return False
    return False


def estimate(
    source: Any,
    config: Any = None,
    *,
    fraction: float | None = None,
    seed: int | None = None,
    block_values: int | None = None,
) -> Estimate:
    """Predict compression ratio and quality from a deterministic sample.

    Parameters
    ----------
    source
        An array, a ``.npy`` path, a tiled-container path/bytes, or a
        v1 container (fully decoded first — it has no tile index).
    config
        The :class:`repro.api.SZConfig` to predict for.  ``None`` on a
        tiled container returns the container's **exact** as-is stats
        from the footer index (``method="footer"``, no decompression);
        ``None`` on anything else is an error.
    fraction, seed, block_values
        Sampling knobs; default to the config's ``sample_fraction`` /
        ``sample_seed`` / ``sample_block``.

    The fixed sampling seed makes estimates reproducible: identical
    inputs always produce the identical :class:`Estimate`.
    """
    t0 = time.perf_counter()
    if config is None:
        if _is_container_source(source):
            with span("estimate", method="footer"):
                est = _footer_estimate(source, seed or 0, t0)
            metric_add("estimate/calls")
            metric_observe("estimate/predicted_cf", est.ratio)
            return est
        raise ValueError(
            "estimate() needs a config= for array/.npy sources; only an "
            "existing tiled container can be estimated as-is"
        )
    fraction = config.sample_fraction if fraction is None else fraction
    seed = config.sample_seed if seed is None else seed
    block_values = (
        config.sample_block if block_values is None else block_values
    )
    spec = config.error_bound
    with span(
        "estimate", mode=spec.mode, fraction=float(fraction), seed=int(seed)
    ):
        sample = draw_sample(
            source, fraction=fraction, seed=seed, block_values=block_values
        )
        est = _estimate_sampled(sample, config, t0)
    metric_add("estimate/calls")
    metric_add("estimate/sampled_values", float(est.n_values_sampled))
    metric_observe("estimate/predicted_cf", est.ratio)
    metric_observe("estimate/seconds", est.seconds)
    return est


def _estimate_sampled(sample: Sample, config: Any, t0: float) -> Estimate:
    spec = config.error_bound
    mode = spec.mode
    if sample.value_range == 0.0 and mode != "pw_rel":
        return _constant_estimate(sample, config, t0)

    eb = _resolve_eb(mode, spec, sample)
    stats = _measure_blocks(sample.blocks, mode, spec.param, eb, config)
    if mode == "psnr":
        return _estimate_psnr(sample, config, stats, eb, t0)
    return _extrapolate(sample, config, stats, eb, t0)


_PSNR_KNIFE_EDGE_DB = 1.0
"""Borderline band around the target: the noise-model bound lands the
actual PSNR within float noise of the target *by construction*, so
whether the pipeline's verify keeps it or falls back is effectively a
coin flip the sample cannot call.  Inside this band the estimate's
confidence interval is widened to span both outcomes."""


def _estimate_psnr(
    sample: Sample,
    config: Any,
    stats: list[_BlockStats],
    eb: float,
    t0: float,
) -> Estimate:
    """psnr mode: mirror the pipeline's verify-and-fallback decision.

    The sampled PSNR under the noise-model bound decides the primary
    prediction exactly like ``_compress_psnr`` decides the real bound.
    Near the target the decision is a knife edge (see
    ``_PSNR_KNIFE_EDGE_DB``), so both candidate outcomes bound the
    reported confidence interval.
    """
    import dataclasses

    spec = config.error_bound
    target = spec.psnr_target
    sampled_psnr = _sample_psnr(stats, sample)
    fallback = psnr_fallback_bound(target, sample.value_range)
    if sampled_psnr >= target:
        primary_stats, primary_eb = stats, eb
    else:
        primary_stats = _measure_blocks(
            sample.blocks, "psnr", spec.param, fallback, config
        )
        primary_eb = fallback
    est = _extrapolate(sample, config, primary_stats, primary_eb, t0)
    if abs(sampled_psnr - target) >= _PSNR_KNIFE_EDGE_DB:
        return est
    other_stats = (
        _measure_blocks(sample.blocks, "psnr", spec.param, fallback, config)
        if primary_eb == eb
        else stats
    )
    other_eb = fallback if primary_eb == eb else eb
    other = _extrapolate(sample, config, other_stats, other_eb, t0)
    return dataclasses.replace(
        est,
        ratio_low=min(est.ratio_low, other.ratio_low),
        ratio_high=max(est.ratio_high, other.ratio_high),
        seconds=time.perf_counter() - t0,
    )


def _sample_psnr(stats: list[_BlockStats], sample: Sample) -> float:
    sq = sum(s.sq_err for s in stats)
    n = sum(s.n_values for s in stats)
    rmse = float(np.sqrt(sq / max(1, n)))
    if rmse == 0.0 or sample.value_range == 0.0:
        return float("inf")
    return float(20.0 * np.log10(sample.value_range / rmse))


def _extrapolate(
    sample: Sample,
    config: Any,
    stats: list[_BlockStats],
    eb: float,
    t0: float,
) -> Estimate:
    spec = config.error_bound
    mode = spec.mode
    agg = np.zeros(max(s.hist.size for s in stats), dtype=np.int64)
    for s in stats:
        agg[: s.hist.size] += s.hist
    if config.entropy_coder == DEFAULT_ENTROPY_CODER:
        weights = huffman_code_lengths(agg)
    else:
        weights = agg.astype(np.float64) / max(
            1.0, float(agg.sum(dtype=np.int64))
        )

    bits = np.array(
        [_payload_bits(s, weights, config.entropy_coder) for s in stats],
        dtype=np.float64,
    )
    sizes = np.array([s.n_values for s in stats], dtype=np.float64)
    bits_pv = float(bits.sum(dtype=np.float64) / sizes.sum(dtype=np.float64))
    per_block = bits / sizes
    if len(stats) > 1:
        stderr = float(per_block.std(ddof=1)) / np.sqrt(len(stats))
    else:
        stderr = 0.0
    ci = 1.96 * stderr

    # `weights` holds the aggregate code lengths on the Huffman path —
    # exactly what the analytic table-size model serializes.
    fixed = _fixed_overhead(len(sample.shape), weights, config, mode)
    n_total = sample.n_values_total
    chunk_bytes = _STREAM_FIXED_BYTES + _STREAM_CHUNK_BYTES * _chunks(
        n_total, config.block_size
    )

    def _total_bytes(bpv: float) -> int:
        return int(round(n_total * bpv / 8.0 + chunk_bytes + fixed))

    original = n_total * sample.dtype.itemsize
    predicted = _total_bytes(bits_pv)
    ratio = original / max(1, predicted)
    ratio_high = original / max(1, _total_bytes(max(0.0, bits_pv - ci)))
    ratio_low = original / max(1, _total_bytes(bits_pv + ci))

    n_sampled = int(sizes.sum(dtype=np.float64))
    outliers = sum(s.n_unpredictable for s in stats)
    psnr = _sample_psnr(stats, sample)
    return Estimate(
        ratio=ratio, ratio_low=ratio_low, ratio_high=ratio_high,
        bit_rate=8.0 * predicted / max(1, n_total),
        predicted_bytes=predicted, original_bytes=int(original),
        psnr=psnr,
        max_abs_error=max(s.max_abs_err for s in stats),
        max_pw_rel_error=(
            max(s.max_pw_rel_err for s in stats) if mode == "pw_rel" else None
        ),
        mode=mode, bound=spec.param,
        eb_abs=None if mode == "pw_rel" else eb,
        method="sampled", sample_fraction=sample.sampled_fraction,
        n_blocks=len(stats), n_values_sampled=n_sampled,
        n_values_total=n_total, seed=sample.seed,
        seconds=time.perf_counter() - t0,
        features={
            "outlier_rate": outliers / max(1, n_sampled),
            "hit_rate": 1.0 - outliers / max(1, n_sampled),
            "nonzero_bins": float((agg > 0).sum(dtype=np.int64)),
            "payload_bits_per_value": bits_pv,
            "fixed_overhead_bytes": float(fixed),
        },
    )
