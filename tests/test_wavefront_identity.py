"""Differential identity harness: the wavefront kernels vs the scalar
reference.

The wavefront engine carries several layered optimizations — sheared
plane views, the ring of plane buffers, the float32 interior and
wavefront-order storage.  Each one is only admissible because it is
*bit-identical* to the paper's sequential algorithm, and this suite is the
mechanical enforcement of that contract: hypothesis drives the kernels
across dtypes × 1-4 dims × 1-3 layers × adversarial shapes (prime-length
axes, 1-wide slabs, singleton hyperplanes, NaN/Inf contamination,
spike-forced unpredictables) and asserts code-for-code and byte-for-byte
equality against :mod:`repro.core.reference`, for the one N-d kernel path
and for the public ``compress``/``decompress`` pipeline.

The wavefront order the codes are checked in comes from
:func:`strategies.wavefront_order`, never from the code under test.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given

from repro.core import compress, decompress
from repro.core.compressor import _PLAN_CACHE
from repro.core.quantizer import UNPREDICTABLE, interval_radius
from repro.core.reference import reference_compress, reference_decompress
from repro.core.unpredictable import truncate_to_bound
from repro.core.wavefront import (
    WavefrontPlan,
    wavefront_compress,
    wavefront_decompress,
)

from strategies import ADVERSARIAL_SHAPES, wavefront_arrays, wavefront_order


def _codes_to_raster(codes_wf, shape):
    out = np.zeros(int(np.prod(shape)), dtype=np.int64)
    out[wavefront_order(shape)] = codes_wf
    return out.reshape(shape)


def _assert_matches_reference(data, eb, layers, interval_bits):
    radius = interval_radius(interval_bits)
    plan = WavefrontPlan(data.shape, layers)
    ref_codes, ref_dec = reference_compress(data, eb, layers, radius)
    res = wavefront_compress(data, eb, plan, radius)
    np.testing.assert_array_equal(
        _codes_to_raster(res.codes, data.shape), ref_codes
    )
    np.testing.assert_array_equal(res.decompressed, ref_dec)
    # Unpredictable originals: the reference reports raster positions;
    # the engine stores them in wavefront order.
    order = wavefront_order(data.shape)
    miss_wf = ref_codes.reshape(-1)[order] == UNPREDICTABLE
    np.testing.assert_array_equal(
        res.unpredictable, data.reshape(-1)[order][miss_wf]
    )
    # Decompress replay must land on the reference reconstruction too.
    unpred_recon = truncate_to_bound(res.unpredictable, eb)
    out = wavefront_decompress(
        res.codes, unpred_recon, plan, eb, radius, data.dtype
    )
    np.testing.assert_array_equal(out, ref_dec)


class TestKernelIdentity:
    """Hypothesis-driven kernel equivalence with the scalar reference."""

    @given(case=wavefront_arrays())
    def test_kernel_matches_reference(self, case):
        data, eb, layers, interval_bits = case
        _assert_matches_reference(data, eb, layers, interval_bits)

    @given(case=wavefront_arrays(allow_nonfinite=False))
    def test_decompress_matches_scalar_reference(self, case):
        data, eb, layers, interval_bits = case
        radius = interval_radius(interval_bits)
        ref_codes, ref_dec = reference_compress(data, eb, layers, radius)
        unpred_raster = truncate_to_bound(
            data[ref_codes == UNPREDICTABLE], eb
        )
        ref_out = reference_decompress(
            ref_codes, unpred_raster, eb, layers, radius, data.dtype
        )
        order = wavefront_order(data.shape)
        codes_wf = ref_codes.reshape(-1)[order]
        # Wavefront order of the unpredictable values.
        miss_wf = codes_wf == UNPREDICTABLE
        uidx = np.cumsum(
            (ref_codes == UNPREDICTABLE).reshape(-1), dtype=np.int64
        ) - 1
        unpred_wf = unpred_raster[uidx[order][miss_wf]]
        plan = WavefrontPlan(data.shape, layers)
        out = wavefront_decompress(
            codes_wf, unpred_wf, plan, eb, radius, data.dtype
        )
        np.testing.assert_array_equal(out, ref_out)


class TestSpikedPlanVariants:
    """Deterministic spike-forced cases.

    Each shape is float32 with a spike every ~size/7 points, so the
    unpredictable path runs on 2-D planes and on 3-D bands alike.
    """

    SHAPES = [(24, 26), (7, 11, 5), (1, 40), (9, 1, 4)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matches_reference(self, shape):
        rng = np.random.default_rng(11)
        data = np.cumsum(
            rng.normal(0, 0.2, int(np.prod(shape)))
        ).reshape(shape).astype(np.float32)
        data.reshape(-1)[:: max(1, data.size // 7)] += 1e3
        _assert_matches_reference(data, 1e-3, 1, 8)


class TestMovingAxis:
    """Every axis a plan can imply from each plane, against the reference.

    Short trailing axes make the plan imply an earlier axis; with two or
    more axes after it, their ranges add a fixed mask to each band.
    """

    SHAPES = [
        ((9, 10), 1), ((6, 7, 8), 2), ((12, 12, 2), 1), ((6, 6, 6, 2), 2),
        ((5, 5, 2, 2), 1), ((3, 4, 2, 5), 3), ((2, 8, 5, 2, 2), 1),
        ((2, 2, 8, 5, 2), 2),
    ]

    @pytest.mark.parametrize("shape, moving", SHAPES, ids=str)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_reference(self, shape, moving, layers):
        assert WavefrontPlan(shape, layers).moving == moving
        rng = np.random.default_rng(len(shape) * 10 + layers)
        data = np.cumsum(
            rng.normal(0, 0.3, int(np.prod(shape)))
        ).reshape(shape).astype(np.float32)
        flat = data.reshape(-1)
        flat[:: max(1, flat.size // 5)] += 1e3
        flat[1], flat[-2] = np.nan, -np.inf
        _assert_matches_reference(data, 1e-3, layers, 8)


class TestPipelineIdentity:
    """Public-API blobs must not depend on which fast path executed."""

    MODES = [
        ("abs", 1e-3),
        ("rel", 1e-4),
        ("pw_rel", 1e-3),
        ("psnr", 60.0),
    ]

    @staticmethod
    def _field(dtype):
        rng = np.random.default_rng(5)
        base = np.cumsum(rng.normal(0, 0.1, 7 * 11 * 5)).reshape(7, 11, 5)
        return (np.abs(base) + 0.5).astype(dtype)  # positive: pw_rel-safe

    @pytest.mark.parametrize("mode,bound", MODES, ids=[m for m, _ in MODES])
    def test_workers_leave_whole_array_serial(self, mode, bound):
        # SZConfig.workers fans out tiles only: a whole array compresses
        # in-process to the same bytes at any worker count.
        from repro.api import SZConfig
        from repro.core.compressor import compress_array

        data = self._field(np.float32)
        cfg = SZConfig.from_kwargs(mode=mode, bound=bound)
        blob_serial, _ = compress_array(data, cfg)
        with mock.patch(
            "repro.parallel.pool.ProcessPoolExecutor",
            side_effect=AssertionError("whole-array path started a pool"),
        ):
            blob_workers, _ = compress_array(data, cfg.replace(workers=2))
        assert blob_serial == blob_workers
        np.testing.assert_array_equal(
            decompress(blob_serial), decompress(blob_workers)
        )


class TestStalePlanRegression:
    """A plan carries no dtype: float32 and float64 runs on one shape
    share the cached plan, and each run's interior follows its data."""

    def test_dtype_swap_on_one_shape_shares_one_plan(self):
        rng = np.random.default_rng(4)
        data64 = np.cumsum(rng.normal(0, 0.1, 6 * 7)).reshape(6, 7)
        _PLAN_CACHE.clear()
        blob64 = compress(data64, mode="abs", bound=1e-3)
        plan = _PLAN_CACHE[((6, 7), 1)]
        blob32 = compress(data64.astype(np.float32), mode="abs", bound=1e-3)
        assert decompress(blob32).dtype == np.float32
        assert decompress(blob64).dtype == np.float64
        # Both dtypes, compress and decompress: one key, one plan object.
        assert list(_PLAN_CACHE) == [((6, 7), 1)]
        assert _PLAN_CACHE[((6, 7), 1)] is plan
        _PLAN_CACHE.clear()

    def test_dtype_swap_outputs_stay_correct_and_fast_path_engages(self):
        rng = np.random.default_rng(3)
        data64 = np.cumsum(rng.normal(0, 0.1, 12 * 9)).reshape(12, 9)
        data32 = data64.astype(np.float32)
        _PLAN_CACHE.clear()
        blob64 = compress(data64, mode="abs", bound=1e-3)
        blob32 = compress(data32, mode="abs", bound=1e-3)
        np.testing.assert_array_equal(
            decompress(blob64), decompress(bytes(blob64))
        )
        ref_codes, ref_dec = reference_compress(
            data32, 1e-3, 1, interval_radius(8)
        )
        np.testing.assert_array_equal(decompress(blob32), ref_dec)
        _PLAN_CACHE.clear()


class TestAdversarialShapesCurated:
    """Deterministic sweep of the curated shapes (no hypothesis), so a
    failure names the exact shape in the test id."""

    @pytest.mark.parametrize("shape", ADVERSARIAL_SHAPES, ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=str)
    def test_shape_matches_reference(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        data = np.cumsum(
            rng.normal(0, 0.3, int(np.prod(shape)))
        ).reshape(shape).astype(dtype)
        _assert_matches_reference(data, 1e-3, 1, 8)
