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
(alone and as batches of same-shape members with their own bounds) and
for the public ``compress``/``decompress`` pipeline.  Every kernel call
also runs without its reconstruction (``keep_recon=False``, the
compressor's ``abs``/``rel`` path), which must store the same codes and
unpredictable values, byte for byte.

The wavefront order the codes are checked in comes from
:func:`strategies.wavefront_order`, never from the code under test.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import compress, decompress
from repro.core.quantizer import UNPREDICTABLE, interval_radius
from repro.core.reference import reference_compress, reference_decompress
from repro.core.unpredictable import truncate_to_bound
from repro.core.wavefront import (
    WavefrontPlan,
    wavefront_compress,
    wavefront_decompress,
)

from strategies import (
    ADVERSARIAL_SHAPES,
    error_bounds,
    wavefront_arrays,
    wavefront_order,
)


def _codes_to_raster(codes_wf, shape):
    out = np.zeros(int(np.prod(shape)), dtype=np.int64)
    out[wavefront_order(shape)] = codes_wf
    return out.reshape(shape)


def _kernel(data, eb, plan, radius):
    """The kernel's result(s), after checking that a run without the
    reconstruction stores the same codes and unpredictable values."""
    kept = wavefront_compress(data, eb, plan, radius)
    bare = wavefront_compress(data, eb, plan, radius, keep_recon=False)
    pairs = zip(kept, bare) if isinstance(kept, list) else [(kept, bare)]
    for k, b in pairs:
        for x, y in ((k.codes, b.codes), (k.unpredictable, b.unpredictable)):
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()
        assert k.hit_rate == b.hit_rate
        with pytest.raises(RuntimeError, match="keep_recon=False"):
            b.decompressed
    return kept


def _assert_matches_reference(data, eb, layers, interval_bits):
    radius = interval_radius(interval_bits)
    plan = WavefrontPlan(data.shape, layers)
    res = _kernel(data, eb, plan, radius)
    _assert_result_matches_reference(res, data, eb, plan, radius)


def _assert_result_matches_reference(res, data, eb, plan, radius):
    ref_codes, ref_dec = reference_compress(data, eb, plan.n, radius)
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


@st.composite
def wavefront_batches(draw):
    """A same-shape stack of 1, 2 or 5 members with one bound each.

    The first member is a :func:`strategies.wavefront_arrays` draw
    (spikes, NaN/Inf); the others are a spiked field with a NaN, a smooth
    field and an all-zero field (no misses), in turn.
    """
    data, eb, layers, interval_bits = draw(wavefront_arrays())
    size = draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    members = [data]
    for k in range(1, size):
        member = np.cumsum(rng.normal(0.0, 0.25, data.size))
        if k % 3 == 1 and data.size > 2:
            member[rng.integers(0, data.size, max(1, data.size // 8))] += 1e4
            member[rng.integers(0, data.size)] = np.nan
        elif k % 3 == 0:
            member[:] = 0.0
        members.append(member.reshape(data.shape).astype(data.dtype))
    bounds = [eb] + [draw(error_bounds()) for _ in range(size - 1)]
    return np.stack(members), bounds, layers, interval_bits


class TestBatchIdentity:
    """A batch runs its members in lockstep through one kernel pass; each
    member must still match the scalar reference as if it ran alone."""

    @staticmethod
    def _assert_members(stack, bounds, layers, interval_bits):
        radius = interval_radius(interval_bits)
        plan = WavefrontPlan(stack.shape[1:], layers)
        eb = bounds[0] if len(set(bounds)) == 1 else np.array(bounds)
        results = _kernel(stack, eb, plan, radius)
        assert len(results) == len(stack)
        for member, bound, res in zip(stack, bounds, results):
            _assert_result_matches_reference(res, member, bound, plan, radius)

    @given(case=wavefront_batches())
    def test_members_match_reference(self, case):
        self._assert_members(*case)

    @pytest.mark.parametrize("shape", [(24, 26), (7, 11, 5), (3, 4, 2, 5)],
                             ids=str)
    @pytest.mark.parametrize("bounds", [[1e-3] * 3, [1e-3, 1e-1, 1e-5]],
                             ids=["shared", "per-member"])
    def test_spiked_members(self, shape, bounds):
        rng = np.random.default_rng(5)
        stack = np.cumsum(
            rng.normal(0, 0.2, (3, int(np.prod(shape)))), axis=1
        ).astype(np.float32)
        stack[0, :: max(1, stack.shape[1] // 7)] += 1e3
        stack[2, 1] = np.inf
        self._assert_members(stack.reshape(3, *shape), bounds, 1, 8)

    @pytest.mark.parametrize("shape", [(24, 26), (7, 11, 5)], ids=str)
    def test_spike_at_the_rounded_bound(self, shape):
        # Each member holds an unpredictable value equal to its own bound
        # rounded to float32, which float32 rounds up for these bounds:
        # it must reconstruct as the decoder's 0.0 under per-member
        # bounds too, or every later prediction drifts.
        bounds = [1e-3, 2e-3]
        rng = np.random.default_rng(9)
        stack = 100.0 + np.cumsum(
            rng.normal(0, 0.2, (2, int(np.prod(shape)))), axis=1
        ).astype(np.float32)
        for member, bound in zip(stack, bounds):
            member[:: max(1, member.size // 5)] = np.float32(bound)
            member[1::max(1, member.size // 5)] = -np.float32(bound)
        self._assert_members(stack.reshape(2, *shape), bounds, 1, 8)

    @pytest.mark.parametrize("shape", [(9, 7), (4, 5, 6)], ids=str)
    def test_one_member_with_a_bound_array(self, shape):
        data = _spiked(shape)
        plan = WavefrontPlan(shape, 1)
        radius = interval_radius(8)
        (stacked,) = _kernel(data[None], np.array([1e-3]), plan, radius)
        _assert_result_matches_reference(stacked, data, 1e-3, plan, radius)
        alone = _kernel(data, np.array([1e-3]), plan, radius)
        _assert_result_matches_reference(alone, data, 1e-3, plan, radius)


def _spiked(shape):
    """A float32 random walk with a spike every ~size/7 points."""
    rng = np.random.default_rng(11)
    data = np.cumsum(
        rng.normal(0, 0.2, int(np.prod(shape)))
    ).reshape(shape).astype(np.float32)
    data.reshape(-1)[:: max(1, data.size // 7)] += 1e3
    return data


class TestSpikedPlanVariants:
    """Deterministic spike-forced cases.

    Each shape is float32 with a spike every ~size/7 points, so the
    unpredictable path runs on 2-D planes and on 3-D bands alike.
    """

    SHAPES = [(24, 26), (7, 11, 5), (1, 40), (9, 1, 4)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matches_reference(self, shape):
        _assert_matches_reference(_spiked(shape), 1e-3, 1, 8)


class TestWithoutReconstruction:
    """A kernel run with ``keep_recon=False`` has no ``decompressed``;
    asking for it names the flag instead of failing in a scatter."""

    @pytest.mark.parametrize("shape", [(40,), (9, 7), (4, 5, 6)], ids=str)
    def test_decompressed_raises(self, shape):
        plan = WavefrontPlan(shape, 1)
        res = wavefront_compress(_spiked(shape), 1e-3, plan,
                                 interval_radius(8), keep_recon=False)
        assert res.codes.size == int(np.prod(shape))
        with pytest.raises(RuntimeError, match="keep_recon=False"):
            res.decompressed


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
    each keep an interior that follows their data."""

    def test_dtype_swap_outputs_stay_correct_and_fast_path_engages(self):
        rng = np.random.default_rng(3)
        data64 = np.cumsum(rng.normal(0, 0.1, 12 * 9)).reshape(12, 9)
        data32 = data64.astype(np.float32)
        blob64 = compress(data64, mode="abs", bound=1e-3)
        blob32 = compress(data32, mode="abs", bound=1e-3)
        np.testing.assert_array_equal(
            decompress(blob64), decompress(bytes(blob64))
        )
        ref_codes, ref_dec = reference_compress(
            data32, 1e-3, 1, interval_radius(8)
        )
        np.testing.assert_array_equal(decompress(blob32), ref_dec)


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
