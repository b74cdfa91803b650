"""End-to-end tests of the SZ-1.4 compressor API.

The headline invariant: for every finite input and every positive bound,
``max |x - decompress(compress(x))| <= eb`` — the paper's error-control
guarantee (Metric 1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    compress,
    compress_with_stats,
    decompress,
)
from repro.core.stream import read_container


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(300,), (24, 37), (8, 10, 12)])
    def test_abs_bound_guarantee(self, dtype, shape, rng):
        data = (rng.standard_normal(shape) * 7).astype(dtype)
        eb = 0.01
        out = decompress(compress(data, mode="abs", bound=eb))
        assert out.shape == data.shape and out.dtype == data.dtype
        assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= eb

    def test_rel_bound_guarantee(self, smooth2d):
        rel = 1e-4
        out = decompress(compress(smooth2d, mode="rel", bound=rel))
        rng_ = float(smooth2d.max() - smooth2d.min())
        assert np.abs(out - smooth2d).max() <= rel * rng_

    def test_both_bounds_tighter_wins(self, smooth2d):
        # The combined pair has no mode=/bound= spelling; it is an
        # explicit ErrorBound inside a config.
        from repro.api import SZConfig
        from repro.core import ErrorBound

        rng_ = float(smooth2d.max() - smooth2d.min())
        spec = ErrorBound.from_args(abs_bound=1.0, rel_bound=1e-5)
        blob, stats = compress_with_stats(smooth2d, config=SZConfig(spec))
        assert stats.eb_abs == pytest.approx(min(1.0, 1e-5 * rng_))
        out = decompress(blob)
        assert np.abs(out - smooth2d).max() <= 1e-5 * rng_

    def test_spiky_data(self, spiky2d):
        eb = 1e-4 * float(spiky2d.max() - spiky2d.min())
        blob, stats = compress_with_stats(spiky2d, mode="abs", bound=eb)
        out = decompress(blob)
        assert np.abs(out - spiky2d).max() <= eb
        assert stats.n_unpredictable >= 0

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_layers(self, layers, smooth2d):
        blob = compress(smooth2d, mode="rel", bound=1e-3, layers=layers)
        out = decompress(blob)
        rng_ = float(smooth2d.max() - smooth2d.min())
        assert np.abs(out - smooth2d).max() <= 1e-3 * rng_

    @pytest.mark.parametrize("m", [4, 8, 12, 16])
    def test_interval_bits(self, m, smooth2d):
        blob = compress(smooth2d, mode="rel", bound=1e-3, interval_bits=m)
        out = decompress(blob)
        rng_ = float(smooth2d.max() - smooth2d.min())
        assert np.abs(out - smooth2d).max() <= 1e-3 * rng_

    def test_constant_array(self):
        data = np.full((40, 50), 3.25, dtype=np.float32)
        blob, stats = compress_with_stats(data, mode="rel", bound=1e-4)
        assert len(blob) < 120
        out = decompress(blob)
        np.testing.assert_array_equal(out, data)
        assert stats.compression_factor > 60

    def test_nan_inf_roundtrip(self):
        data = np.ones((10, 10), dtype=np.float64)
        data[3, 4] = np.nan
        data[7, 2] = np.inf
        out = decompress(compress(data, mode="abs", bound=1e-3))
        assert np.isnan(out[3, 4]) and np.isinf(out[7, 2])

    def test_1d_roundtrip(self, rng):
        data = np.cumsum(rng.standard_normal(2000)).astype(np.float32)
        eb = 1e-3 * float(data.max() - data.min())
        out = decompress(compress(data, mode="abs", bound=eb))
        assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= eb

    def test_4d_roundtrip(self, rng):
        data = rng.standard_normal((4, 5, 6, 7))
        out = decompress(compress(data, mode="abs", bound=0.01))
        assert np.abs(out - data).max() <= 0.01

    @given(
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from([1e-2, 1e-4, 1e-6]),
        st.integers(1, 2**31),
    )
    @settings(max_examples=12)
    def test_bound_property(self, dtype, rel, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(3, 20, size=rng.integers(1, 4)))
        data = (np.cumsum(rng.standard_normal(int(np.prod(shape)))) ).reshape(shape).astype(dtype)
        value_range = float(data.max() - data.min())
        if value_range == 0:
            return
        out = decompress(compress(data, mode="rel", bound=rel))
        assert (
            np.abs(out.astype(np.float64) - data.astype(np.float64)).max()
            <= rel * value_range
        )


class TestStats:
    def test_cf_bitrate_identity(self, smooth2d):
        """Paper: BR(F) * CF(F) == 32 for single precision (Eq. 5/6)."""
        _, stats = compress_with_stats(smooth2d, mode="rel", bound=1e-3)
        assert stats.bit_rate * stats.compression_factor == pytest.approx(32.0)

    def test_hit_rate_and_histogram(self, smooth2d):
        _, stats = compress_with_stats(smooth2d, mode="rel", bound=1e-3)
        assert 0.0 <= stats.hit_rate <= 1.0
        assert stats.code_histogram.sum() == smooth2d.size
        assert stats.code_histogram[0] == stats.n_unpredictable

    def test_smooth_beats_noise(self, rng, smooth2d):
        noise = rng.standard_normal(smooth2d.shape).astype(np.float32)
        _, s_smooth = compress_with_stats(smooth2d, mode="rel", bound=1e-3)
        _, s_noise = compress_with_stats(noise, mode="rel", bound=1e-3)
        assert s_smooth.compression_factor > s_noise.compression_factor

    def test_looser_bound_higher_cf(self, smooth2d):
        _, loose = compress_with_stats(smooth2d, mode="rel", bound=1e-2)
        _, tight = compress_with_stats(smooth2d, mode="rel", bound=1e-6)
        assert loose.compression_factor > tight.compression_factor

    def test_adaptive_raises_m_on_hard_data(self, rng):
        data = rng.standard_normal((64, 64)).astype(np.float32)
        _, stats = compress_with_stats(
            data, mode="rel", bound=1e-5, interval_bits=2, adaptive=True, theta=0.9
        )
        assert stats.interval_bits > 2
        assert stats.adaptive_attempts > 1


class TestValidation:
    def test_no_bound_raises(self, smooth2d):
        with pytest.raises(ValueError):
            compress(smooth2d)

    def test_nonpositive_bounds_raise(self, smooth2d):
        with pytest.raises(ValueError):
            compress(smooth2d, mode="abs", bound=0.0)
        with pytest.raises(ValueError):
            compress(smooth2d, mode="rel", bound=-1e-3)

    def test_int_dtype_raises(self):
        with pytest.raises(TypeError):
            compress(np.arange(10), mode="abs", bound=0.1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            compress(np.zeros((0, 3), dtype=np.float32), mode="abs", bound=0.1)

    def test_rel_bound_on_constant_is_handled(self):
        data = np.full(100, 5.0, dtype=np.float64)
        out = decompress(compress(data, mode="rel", bound=1e-4))
        np.testing.assert_array_equal(out, data)

    def test_garbage_blob_raises(self):
        with pytest.raises(ValueError):
            decompress(b"this is not a container at all")

    def test_truncated_blob_raises(self, smooth2d):
        blob = compress(smooth2d, mode="rel", bound=1e-3)
        with pytest.raises(ValueError):
            decompress(blob[: len(blob) // 2])

    def test_header_fields(self, smooth2d):
        blob = compress(smooth2d, mode="rel", bound=1e-3, layers=2, interval_bits=10)
        header, codec, stream, payload, _, _ = read_container(blob)
        assert header.shape == smooth2d.shape
        assert header.layers == 2
        assert header.interval_bits == 10
        assert header.dtype == np.float32
        assert header.value_range == pytest.approx(
            float(smooth2d.max() - smooth2d.min())
        )


class TestPlanCache:
    def test_lru_bounded(self):
        """The wavefront-plan cache must stay bounded (and keep the most
        recently used shapes) across many distinct tile shapes."""
        from repro.core import compressor as comp

        comp._PLAN_CACHE.clear()
        for n in range(comp._PLAN_CACHE_MAX + 20):
            comp._get_plan((4 + n, 3), 1)
            assert len(comp._PLAN_CACHE) <= comp._PLAN_CACHE_MAX
        # the most recent shape survived, the oldest was evicted
        # (cache keys carry the interior dtype since the stale-plan fix)
        f8 = np.dtype(np.float64).str
        assert ((4 + comp._PLAN_CACHE_MAX + 19, 3), 1, f8) in comp._PLAN_CACHE
        assert ((4, 3), 1, f8) not in comp._PLAN_CACHE

    def test_lru_recency(self):
        from repro.core import compressor as comp

        comp._PLAN_CACHE.clear()
        comp._get_plan((5, 5), 1)
        for n in range(comp._PLAN_CACHE_MAX - 1):
            comp._get_plan((100 + n, 2), 1)
        comp._get_plan((5, 5), 1)  # refresh: now most-recent
        comp._get_plan((999, 2), 1)  # evicts the LRU, not (5, 5)
        assert ((5, 5), 1, np.dtype(np.float64).str) in comp._PLAN_CACHE
        comp._PLAN_CACHE.clear()

    def test_cached_plan_reused(self):
        from repro.core import compressor as comp

        comp._PLAN_CACHE.clear()
        a = comp._get_plan((7, 9), 1)
        b = comp._get_plan((7, 9), 1)
        assert a is b
        comp._PLAN_CACHE.clear()
