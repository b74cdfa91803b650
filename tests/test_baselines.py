"""Tests for SZ-1.1, FPZIP-like, GZIP-like, ISABELA and NUMARCK baselines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    FPZIPLike,
    GzipLike,
    ISABELA,
    ISABELAFailure,
    NumarckLike,
    SZ11,
)


class TestSZ11:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bound_guarantee(self, dtype, rng):
        data = np.cumsum(rng.standard_normal(3000)).reshape(50, 60).astype(dtype)
        eb = 1e-3 * float(data.max() - data.min())
        sz = SZ11(abs_bound=eb)
        out = sz.decompress(sz.compress(data))
        assert out.shape == data.shape and out.dtype == data.dtype
        assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= eb

    def test_rel_bound(self, smooth2d):
        sz = SZ11(rel_bound=1e-3)
        out = sz.decompress(sz.compress(smooth2d))
        eb = 1e-3 * float(smooth2d.max() - smooth2d.min())
        assert np.abs(out.astype(np.float64) - smooth2d.astype(np.float64)).max() <= eb

    def test_smooth_1d_compresses_well(self, rng):
        data = np.sin(np.linspace(0, 30, 8000)).astype(np.float32)
        sz = SZ11(rel_bound=1e-3)
        blob = sz.compress(data)
        assert data.nbytes / len(blob) > 3

    def test_worse_than_sz14_on_2d(self, smooth2d):
        """The headline claim (Fig. 6): multidimensional prediction beats
        1-D curve fitting on 2-D data."""
        from repro.core import compress as sz14_compress

        sz11_blob = SZ11(rel_bound=1e-4).compress(smooth2d)
        sz14_blob = sz14_compress(smooth2d, mode="rel", bound=1e-4)
        assert len(sz14_blob) < len(sz11_blob)

    def test_nan_handled(self):
        data = np.ones((10, 10))
        data[4, 4] = np.nan
        sz = SZ11(abs_bound=1e-3)
        out = sz.decompress(sz.compress(data))
        assert np.isnan(out[4, 4])

    def test_no_bound_raises(self, smooth2d):
        with pytest.raises(ValueError):
            SZ11().compress(smooth2d)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            SZ11(abs_bound=1).decompress(b"\x00" * 32)

    @given(st.integers(1, 2**31))
    @settings(max_examples=8)
    def test_bound_property(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(400) * 10
        eb = 0.05
        sz = SZ11(abs_bound=eb)
        out = sz.decompress(sz.compress(data))
        assert np.abs(out - data).max() <= eb


class TestFPZIP:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(500,), (30, 40), (8, 9, 10)])
    def test_lossless(self, dtype, shape, rng):
        data = rng.standard_normal(shape).astype(dtype)
        f = FPZIPLike()
        out = f.decompress(f.compress(data))
        assert out.dtype == data.dtype
        np.testing.assert_array_equal(out, data)

    def test_special_values_lossless(self):
        data = np.array(
            [[0.0, -0.0, np.inf], [-np.inf, np.nan, 1e-300]], dtype=np.float64
        )
        f = FPZIPLike()
        out = f.decompress(f.compress(data))
        np.testing.assert_array_equal(
            out.view(np.uint64), data.view(np.uint64)
        )

    def test_smooth_data_compresses(self, smooth2d):
        f = FPZIPLike()
        blob = f.compress(smooth2d)
        assert len(blob) < smooth2d.nbytes

    def test_precision_mode_is_lossy_but_close(self, smooth2d):
        f = FPZIPLike(precision=12)
        out = f.decompress(f.compress(smooth2d))
        assert not np.array_equal(out, smooth2d)
        assert np.abs(out - smooth2d).max() < 0.05 * float(np.abs(smooth2d).max())

    def test_precision_mode_smaller(self, smooth2d):
        lossless = len(FPZIPLike().compress(smooth2d))
        lossy = len(FPZIPLike(precision=10).compress(smooth2d))
        assert lossy < lossless

    @given(st.integers(1, 2**31))
    @settings(max_examples=10)
    def test_lossless_property(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(2, 15, size=rng.integers(1, 4)))
        data = (rng.standard_normal(shape) * 10.0 ** rng.integers(-10, 10)).astype(
            np.float32 if seed % 2 else np.float64
        )
        f = FPZIPLike()
        out = f.decompress(f.compress(data))
        np.testing.assert_array_equal(out, data)


class TestGzipLike:
    def test_lossless(self, smooth2d):
        g = GzipLike()
        out = g.decompress(g.compress(smooth2d))
        np.testing.assert_array_equal(out, smooth2d)
        assert out.dtype == smooth2d.dtype

    def test_low_cf_on_float_data(self, rng):
        """Paper: GZIP achieves only ~1.1-1.3 on scientific float data."""
        data = (np.cumsum(rng.standard_normal(20000)) * 0.1).astype(np.float32)
        g = GzipLike()
        cf = data.nbytes / len(g.compress(data))
        assert 0.9 < cf < 3.0

    def test_high_cf_on_constant(self):
        data = np.zeros((100, 100), dtype=np.float32)
        g = GzipLike()
        assert data.nbytes / len(g.compress(data)) > 50

    def test_f64(self, rng):
        data = rng.standard_normal((20, 20))
        g = GzipLike()
        np.testing.assert_array_equal(g.decompress(g.compress(data)), data)

    @pytest.mark.parametrize("shape", [(0,), (1,), (4, 0, 3)])
    def test_empty_and_single_element(self, shape):
        """A zero-byte payload inflates to exactly zero bytes."""
        data = np.full(shape, 1.5, dtype=np.float32)
        g = GzipLike()
        out = g.decompress(g.compress(data))
        assert out.shape == shape and out.dtype == np.float32
        np.testing.assert_array_equal(out, data)

    @given(
        st.sampled_from([np.float32, np.float64]),
        st.lists(st.integers(0, 4), min_size=1, max_size=3),
        st.data(),
    )
    def test_roundtrip_property(self, dtype, shape, data):
        """Every bit pattern (NaN payloads, infinities, signed zeros)
        comes back bit for bit."""
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        raw = data.draw(st.binary(min_size=nbytes, max_size=nbytes))
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        g = GzipLike()
        out = g.decompress(g.compress(arr))
        assert out.shape == arr.shape and out.dtype == arr.dtype
        assert out.tobytes() == raw

    def test_every_prefix_raises_value_error(self, smooth2d):
        g = GzipLike()
        blob = g.compress(smooth2d[:8, :8])
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                g.decompress(blob[:cut])

    def test_bad_dtype_code_raises_value_error(self, smooth2d):
        g = GzipLike()
        blob = bytearray(g.compress(smooth2d[:8, :8]))
        blob[0] = 7
        with pytest.raises(ValueError, match="dtype code"):
            g.decompress(bytes(blob))

    def test_bit_flips_never_decode_silently(self, smooth2d):
        """The framing fixes the inflated length and zlib's Adler-32
        covers the payload, so every flip is caught."""
        g = GzipLike()
        blob = g.compress(smooth2d[:8, :8])
        flip_rng = np.random.default_rng(7)
        for _ in range(100):
            corrupt = bytearray(blob)
            for bit in flip_rng.choice(8 * len(blob), 2, replace=False):
                corrupt[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ValueError):
                g.decompress(bytes(corrupt))


class TestISABELA:
    def test_bound_guarantee(self, rng):
        data = np.cumsum(rng.standard_normal(5000)).astype(np.float64)
        eb = 1e-3 * float(data.max() - data.min())
        isa = ISABELA(abs_bound=eb)
        out = isa.decompress(isa.compress(data))
        assert np.abs(out - data).max() <= eb

    def test_2d_window_linearization(self, smooth2d):
        isa = ISABELA(rel_bound=1e-3)
        out = isa.decompress(isa.compress(smooth2d))
        eb = 1e-3 * float(smooth2d.max() - smooth2d.min())
        assert out.shape == smooth2d.shape
        assert np.abs(out.astype(np.float64) - smooth2d.astype(np.float64)).max() <= eb

    def test_partial_tail_window(self, rng):
        data = np.cumsum(rng.standard_normal(1024 + 300))
        isa = ISABELA(abs_bound=0.5)
        out = isa.decompress(isa.compress(data))
        assert np.abs(out - data).max() <= 0.5

    def test_fails_at_tight_bounds_on_rough_data(self, rng):
        """The paper plots ISABELA 'only until it fails'."""
        data = rng.standard_normal(8192).astype(np.float32)
        isa = ISABELA(rel_bound=1e-7)
        with pytest.raises(ISABELAFailure):
            isa.compress(data)

    def test_cf_capped_by_permutation_index(self, rng):
        """log2(window) bits/value of index => CF well under 32/10."""
        data = np.sin(np.linspace(0, 10, 16384)).astype(np.float32)
        isa = ISABELA(rel_bound=1e-3)
        cf = data.nbytes / len(isa.compress(data))
        assert cf < 3.5

    def test_window_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ISABELA(abs_bound=0.1, window=1000)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ISABELA(abs_bound=0.1).compress(np.array([1.0, np.nan]))

    def test_small_input(self, rng):
        data = rng.standard_normal(37)
        isa = ISABELA(abs_bound=0.5)
        out = isa.decompress(isa.compress(data))
        assert np.abs(out - data).max() <= 0.5


class TestBSplineBasis:
    def test_partition_of_unity(self):
        from repro.baselines.isabela import bspline_basis

        x = np.linspace(0, 1, 200)
        basis = bspline_basis(x, 12)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_scipy(self):
        from scipy.interpolate import BSpline

        from repro.baselines.isabela import bspline_basis

        n_coeffs, degree = 10, 3
        n_knots = n_coeffs + degree + 1
        interior = n_knots - 2 * (degree + 1)
        knots = np.concatenate(
            [np.zeros(degree + 1), np.linspace(0, 1, interior + 2)[1:-1],
             np.ones(degree + 1)]
        )
        x = np.linspace(0, 1 - 1e-9, 50)
        ours = bspline_basis(x, n_coeffs)
        for j in range(n_coeffs):
            c = np.zeros(n_coeffs)
            c[j] = 1.0
            ref = BSpline(knots, c, degree)(x)
            np.testing.assert_allclose(ours[:, j], ref, atol=1e-10)

    def test_too_few_coeffs_raises(self):
        from repro.baselines.isabela import bspline_basis

        with pytest.raises(ValueError):
            bspline_basis(np.linspace(0, 1, 10), 3)


class TestNumarck:
    def test_roundtrip_shape_dtype(self, smooth2d):
        nmk = NumarckLike(bits=8)
        out = nmk.decompress(nmk.compress(smooth2d))
        assert out.shape == smooth2d.shape and out.dtype == smooth2d.dtype

    def test_error_not_bounded(self, rng):
        """The paper's core criticism of vector quantization: outliers in
        wide tail bins can exceed any requested bound."""
        data = rng.standard_normal(10000)
        data[::100] *= 1000  # heavy tail
        nmk = NumarckLike(bits=4)
        out = nmk.decompress(nmk.compress(data))
        err = np.abs(out - data)
        assert err.max() > 1.0  # far beyond typical bin width

    def test_delta_mode_with_previous_snapshot(self, rng):
        prev = np.cumsum(rng.standard_normal(5000))
        nxt = prev + 0.01 * rng.standard_normal(5000)
        nmk = NumarckLike(bits=8)
        blob = nmk.compress(nxt, previous=prev)
        out = nmk.decompress(blob, previous=prev)
        # deltas are near-Gaussian: 256 bins quantize them tightly
        assert np.abs(out - nxt).max() < 0.05

    def test_cf_close_to_word_over_bits(self, rng):
        data = rng.standard_normal(8192).astype(np.float32)
        nmk = NumarckLike(bits=8)
        cf = data.nbytes / len(nmk.compress(data))
        assert 2.5 < cf <= 4.2  # ~32/8 minus codebook overhead

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            NumarckLike(bits=1)

    def test_shape_mismatch(self, rng):
        nmk = NumarckLike()
        with pytest.raises(ValueError):
            nmk.compress(rng.standard_normal(10), previous=rng.standard_normal(9))
