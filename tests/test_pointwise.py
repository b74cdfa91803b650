"""Tests for the point-wise relative bound (``mode="pw_rel"``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compress, decompress


def pointwise_rel_error(original, reconstructed):
    orig = np.asarray(original, dtype=np.float64)
    recon = np.asarray(reconstructed, dtype=np.float64)
    nz = orig != 0
    out = np.zeros(orig.shape)
    out[nz] = np.abs(recon[nz] - orig[nz]) / np.abs(orig[nz])
    out[~nz] = np.where(recon[~nz] == 0, 0.0, np.inf)
    return out


class TestPointwiseBound:
    @pytest.mark.parametrize("rel", [1e-2, 1e-3, 1e-4])
    def test_bound_holds_across_decades(self, rel, rng):
        """The whole point: tiny values get tiny absolute errors."""
        data = (rng.standard_normal((60, 70)) *
                10.0 ** rng.integers(-8, 8, (60, 70)))
        blob = compress(data, mode="pw_rel", bound=rel)
        out = decompress(blob)
        assert pointwise_rel_error(data, out).max() <= rel * 1.0000001

    def test_range_based_bound_would_fail_here(self, rng):
        """Contrast with the paper's range-based mode: at the same budget a
        range-relative bound wipes out small values entirely."""
        data = np.concatenate([
            rng.uniform(1e-6, 1e-5, 500), rng.uniform(1e5, 1e6, 500)
        ])
        rel = 1e-3
        range_blob = compress(data, mode="rel", bound=rel)
        range_out = decompress(range_blob)
        pw_blob = compress(data, mode="pw_rel", bound=rel)
        pw_out = decompress(pw_blob)
        small = np.abs(data) < 1e-4
        assert pointwise_rel_error(data, pw_out)[small].max() <= rel
        assert pointwise_rel_error(data, range_out)[small].max() > rel

    def test_zeros_exact(self):
        data = np.array([0.0, 1.0, 0.0, -2.0, 0.0], dtype=np.float64)
        out = decompress(compress(data, mode="pw_rel", bound=1e-3))
        np.testing.assert_array_equal(out == 0, data == 0)
        assert pointwise_rel_error(data, out).max() <= 1e-3

    def test_signs_preserved(self, rng):
        data = rng.standard_normal(2000)
        out = decompress(compress(data, mode="pw_rel", bound=1e-2))
        np.testing.assert_array_equal(np.sign(out), np.sign(data))

    def test_2d_and_dtype(self, smooth2d):
        blob = compress(smooth2d, mode="pw_rel", bound=1e-3)
        out = decompress(blob)
        assert out.dtype == smooth2d.dtype and out.shape == smooth2d.shape

    def test_compresses(self, rng):
        data = np.exp(np.cumsum(rng.standard_normal(20000)) * 0.01)
        blob = compress(data, mode="pw_rel", bound=1e-3)
        assert len(blob) < data.nbytes / 2

    def test_validation(self, rng):
        data = rng.standard_normal(10)
        with pytest.raises(ValueError):
            compress(data, mode="pw_rel", bound=0.0)
        with pytest.raises(ValueError):
            compress(data, mode="pw_rel", bound=1.5)
        with pytest.raises(TypeError):
            compress(np.arange(5), mode="pw_rel", bound=1e-3)
        with pytest.raises(ValueError):
            decompress(b"\x00" * 32)

    @given(st.integers(1, 2**31), st.sampled_from([1e-2, 1e-4]))
    @settings(max_examples=10)
    def test_bound_property(self, seed, rel):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-6, 7)
        data = rng.standard_normal(200) * scale
        out = decompress(compress(data, mode="pw_rel", bound=rel))
        assert pointwise_rel_error(data, out).max() <= rel * 1.0000001
