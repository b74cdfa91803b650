"""Tests for binary-representation analysis of unpredictable values."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.unpredictable import (
    decode_unpredictable,
    encode_unpredictable,
    truncate_to_bound,
)


def roundtrip(values, eb):
    """The payload, the kernel's inline reconstruction and the decode."""
    payload = encode_unpredictable(values, eb)
    out = decode_unpredictable(payload, values.size, eb, values.dtype)
    return payload, truncate_to_bound(values, eb), out


class TestTruncateToBound:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bound_respected(self, dtype, rng):
        values = (rng.standard_normal(2000) * 10.0 ** rng.integers(-6, 7, 2000)).astype(dtype)
        eb = 1e-3
        out = truncate_to_bound(values, eb)
        assert np.abs(out.astype(np.float64) - values.astype(np.float64)).max() <= eb

    def test_small_values_become_zero(self):
        values = np.array([1e-8, -1e-8, 0.0], dtype=np.float64)
        out = truncate_to_bound(values, 1e-3)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])

    def test_nan_inf_passthrough(self):
        values = np.array([np.nan, np.inf, -np.inf], dtype=np.float64)
        out = truncate_to_bound(values, 1e-3)
        assert np.isnan(out[0]) and out[1] == np.inf and out[2] == -np.inf

    def test_sign_preserved(self):
        values = np.array([-123.456, 123.456], dtype=np.float64)
        out = truncate_to_bound(values, 1e-6)
        assert out[0] < 0 < out[1]

    def test_tiny_bound_keeps_full_mantissa(self):
        values = np.array([np.pi], dtype=np.float64)
        out = truncate_to_bound(values, 1e-300)
        assert out[0] == values[0]

    def test_subnormal_values(self):
        values = np.array([5e-324, 1e-310], dtype=np.float64)
        eb = 1e-320
        out = truncate_to_bound(values, eb)
        assert np.abs(out - values).max() <= eb

    def test_nonpositive_bound_raises(self):
        with pytest.raises(ValueError):
            truncate_to_bound(np.array([1.0]), 0.0)

    def test_unsupported_dtype_raises(self):
        with pytest.raises((ValueError, TypeError)):
            truncate_to_bound(np.array([1], dtype=np.int32), 0.1)


class TestEncodeDecode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decode_equals_inline_recon(self, dtype, rng):
        values = (rng.standard_normal(500) * 100).astype(dtype)
        payload, recon, out = roundtrip(values, 1e-2)
        np.testing.assert_array_equal(out, recon)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bound_after_roundtrip(self, dtype, rng):
        values = (rng.standard_normal(300) * 1e4).astype(dtype)
        eb = 0.5
        _, _, out = roundtrip(values, eb)
        assert np.abs(out.astype(np.float64) - values.astype(np.float64)).max() <= eb

    def test_mixed_flags(self):
        values = np.array([np.nan, 0.0, 1234.5, np.inf, 1e-9, -7.25], dtype=np.float64)
        eb = 1e-3
        payload, recon, out = roundtrip(values, eb)
        np.testing.assert_array_equal(
            np.isnan(out), np.isnan(values)
        )
        finite = np.isfinite(values)
        assert np.abs(out[finite] - values[finite]).max() <= eb

    def test_empty(self):
        payload = encode_unpredictable(np.zeros(0, dtype=np.float32), 0.1)
        assert payload == b""
        out = decode_unpredictable(payload, 0, 0.1, np.dtype(np.float32))
        assert out.size == 0

    def test_payload_smaller_than_raw(self, rng):
        """The whole point of binary-representation analysis: fewer bits
        than full IEEE storage at loose bounds."""
        values = rng.standard_normal(4000).astype(np.float64)
        payload = encode_unpredictable(values, 1e-2)
        assert len(payload) < values.nbytes * 0.6

    def test_payload_grows_with_tighter_bound(self, rng):
        values = rng.standard_normal(1000).astype(np.float64)
        loose = encode_unpredictable(values, 1e-1)
        tight = encode_unpredictable(values, 1e-9)
        assert len(tight) > len(loose)

    @given(st.integers(1, 2**31), st.sampled_from([1e-1, 1e-4, 1e-8]))
    def test_roundtrip_property(self, seed, eb):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-4, 5)
        values = (rng.standard_normal(50) * scale).astype(
            np.float32 if seed % 2 else np.float64
        )
        payload, recon, out = roundtrip(values, eb)
        np.testing.assert_array_equal(out, recon)
        assert (
            np.abs(out.astype(np.float64) - values.astype(np.float64)).max()
            <= eb
        )

    @given(
        st.sampled_from([(np.float32, np.uint32), (np.float64, np.uint64)]),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
        st.sampled_from([1e-1, 1e-3, 2.0**-10, 1e-7, 1e-30]),
    )
    def test_truncate_matches_decoder_on_any_bits(self, types, words, eb):
        """Any bit pattern (NaN payloads, subnormals, +-0, +-Inf): the
        inline truncation is exactly what the decoder returns, and a
        per-element bound acts as the scalar call on each group."""
        dtype, uint = types
        bits = np.array(words, dtype=np.uint64)
        if uint is np.uint32:
            bits = (bits >> np.uint64(32)).astype(np.uint32)
        values = bits.view(dtype)
        _, _, out = roundtrip(values, eb)
        np.testing.assert_array_equal(
            truncate_to_bound(values, eb).view(uint), out.view(uint)
        )
        ebs = np.where(np.arange(values.size) % 3 == 0, eb, 3.5 * eb)
        per_element = truncate_to_bound(values, ebs).view(uint)
        for bound in (eb, 3.5 * eb):
            group = ebs == bound
            np.testing.assert_array_equal(
                per_element[group],
                truncate_to_bound(values[group], bound).view(uint),
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("eb", [1e-3, 1e-4, 0.3])
    def test_value_at_the_rounded_bound(self, dtype, eb):
        """A value equal to the bound rounded to its dtype decodes within
        the bound itself, whether the bound is a Python float, a NumPy
        scalar or one per value (float32 rounds 1e-3 and 0.3 up, 1e-4
        down, so only a value at or below the bound becomes a zero)."""
        at = dtype(eb)
        values = np.array(
            [at, -at, np.nextafter(at, dtype(1)), np.nextafter(at, dtype(0))],
            dtype=dtype,
        )
        _, _, out = roundtrip(values, eb)
        expected = truncate_to_bound(values, eb)
        np.testing.assert_array_equal(expected, out)
        err = np.abs(out.astype(np.float64) - values.astype(np.float64))
        assert err.max() <= eb
        for bound in (np.float64(eb), np.full(values.size, eb)):
            np.testing.assert_array_equal(
                truncate_to_bound(values, bound), expected
            )
        np.testing.assert_array_equal(roundtrip(values, np.float64(eb))[2],
                                      expected)

    def test_negative_zero(self):
        values = np.array([-0.0], dtype=np.float64)
        _, _, out = roundtrip(values, 1e-6)
        assert out[0] == 0.0
