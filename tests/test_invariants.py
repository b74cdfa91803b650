"""Cross-cutting invariants that tie modules together."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compress, compress_with_stats, decompress
from repro.encoding.huffman import HuffmanCodec


class TestHuffmanAccounting:
    @given(st.integers(1, 2**31))
    @settings(max_examples=10)
    def test_expected_bits_is_exact(self, seed):
        """The cost model used for table construction must equal the real
        encoded size bit for bit."""
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, 50, int(rng.integers(1, 500)))
        freqs = np.bincount(symbols, minlength=50)
        codec = HuffmanCodec.from_frequencies(freqs)
        stream = codec.encode(symbols)
        assert codec.expected_bits(freqs) == stream.total_bits

    def test_compression_monotone_in_skew(self, rng):
        """More skewed code distributions must never encode larger."""
        n = 20_000
        sizes = []
        for spread in (1.0, 4.0, 16.0):
            symbols = np.clip(
                np.rint(128 + spread * rng.standard_normal(n)), 0, 255
            ).astype(np.int64)
            codec = HuffmanCodec.from_symbols(symbols, 256)
            sizes.append(codec.encode(symbols).total_bits)
        assert sizes[0] < sizes[1] < sizes[2]


class TestAdaptiveCap:
    def test_m_capped_at_16(self, rng):
        noise = rng.standard_normal((48, 48)).astype(np.float32)
        _, stats = compress_with_stats(
            noise, mode="rel", bound=1e-9, interval_bits=14, adaptive=True, theta=0.999
        )
        assert stats.interval_bits <= 16
        assert stats.adaptive_attempts >= 2

    def test_adaptive_never_loosens_bound(self, rng):
        noise = rng.standard_normal((40, 40)).astype(np.float64)
        eb = 1e-8
        blob = compress(noise, mode="abs", bound=eb, interval_bits=2, adaptive=True)
        out = decompress(blob)
        assert np.abs(out - noise).max() <= eb


class TestDtypePreservation:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_dtype_and_contiguity(self, dtype, rng):
        data = rng.standard_normal((17, 19)).astype(dtype)
        out = decompress(compress(data, mode="rel", bound=1e-3))
        assert out.dtype == dtype
        assert out.flags["C_CONTIGUOUS"]

    def test_fortran_order_input(self, rng):
        data = np.asfortranarray(rng.standard_normal((20, 30)))
        out = decompress(compress(data, mode="abs", bound=0.01))
        assert np.abs(out - data).max() <= 0.01

    def test_non_contiguous_view_input(self, rng):
        base = rng.standard_normal((40, 60))
        view = base[::2, ::3]
        out = decompress(compress(view, mode="abs", bound=0.01))
        assert out.shape == view.shape
        assert np.abs(out - view).max() <= 0.01


class TestErrorDistribution:
    def test_errors_bounded_not_biased(self, smooth2d):
        """Quantization errors should be roughly symmetric (no drift) —
        a consequence of round-to-nearest interval placement."""
        eb = 1e-3 * float(smooth2d.max() - smooth2d.min())
        out = decompress(compress(smooth2d, mode="abs", bound=eb))
        err = (out.astype(np.float64) - smooth2d.astype(np.float64)).ravel()
        assert np.abs(err).max() <= eb
        assert abs(err.mean()) < 0.2 * eb
