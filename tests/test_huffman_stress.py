"""Stress tests for the Huffman codec's deep-alphabet and long-code paths.

The default experiments mostly use m=8 (256 codes); these tests force
the m=16 regime (65536 codes) and code lengths beyond the 13-bit primary
decode table, exercising the two-level lookup and the length limiter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import compress, decompress
from repro.encoding.bitio import BitReader, BitWriter
from repro.encoding.huffman import HuffmanCodec, huffman_code_lengths


class TestDeepAlphabet:
    def test_two_level_decode_exercised(self, rng):
        """Zipf-ish source over 40k symbols: long codes must pass through
        the secondary tables."""
        alphabet = 40_000
        ranks = np.arange(1, alphabet + 1)
        probs = 1.0 / ranks
        probs /= probs.sum()
        symbols = rng.choice(alphabet, size=30_000, p=probs)
        codec = HuffmanCodec.from_symbols(symbols, alphabet)
        assert codec.max_len > 13  # secondary tables actually in play
        stream = codec.encode(symbols, block_size=512)
        np.testing.assert_array_equal(codec.decode(stream), symbols)
        np.testing.assert_array_equal(codec.decode_scalar(stream), symbols)

    def test_m16_compressor_path(self, rng):
        """End-to-end with 65535 intervals (the paper's largest, Fig. 4b)."""
        data = np.cumsum(rng.standard_normal(4000)).reshape(50, 80)
        blob = compress(data, mode="rel", bound=1e-7, interval_bits=16)
        out = decompress(blob)
        eb = 1e-7 * float(data.max() - data.min())
        assert np.abs(out - data).max() <= eb

    def test_length_limited_deep_tree(self):
        """Fibonacci frequencies over a large alphabet would want >32-bit
        codes; the halving limiter must keep them decodable."""
        fib = [1, 1]
        while len(fib) < 60:
            fib.append(fib[-1] + fib[-2])
        freqs = np.array(fib, dtype=np.int64)
        lengths = huffman_code_lengths(freqs, max_code_length=24)
        assert lengths.max() <= 24
        codec = HuffmanCodec(lengths)
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 60, 5000)
        stream = codec.encode(symbols)
        np.testing.assert_array_equal(codec.decode(stream), symbols)

    def test_table_roundtrip_with_long_codes(self, rng):
        probs = 0.5 ** np.arange(1, 26)
        probs = np.append(probs, 1 - probs.sum())
        symbols = rng.choice(26, size=20_000, p=probs)
        codec = HuffmanCodec.from_symbols(symbols, 26)
        w = BitWriter()
        codec.write_table(w)
        back = HuffmanCodec.read_table(BitReader(w.getvalue()))
        stream = codec.encode(symbols)
        np.testing.assert_array_equal(back.decode(stream), symbols)


class TestAdversarialTables:
    def test_kraft_violation_rejected(self):
        # three codes of length 1 cannot form a prefix code
        with pytest.raises(ValueError, match="Kraft"):
            HuffmanCodec(np.array([1, 1, 1]))

    def test_kraft_excess_below_float_tolerance_rejected(self):
        # Lengths 1..31 and three 32s sum to 1 + 2^-32, which a float sum
        # with a 1e-9 tolerance accepted; the canonical codes then ran
        # past the decode table (IndexError on decode).
        lengths = np.concatenate([np.arange(1, 32), [32, 32, 32]])
        with pytest.raises(ValueError, match="Kraft"):
            HuffmanCodec(lengths)

    def test_oversize_length_rejected(self):
        with pytest.raises(ValueError, match="decoder limit"):
            HuffmanCodec(np.array([40, 1]))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCodec(np.array([-1, 1]))

    def test_giant_alphabet_rejected(self):
        w = BitWriter()
        w.write(1 << 30, 32)  # absurd alphabet size
        with pytest.raises(ValueError, match="alphabet"):
            HuffmanCodec.read_table(BitReader(w.getvalue()))

    def test_valid_boundary_alphabet_ok(self):
        codec = HuffmanCodec(np.array([1, 1]))
        assert codec.max_len == 1
