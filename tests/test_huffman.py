"""Tests for the arbitrary-alphabet canonical Huffman codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.encoding.huffman as hf
from repro.encoding.bitio import BitReader, BitWriter
from repro.encoding.huffman import (
    EncodedStream,
    HuffmanCodec,
    huffman_code_lengths,
)


def roundtrip(symbols, alphabet, block_size=64):
    codec = HuffmanCodec.from_symbols(symbols, alphabet)
    stream = codec.encode(symbols, block_size=block_size)
    return codec, stream, codec.decode(stream)


class TestCodeLengths:
    def test_uniform_four_symbols(self):
        lengths = huffman_code_lengths(np.array([5, 5, 5, 5]))
        np.testing.assert_array_equal(lengths, [2, 2, 2, 2])

    def test_skewed_gives_short_code_to_common(self):
        lengths = huffman_code_lengths(np.array([100, 1, 1]))
        assert lengths[0] == 1
        assert lengths[1] == 2 and lengths[2] == 2

    def test_absent_symbols_have_zero_length(self):
        lengths = huffman_code_lengths(np.array([3, 0, 2, 0]))
        assert lengths[1] == 0 and lengths[3] == 0
        assert lengths[0] > 0 and lengths[2] > 0

    def test_single_symbol_gets_one_bit(self):
        lengths = huffman_code_lengths(np.array([0, 9, 0]))
        np.testing.assert_array_equal(lengths, [0, 1, 0])

    def test_empty_alphabet(self):
        assert huffman_code_lengths(np.array([], dtype=np.int64)).size == 0

    def test_all_zero_freqs(self):
        np.testing.assert_array_equal(
            huffman_code_lengths(np.array([0, 0, 0])), [0, 0, 0]
        )

    def test_negative_freq_raises(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(np.array([1, -1]))

    def test_length_limit_enforced(self):
        # Fibonacci-like frequencies force deep unconstrained trees.
        freqs = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377])
        lengths = huffman_code_lengths(freqs, max_code_length=6)
        assert lengths.max() <= 6
        assert np.all(lengths[freqs > 0] > 0)

    def test_length_limit_too_small_raises(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(np.ones(100, dtype=np.int64), max_code_length=5)

    def test_kraft_inequality(self, rng):
        freqs = rng.integers(0, 1000, 300)
        lengths = huffman_code_lengths(freqs)
        present = lengths[lengths > 0]
        assert np.sum(2.0 ** (-present.astype(float))) <= 1.0 + 1e-12

    def test_optimality_against_entropy(self, rng):
        freqs = rng.integers(1, 500, 64).astype(np.int64)
        lengths = huffman_code_lengths(freqs)
        p = freqs / freqs.sum()
        entropy = -np.sum(p * np.log2(p))
        avg_len = np.sum(p * lengths)
        assert entropy <= avg_len < entropy + 1.0  # Huffman is within 1 bit


class TestSymbolHistogram:
    @pytest.mark.parametrize("chunk", [1, 7, 4096, 2**20])
    def test_matches_bincount_across_chunk_edges(self, monkeypatch, chunk):
        monkeypatch.setattr(hf, "_PACK_CHUNK", chunk)
        codes = np.random.default_rng(chunk).integers(0, 300, 9_999)
        for symbols in (codes.astype(np.uint16), codes, codes[:0]):
            # Symbols past the alphabet widen the counts, as in bincount.
            want = np.bincount(symbols, minlength=256)
            got = hf.symbol_histogram(symbols, 256)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_transient_bounded_for_uint16_codes(self):
        """``np.bincount`` copies all its input to intp first: 50 MB for
        6.25M uint16 codes, where a chunk's copy is 8 MB."""
        import tracemalloc

        codes = np.random.default_rng(0).integers(
            0, 1 << 16, 6_250_000, dtype=np.uint16
        )
        tracemalloc.start()
        try:
            counts = hf.symbol_histogram(codes, 1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(counts.sum()) == codes.size
        assert peak < 16e6


class TestCanonicalCodes:
    def test_prefix_free(self, rng):
        freqs = rng.integers(0, 100, 40)
        codec = HuffmanCodec.from_frequencies(freqs)
        present = np.flatnonzero(codec.lengths)
        words = [
            format(int(codec.codes[s]), f"0{int(codec.lengths[s])}b")
            for s in present
        ]
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)

    def test_canonical_ordering(self):
        codec = HuffmanCodec.from_frequencies(np.array([10, 10, 10, 10]))
        # equal lengths -> codes are consecutive in symbol order
        np.testing.assert_array_equal(codec.codes, [0, 1, 2, 3])


class TestEncodedStreamSerialization:
    def test_roundtrip(self, rng):
        symbols = rng.integers(0, 20, 500)
        codec = HuffmanCodec.from_symbols(symbols, 20)
        stream = codec.encode(symbols, block_size=128)
        blob = stream.to_bytes()
        back = EncodedStream.from_bytes(blob)
        assert back.n_symbols == stream.n_symbols
        assert back.block_size == stream.block_size
        np.testing.assert_array_equal(back.block_bits, stream.block_bits)
        np.testing.assert_array_equal(back.payload, stream.payload)
        np.testing.assert_array_equal(codec.decode(back), symbols)

    def test_empty_stream(self):
        codec = HuffmanCodec.from_frequencies(np.array([1, 1]))
        stream = codec.encode(np.array([], dtype=np.int64))
        back = EncodedStream.from_bytes(stream.to_bytes())
        assert codec.decode(back).size == 0


class TestRoundTrip:
    def test_basic(self, rng):
        symbols = rng.integers(0, 17, 1000)
        _, _, out = roundtrip(symbols, 17)
        np.testing.assert_array_equal(out, symbols)

    def test_single_distinct_symbol(self):
        symbols = np.full(100, 3, dtype=np.int64)
        _, _, out = roundtrip(symbols, 5)
        np.testing.assert_array_equal(out, symbols)

    def test_large_alphabet_beyond_256(self, rng):
        # The paper's motivation: m > 8 means more than 256 codes.
        symbols = rng.integers(0, 5000, 4000)
        _, _, out = roundtrip(symbols, 5000, block_size=256)
        np.testing.assert_array_equal(out, symbols)

    def test_highly_skewed_source(self, rng):
        symbols = np.where(rng.random(3000) < 0.95, 128, rng.integers(0, 257, 3000))
        _, _, out = roundtrip(symbols, 257)
        np.testing.assert_array_equal(out, symbols)

    def test_block_boundary_exact_multiple(self, rng):
        symbols = rng.integers(0, 9, 256)
        _, _, out = roundtrip(symbols, 9, block_size=64)
        np.testing.assert_array_equal(out, symbols)

    def test_single_symbol_stream(self):
        symbols = np.array([2])
        _, _, out = roundtrip(symbols, 4)
        np.testing.assert_array_equal(out, symbols)

    def test_scalar_decoder_agrees(self, rng):
        symbols = rng.integers(0, 300, 700)
        codec, stream, out = roundtrip(symbols, 300, block_size=100)
        np.testing.assert_array_equal(codec.decode_scalar(stream), symbols)
        np.testing.assert_array_equal(out, symbols)

    def test_out_of_alphabet_symbol_raises(self):
        codec = HuffmanCodec.from_frequencies(np.array([1, 1]))
        with pytest.raises(ValueError):
            codec.encode(np.array([5]))

    def test_symbol_without_codeword_raises(self):
        codec = HuffmanCodec.from_frequencies(np.array([1, 0, 1]))
        with pytest.raises(ValueError):
            codec.encode(np.array([1]))

    def test_corrupt_payload_detected(self, rng):
        symbols = rng.integers(0, 11, 400)
        codec = HuffmanCodec.from_symbols(symbols, 11)
        stream = codec.encode(symbols, block_size=100)
        payload = stream.payload.copy()
        payload[len(payload) // 2] ^= 0xFF
        bad = EncodedStream(
            stream.n_symbols, stream.block_size, stream.block_bits, payload
        )
        # A complete Huffman code decodes any bit pattern, so corruption is
        # either flagged (length mismatch) or yields different symbols.
        try:
            out = codec.decode(bad)
        except ValueError:
            return
        assert not np.array_equal(out, symbols)

    @given(
        st.integers(2, 600),
        st.integers(1, 2**31),
        st.integers(1, 97),
    )
    def test_roundtrip_property(self, alphabet, seed, block):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 400))
        symbols = rng.integers(0, alphabet, n)
        codec = HuffmanCodec.from_symbols(symbols, alphabet)
        stream = codec.encode(symbols, block_size=block)
        np.testing.assert_array_equal(codec.decode(stream), symbols)


class TestTableSerialization:
    def test_roundtrip_dense(self, rng):
        freqs = rng.integers(1, 50, 30)
        codec = HuffmanCodec.from_frequencies(freqs)
        w = BitWriter()
        codec.write_table(w)
        back = HuffmanCodec.read_table(BitReader(w.getvalue()))
        np.testing.assert_array_equal(back.lengths, codec.lengths)
        np.testing.assert_array_equal(back.codes, codec.codes)

    def test_roundtrip_sparse_large_alphabet(self, rng):
        freqs = np.zeros(70000, dtype=np.int64)
        hot = rng.choice(70000, 40, replace=False)
        freqs[hot] = rng.integers(1, 100, 40)
        codec = HuffmanCodec.from_frequencies(freqs)
        w = BitWriter()
        codec.write_table(w)
        # Sparse table must stay small: zero runs are RLE'd.
        assert len(w.getvalue()) < 200
        back = HuffmanCodec.read_table(BitReader(w.getvalue()))
        np.testing.assert_array_equal(back.lengths, codec.lengths)

    def test_roundtrip_runs_of_equal_lengths(self):
        freqs = np.ones(5000, dtype=np.int64)
        codec = HuffmanCodec.from_frequencies(freqs)
        w = BitWriter()
        codec.write_table(w)
        # 5000 mostly-equal lengths should compress far below 1 byte each.
        assert len(w.getvalue()) < 100
        back = HuffmanCodec.read_table(BitReader(w.getvalue()))
        np.testing.assert_array_equal(back.lengths, codec.lengths)

    def test_expected_bits(self):
        freqs = np.array([3, 1])
        codec = HuffmanCodec.from_frequencies(freqs)
        assert codec.expected_bits(freqs) == 4.0
