"""Byte-identity regression tests for the vectorized bit paths.

The entropy-coding hot paths (token-list ``BitWriter``, windowed
``pack_varlen``/``unpack_varlen``, batch Huffman table serialization,
vectorized ``EncodedStream`` framing) replaced scalar loops for speed.
Speed must be the *only* thing that changed: every property test here
pins the vectorized path to its retained scalar reference bit for bit.
The golden-blob fixtures (tests/test_golden_blobs.py) pin the same
contract end to end across PRs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import huffman_symbol_streams

import repro.encoding.huffman as hf
from repro.encoding.bitio import (
    BitReader,
    BitWriter,
    ScalarBitWriter,
    _pack_varlen_bitplane,
    _unpack_varlen_bitplane,
    byte_windows64,
    pack_varlen,
    unpack_varlen,
)
from repro.encoding.huffman import EncodedStream, HuffmanCodec

# (value, width) field lists; widths cover the full scalar-writer range.
fields_strategy = st.lists(
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 64)),
    max_size=60,
)

# Mixed variable lengths in the windowed fast-path range.
varlen_strategy = st.lists(st.integers(0, 57), min_size=1, max_size=200)


def _random_values(lengths: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Deliberately unmasked garbage in the high bits: pack_varlen must
    # store only the low `lengths[i]` bits.
    return rng.integers(0, 2**63, lengths.size, dtype=np.uint64)


class TestBitWriterIdentity:
    @given(fields_strategy)
    def test_token_writer_matches_scalar_reference(self, fields):
        fast, ref = BitWriter(), ScalarBitWriter()
        for value, width in fields:
            value &= (1 << width) - 1
            fast.write(value, width)
            ref.write(value, width)
        assert fast.bit_length == ref.bit_length
        assert fast.getvalue() == ref.getvalue()

    @given(st.lists(st.integers(0, 1), max_size=100))
    def test_write_bits_matches_scalar_reference(self, bits):
        fast, ref = BitWriter(), ScalarBitWriter()
        arr = np.array(bits, dtype=np.uint8)
        fast.write_bits(arr)
        ref.write_bits(arr)
        assert fast.getvalue() == ref.getvalue()

    @given(fields_strategy)
    def test_write_array_equals_per_field_writes(self, fields):
        values = np.array(
            [v & ((1 << w) - 1) for v, w in fields], dtype=np.uint64
        )
        lengths = np.array([w for _, w in fields], dtype=np.int64)
        bulk, scalar = BitWriter(), BitWriter()
        bulk.write_array(values, lengths)
        for v, w in zip(values, lengths):
            scalar.write(int(v), int(w))
        assert bulk.getvalue() == scalar.getvalue()

    def test_wide_field_split(self):
        # Fields wider than 64 bits still serialize MSB-first.
        fast, ref = BitWriter(), ScalarBitWriter()
        value = (0xDEADBEEFCAFEF00D << 36) | 0xABCDEF123
        fast.write(value, 100)
        ref.write(value, 100)
        assert fast.getvalue() == ref.getvalue()

    def test_write_array_snapshots_input(self):
        # Mutating the source array after the append must not change the
        # stream (write() consumes values eagerly; write_array must too).
        w = BitWriter()
        vals = np.array([0b101, 0b11], dtype=np.uint64)
        w.write_array(vals, np.array([3, 2]))
        vals[:] = 0
        ref = BitWriter()
        ref.write(0b101, 3)
        ref.write(0b11, 2)
        assert w.getvalue() == ref.getvalue()

    def test_write_array_rejects_overwide_values(self):
        import pytest

        w = BitWriter()
        with pytest.raises(ValueError, match="does not fit"):
            w.write_array(np.array([4], dtype=np.uint64), np.array([2]))
        # zero-width fields are no-ops regardless of value (like write(v, 0))
        w.write_array(np.array([99], dtype=np.uint64), np.array([0]))
        assert w.bit_length == 0
        # 64-bit fields accept the full range
        w.write_array(
            np.array([2**64 - 1], dtype=np.uint64), np.array([64])
        )
        assert w.bit_length == 64


class TestPackVarlenIdentity:
    @given(varlen_strategy, st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_windowed_pack_matches_bitplane_reference(self, lens, seed):
        lengths = np.array(lens, dtype=np.int64)
        values = _random_values(lengths, seed)
        fast, n_fast = pack_varlen(values, lengths)
        ref, n_ref = _pack_varlen_bitplane(
            values.astype(np.uint64),
            lengths,
            int(lengths.sum()),
            max(int(lengths.max()), 1),
        )
        assert n_fast == n_ref
        assert fast.tobytes() == ref.tobytes()

    @given(varlen_strategy, st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_masked_hint_identical_for_clean_values(self, lens, seed):
        lengths = np.array(lens, dtype=np.int64)
        values = _random_values(lengths, seed)
        mask = np.where(
            lengths > 0,
            (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1),
            np.uint64(0),
        )
        clean = values & mask
        a, _ = pack_varlen(clean, lengths)
        b, _ = pack_varlen(clean, lengths, masked=True)
        assert a.tobytes() == b.tobytes()

    @given(varlen_strategy, st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_windowed_unpack_matches_reference_and_roundtrips(
        self, lens, seed
    ):
        lengths = np.array(lens, dtype=np.int64)
        values = _random_values(lengths, seed)
        mask = np.where(
            lengths > 0,
            (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1),
            np.uint64(0),
        )
        expected = values & mask
        buf, _ = pack_varlen(values, lengths)
        out = unpack_varlen(buf, lengths)
        np.testing.assert_array_equal(out, expected)
        if int(lengths.min()) != int(lengths.max()):
            ref = _unpack_varlen_bitplane(
                np.asarray(buf, dtype=np.uint8),
                lengths,
                0,
                int(lengths.sum()),
                int(lengths.max()),
            )
            np.testing.assert_array_equal(out, ref)

    def test_pack_against_scalar_writer_large(self):
        rng = np.random.default_rng(42)
        lengths = rng.integers(0, 58, 3000)
        values = rng.integers(0, 2**63, 3000, dtype=np.uint64)
        buf, nbits = pack_varlen(values, lengths)
        w = ScalarBitWriter()
        for v, width in zip(values, lengths):
            w.write(int(v) & ((1 << int(width)) - 1), int(width))
        assert nbits == w.bit_length
        assert buf.tobytes() == w.getvalue()


class TestByteWindows:
    def test_windows_cover_padded_reads(self):
        rng = np.random.default_rng(0)
        buf = rng.integers(0, 256, 33, dtype=np.uint8)
        win = byte_windows64(buf)
        assert win.size == buf.size + 1
        r = BitReader(buf.tobytes())
        for k in range(buf.size + 1):
            padded = np.concatenate([buf, np.zeros(8, dtype=np.uint8)])
            expect = int.from_bytes(padded[k : k + 8].tobytes(), "big")
            assert int(win[k]) == expect
        # spot-check against BitReader for in-range windows
        r.seek(8 * 3)
        assert (int(win[3]) >> 32) == r.read(32)


def _codec_from_freqs(freqs) -> HuffmanCodec:
    return HuffmanCodec.from_frequencies(np.asarray(freqs, dtype=np.int64))


freqs_strategy = st.lists(st.integers(0, 1000), min_size=1, max_size=300)


class TestHuffmanTableIdentity:
    @given(freqs_strategy)
    @settings(max_examples=60)
    def test_write_table_matches_scalar_reference(self, freqs):
        codec = _codec_from_freqs(freqs)
        fast, ref = BitWriter(), BitWriter()
        codec.write_table(fast)
        codec.write_table_scalar(ref)
        assert fast.getvalue() == ref.getvalue()

    @given(freqs_strategy)
    @settings(max_examples=60)
    def test_read_table_matches_scalar_reference(self, freqs):
        codec = _codec_from_freqs(freqs)
        w = BitWriter()
        codec.write_table(w)
        w.write(0x5A, 8)  # trailing payload noise the parser must ignore
        blob = w.getvalue()
        fast = HuffmanCodec.read_table(BitReader(blob))
        ref = HuffmanCodec.read_table_scalar(BitReader(blob))
        np.testing.assert_array_equal(fast.lengths, ref.lengths)
        np.testing.assert_array_equal(fast.lengths, codec.lengths)

    def test_long_zero_and_value_runs_chunk_correctly(self):
        # Zero runs > 2^16 - 1 and value runs > 2^12 - 1 exercise the
        # chunk-splitting grammar paths.  8192 length-13 codes saturate
        # the Kraft sum exactly (8192 * 2^-13 == 1), so the table is a
        # valid prefix code with a 8192-long value run and a 71808-long
        # zero run.
        lengths = np.zeros(80000, dtype=np.int64)
        lengths[:8192] = 13
        codec = HuffmanCodec(lengths)
        fast, ref = BitWriter(), BitWriter()
        codec.write_table(fast)
        codec.write_table_scalar(ref)
        assert fast.getvalue() == ref.getvalue()
        back = HuffmanCodec.read_table(BitReader(fast.getvalue()))
        np.testing.assert_array_equal(back.lengths, codec.lengths)


class TestEncodedStreamIdentity:
    def _reference_bytes(self, stream: EncodedStream) -> bytes:
        w = ScalarBitWriter()
        w.write(stream.n_symbols, 48)
        w.write(stream.block_size, 32)
        w.write(len(stream.payload), 48)
        for b in stream.block_bits:
            w.write(int(b), 40)
        return w.getvalue() + stream.payload.tobytes()

    @given(
        st.integers(1, 5000),
        st.integers(16, 512),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40)
    def test_framing_matches_scalar_reference(self, n, block, seed):
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, 17, n)
        codec = HuffmanCodec.from_symbols(symbols, 17)
        stream = codec.encode(symbols, block_size=block)
        blob = stream.to_bytes()
        assert blob == self._reference_bytes(stream)
        back = EncodedStream.from_bytes(blob)
        assert back.n_symbols == stream.n_symbols
        assert back.block_size == stream.block_size
        np.testing.assert_array_equal(back.block_bits, stream.block_bits)
        np.testing.assert_array_equal(back.payload, stream.payload)

    @given(
        st.integers(1, 4000),
        st.integers(8, 300),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40)
    def test_windowed_decode_matches_scalar_decoder(self, n, block, seed):
        rng = np.random.default_rng(seed)
        # Skewed distribution: long and short codewords both present.
        symbols = np.minimum(
            rng.geometric(0.3, n) - 1, 40
        ).astype(np.int64)
        codec = HuffmanCodec.from_symbols(symbols, 41)
        stream = codec.encode(symbols, block_size=block)
        np.testing.assert_array_equal(codec.decode(stream), symbols)
        np.testing.assert_array_equal(
            codec.decode_scalar(stream), symbols
        )

    def test_unmaterialized_window_fallback_decodes_identically(
        self, monkeypatch
    ):
        # Payloads above the materialization limit gather windows per
        # round; force that path and check it agrees with the fast one.
        rng = np.random.default_rng(7)
        symbols = np.minimum(rng.geometric(0.4, 20000) - 1, 30)
        codec = HuffmanCodec.from_symbols(symbols, 31)
        stream = codec.encode(symbols, block_size=256)
        fast = codec.decode(stream)
        monkeypatch.setattr(hf, "_WINDOW_MATERIALIZE_LIMIT", 0)
        slow = codec.decode(stream)
        np.testing.assert_array_equal(fast, slow)
        np.testing.assert_array_equal(slow, symbols)


@st.composite
def prefix_code_lengths(draw, max_len: int = 24):
    """A complete prefix code with lengths in ``[1, max_len]``.

    Starts from the deep, skewed chain quantization codes give (lengths
    ``1, 2, ..., depth, depth``), splits drawn leaves further, and pads
    the code with absent (length 0) symbols at drawn places.
    """
    depth = draw(st.integers(1, max_len))
    lengths = [*range(1, depth + 1), depth]
    for pick in draw(st.lists(st.integers(0, 2**16), max_size=30)):
        eligible = [i for i, ln in enumerate(lengths) if ln < max_len]
        if not eligible:
            break
        i = eligible[pick % len(eligible)]
        lengths[i] += 1  # split leaf i into two one level deeper
        lengths.append(lengths[i])
    for pos in draw(st.lists(st.integers(0, 2**16), max_size=5)):
        lengths.insert(pos % (len(lengths) + 1), 0)
    return np.array(lengths, dtype=np.int64)


def _reference_stream(
    codec: HuffmanCodec, symbols: np.ndarray, block_size: int
) -> EncodedStream:
    """The stream the bit-plane reference packs from the same fields."""
    lens = codec.lengths[symbols]
    payload, _ = _pack_varlen_bitplane(
        codec.codes[symbols], lens, int(lens.sum()), int(lens.max())
    )
    block_bits = np.add.reduceat(
        lens, np.arange(0, symbols.size, block_size)
    ).astype(np.uint64)
    return EncodedStream(symbols.size, block_size, block_bits, payload)


_PACK_CHUNKS = [1, 7, 4095, 4097, 2**20]


class TestChunkedPackIdentity:
    """The encoder packs ``_PACK_CHUNK`` symbols at a time; where the
    chunk edges fall (mid-byte, mid-word, mid-block) leaves no trace."""

    @given(
        prefix_code_lengths(),
        st.integers(1, 9000),
        st.sampled_from(_PACK_CHUNKS),
        # Block sizes that divide some chunk sizes and not others, and
        # blocks that span several chunks.
        st.sampled_from([1, 2, 3, 7, 8, 64, 4095, 4096, 4097, 10000]),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40)
    def test_stream_matches_bitplane_reference(
        self, lengths, n, chunk, block, seed
    ):
        codec = HuffmanCodec(lengths)
        present = np.flatnonzero(lengths)
        symbols = np.random.default_rng(seed).choice(present, n).astype(
            np.uint16
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hf, "_PACK_CHUNK", chunk)
            stream = codec.encode(symbols, block_size=block)
        ref = _reference_stream(codec, symbols.astype(np.int64), block)
        assert stream.to_bytes() == ref.to_bytes()
        decoded = codec.decode(stream)
        assert decoded.dtype == np.uint16
        np.testing.assert_array_equal(decoded, codec.decode_scalar(stream))
        np.testing.assert_array_equal(decoded, symbols)

    @pytest.mark.parametrize("chunk", _PACK_CHUNKS[:-1])
    @pytest.mark.parametrize("block", [7, 9, 4096])
    def test_chunk_edges_mid_byte_and_mid_word(self, chunk, block):
        # Lengths 1 and 5 (Kraft: 1/2 + 16/32); the pattern's 33 bits
        # per 9 symbols put the first 8 chunk edges both off a byte
        # boundary and on a byte boundary inside a 64-bit word.
        codec = HuffmanCodec(np.array([1] + [5] * 16, dtype=np.int64))
        symbols = np.resize(
            np.array([3, 0, 9, 0, 1, 5, 0, 2, 4]), 8 * chunk + 64
        )
        edges = np.cumsum(codec.lengths[symbols])[chunk - 1 :: chunk]
        assert (edges % 8 != 0).any()
        assert ((edges % 8 == 0) & (edges % 64 != 0)).any()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hf, "_PACK_CHUNK", chunk)
            stream = codec.encode(symbols, block_size=block)
        assert stream.to_bytes() == _reference_stream(
            codec, symbols, block
        ).to_bytes()
        np.testing.assert_array_equal(codec.decode(stream), symbols)


class TestCodeDtypes:
    """Quantization codes travel as uint16; decoded symbols as the
    narrowest of uint16/uint32 that holds the alphabet."""

    @pytest.mark.parametrize("shape", [(300,), (20, 30), (6, 7, 8)])
    def test_wavefront_codes_are_uint16(self, shape):
        from repro.core.wavefront import WavefrontPlan, wavefront_compress

        data = np.sin(np.arange(np.prod(shape)) / 5.0).reshape(shape)
        result = wavefront_compress(data, 1e-3, WavefrontPlan(shape, 1), 2**15)
        assert result.codes.dtype == np.uint16
        assert int(result.codes.max()) > 2**15  # codes use the top half

    @pytest.mark.parametrize(
        "alphabet, dtype", [(2**16, np.uint16), (2**16 + 1, np.uint32)]
    )
    def test_decode_dtype_follows_alphabet(self, alphabet, dtype):
        lengths = np.zeros(alphabet, dtype=np.int64)
        lengths[[0, alphabet - 1]] = 1
        codec = HuffmanCodec(lengths)
        symbols = np.array([alphabet - 1, 0, alphabet - 1], dtype=np.int64)
        stream = codec.encode(symbols)
        for decoded in (codec.decode(stream), codec.decode_scalar(stream)):
            assert decoded.dtype == dtype
            np.testing.assert_array_equal(decoded, symbols)


# The two decode-table layouts, each built straight from the length
# table and run through its own decoder.  The fused table holds codes of
# up to ``_FUSED_BITS`` bits; the two-level table holds any code.
LAYOUTS = {
    "multi": (hf._build_multi_tables, HuffmanCodec._decode_multi),
    "two_level": (hf._build_two_level_tables, HuffmanCodec._decode_two_level),
}


def _decode_with_layout(
    codec: HuffmanCodec, stream: EncodedStream, layout: str
) -> np.ndarray:
    build, decode = LAYOUTS[layout]
    return decode(codec, stream, build(codec.lengths))[0]


class TestDecodeVariantIdentity:
    """Every decode-table layout pitted against ``decode_scalar``."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_single_symbol_alphabet(self, layout):
        codec = HuffmanCodec(np.array([1], dtype=np.int64))
        symbols = np.zeros(777, dtype=np.int64)
        stream = codec.encode(symbols, block_size=100)
        np.testing.assert_array_equal(
            _decode_with_layout(codec, stream, layout), symbols
        )
        np.testing.assert_array_equal(codec.decode_scalar(stream), symbols)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_skewed_frequencies(self, layout):
        rng = np.random.default_rng(11)
        symbols = np.minimum(rng.geometric(0.55, 6000) - 1, 200).astype(
            np.int64
        )
        codec = HuffmanCodec.from_symbols(symbols, 201)
        stream = codec.encode(symbols, block_size=192)
        got = _decode_with_layout(codec, stream, layout)
        np.testing.assert_array_equal(got, symbols)
        np.testing.assert_array_equal(codec.decode_scalar(stream), symbols)

    def test_max_depth_32_codes(self):
        # A depth-32 chain code: lengths 1..31 plus two 32s saturate the
        # Kraft sum exactly.  max_len = 32 always routes to the
        # two-level tables (the deep prefixes share one subtable).
        lengths = np.concatenate(
            [np.arange(1, 32, dtype=np.int64), [32, 32]]
        )
        codec = HuffmanCodec(lengths)
        assert codec.max_len == HuffmanCodec.MAX_DECODE_LEN
        rng = np.random.default_rng(5)
        # Mix shallow symbols with the deepest codewords.
        symbols = rng.choice(
            np.array([0, 1, 2, 30, 31, 32]), size=400
        ).astype(np.int64)
        stream = codec.encode(symbols, block_size=37)
        assert isinstance(codec._build_decode_tables(), hf._TwoLevelTables)
        np.testing.assert_array_equal(codec.decode(stream), symbols)
        np.testing.assert_array_equal(codec.decode_scalar(stream), symbols)

    @staticmethod
    def _chain_roundtrip(depth: int) -> HuffmanCodec:
        """Round-trip shallow and deepest symbols of the chain code
        ``1, 2, ..., depth - 1, depth, depth`` through ``decode`` and
        ``decode_scalar``; returns the codec."""
        codec = HuffmanCodec(
            np.concatenate([np.arange(1, depth), [depth, depth]])
        )
        symbols = np.random.default_rng(depth).choice(
            np.array([0, 1, 2, depth - 2, depth - 1, depth]), size=400
        )
        stream = codec.encode(symbols, block_size=37)
        np.testing.assert_array_equal(codec.decode(stream), symbols)
        np.testing.assert_array_equal(codec.decode_scalar(stream), symbols)
        return codec

    @pytest.mark.parametrize("depth", [17, 18, 19, 20])
    def test_17_to_20_bit_codes_decode_two_level(self, depth):
        # The fused table is 16 bits wide; a wider one (5.8 MB at 17
        # bits, 46 MB at 20) is never built.
        codec = self._chain_roundtrip(depth)
        assert isinstance(codec._build_decode_tables(), hf._TwoLevelTables)

    def test_22_bit_code_tables_under_1mb(self):
        # A table 2^22 entries wide, indexed by the whole code, would
        # take 33.6 MB; the 13-bit primary and one subtable take 0.1 MB.
        codec = self._chain_roundtrip(22)
        assert hf._tables_nbytes(codec._build_decode_tables()) < 1 << 20

    @given(case=huffman_symbol_streams())
    @settings(max_examples=40, deadline=None)
    def test_variants_match_scalar_reference(self, case):
        symbols, alphabet, block_size = case
        codec = HuffmanCodec.from_symbols(symbols, alphabet)
        stream = codec.encode(symbols, block_size=block_size)
        ref = codec.decode_scalar(stream)
        np.testing.assert_array_equal(ref, symbols)
        fused_ok = codec.max_len <= hf._FUSED_BITS
        for layout in sorted(LAYOUTS) if fused_ok else ["two_level"]:
            got = _decode_with_layout(codec, stream, layout)
            np.testing.assert_array_equal(got, ref)


class TestDecodeScalarSeekPath:
    def test_unaligned_block_boundaries_at_payload_end(self):
        # Satellite regression: decode_scalar re-seeks the reader to
        # each block's bit offset.  With 2- and 1-bit codewords and a
        # 3-symbol block, every block boundary (and the payload end)
        # lands mid-byte — the seek path must still produce the exact
        # symbol sequence, matching the vectorized decoder.
        symbols = np.array(
            [0, 1, 2, 0, 1, 2, 2, 1, 0, 0, 1, 2, 0], dtype=np.int64
        )
        codec = HuffmanCodec.from_frequencies(
            np.array([10, 3, 2], dtype=np.int64)
        )
        stream = codec.encode(symbols, block_size=3)
        assert int(stream.block_bits.sum(dtype=np.int64)) % 8 != 0
        assert all(int(b) % 8 != 0 for b in stream.block_bits)
        np.testing.assert_array_equal(codec.decode_scalar(stream), symbols)
        np.testing.assert_array_equal(codec.decode(stream), symbols)


class TestDecodeTableCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        with hf._TABLE_CACHE_LOCK:
            hf._TABLE_CACHE.clear()
        yield
        with hf._TABLE_CACHE_LOCK:
            hf._TABLE_CACHE.clear()

    def test_identical_length_tables_share_one_build(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 50, 2000).astype(np.int64)
        a = HuffmanCodec.from_symbols(symbols, 50)
        b = HuffmanCodec(a.lengths.copy())
        assert a._build_decode_tables() is b._build_decode_tables()

    def test_different_length_tables_do_not_cross_talk(self):
        # Two codecs, two different length arrays: each stream must
        # decode through its own table even when decodes interleave.
        rng = np.random.default_rng(4)
        sym_a = rng.integers(0, 17, 1500).astype(np.int64)
        sym_b = np.minimum(rng.geometric(0.8, 1500) - 1, 250).astype(
            np.int64
        )
        a = HuffmanCodec.from_symbols(sym_a, 17)
        b = HuffmanCodec.from_symbols(sym_b, 251)
        assert not np.array_equal(a.lengths, b.lengths)
        stream_a = a.encode(sym_a, block_size=128)
        stream_b = b.encode(sym_b, block_size=128)
        np.testing.assert_array_equal(a.decode(stream_a), sym_a)
        np.testing.assert_array_equal(b.decode(stream_b), sym_b)
        np.testing.assert_array_equal(a.decode(stream_a), sym_a)
        assert a._build_decode_tables() is not b._build_decode_tables()

    def test_cache_telemetry_counters(self):
        from repro.obs import Collector

        rng = np.random.default_rng(6)
        symbols = rng.integers(0, 30, 800).astype(np.int64)
        with Collector() as col:
            first = HuffmanCodec.from_symbols(symbols, 30)
            stream = first.encode(symbols, block_size=64)
            first.decode(stream)
            again = HuffmanCodec(first.lengths.copy())
            again.decode(stream)
        assert col.counters["huffman/table_cache_misses"] == 1.0
        assert col.counters["huffman/table_cache_hits"] == 1.0
        assert col.counters["huffman/rounds"] >= 2.0
        assert "huffman/symbols_per_lookup" in col.observations

    def test_cache_eviction_keeps_decodes_correct(self, monkeypatch):
        monkeypatch.setattr(hf, "_TABLE_CACHE_SLOTS", 2)
        rng = np.random.default_rng(9)
        cases = []
        for alphabet in (3, 5, 9, 33):
            symbols = rng.integers(0, alphabet, 300).astype(np.int64)
            codec = HuffmanCodec.from_symbols(symbols, alphabet)
            cases.append((codec, codec.encode(symbols, block_size=64), symbols))
        for codec, stream, symbols in cases * 2:
            codec._decode_tables = None  # force a cache lookup each time
            np.testing.assert_array_equal(codec.decode(stream), symbols)
        assert len(hf._TABLE_CACHE) <= 2
