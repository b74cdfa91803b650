"""Byte-identity regression tests for the vectorized bit paths.

The entropy-coding hot paths (token-list ``BitWriter``, windowed
``pack_varlen``/``unpack_varlen``, batch Huffman table serialization,
vectorized ``EncodedStream`` framing, the block-parallel Huffman
decoder) replaced scalar loops for speed.  Speed must be the *only*
thing that changed: every property test here pins the vectorized path
to its retained scalar reference (``ScalarBitWriter``, ``BitReader``,
``HuffmanCodec.decode_scalar``) bit for bit.  The golden-blob fixtures
(tests/test_golden_blobs.py) pin the same contract end to end across
PRs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import huffman_symbol_streams

import repro.encoding.bitio as bitio
import repro.encoding.huffman as hf
from repro.encoding.bitio import (
    BitReader,
    BitWriter,
    ScalarBitWriter,
    byte_windows64,
    pack_varlen,
    unpack_varlen,
)
from repro.encoding.huffman import EncodedStream, HuffmanCodec
from repro.obs import Collector

# (value, width) field lists; widths cover the full scalar-writer range.
fields_strategy = st.lists(
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 64)),
    max_size=60,
)

# Mixed variable lengths: up to one 8-byte window (57 bits), and up to
# 64 bits, where the fields wider than 32 bits travel split in two.
varlen_strategy = st.lists(st.integers(0, 57), min_size=1, max_size=200)
wide_varlen_strategy = st.lists(st.integers(0, 64), min_size=1, max_size=200)


def _random_values(lengths: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Deliberately unmasked garbage in the high bits: pack_varlen must
    # store only the low `lengths[i]` bits.
    return rng.integers(0, 2**64, lengths.size, dtype=np.uint64)


def _masked(values: np.ndarray, lengths: np.ndarray) -> list[int]:
    return [int(v) & ((1 << int(w)) - 1) for v, w in zip(values, lengths)]


def _scalar_pack(values: np.ndarray, lengths: np.ndarray) -> bytes:
    """The fields as the byte-at-a-time reference writer packs them."""
    w = ScalarBitWriter()
    for v, width in zip(_masked(values, lengths), lengths):
        w.write(v, int(width))
    return w.getvalue()


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
    @staticmethod
    def _check_pack(lens: list[int], seed: int) -> None:
        lengths = np.array(lens, dtype=np.int64)
        values = _random_values(lengths, seed)
        fast, n_fast = pack_varlen(values, lengths)
        assert n_fast == int(lengths.sum())
        assert fast.tobytes() == _scalar_pack(values, lengths)

    @given(varlen_strategy, st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_window_pack_matches_scalar_writer(self, lens, seed):
        self._check_pack(lens, seed)

    @given(wide_varlen_strategy, st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_split_wide_pack_matches_scalar_writer(self, lens, seed):
        self._check_pack(lens, seed)

    @given(wide_varlen_strategy, st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_masked_hint_identical_for_clean_values(self, lens, seed):
        lengths = np.array(lens, dtype=np.int64)
        values = _random_values(lengths, seed)
        clean = np.array(_masked(values, lengths), dtype=np.uint64)
        a, _ = pack_varlen(clean, lengths)
        b, _ = pack_varlen(clean, lengths, masked=True)
        assert a.tobytes() == b.tobytes()

    @given(wide_varlen_strategy, st.integers(0, 2**31), st.integers(0, 20))
    @settings(max_examples=60)
    def test_unpack_matches_bit_reader_and_roundtrips(self, lens, seed, skip):
        # The packed region starts ``skip`` bits into the buffer: unpack
        # reads it at that offset, as BitReader does field by field.
        lengths = np.array(lens, dtype=np.int64)
        values = _random_values(lengths, seed)
        w = ScalarBitWriter()
        w.write((1 << skip) - 1, skip)
        for v, width in zip(_masked(values, lengths), lengths):
            w.write(v, int(width))
        buf = w.getvalue()
        out = unpack_varlen(buf, lengths, bit_offset=skip)
        reader = BitReader(buf, skip)
        expected = [reader.read(int(width)) for width in lengths]
        assert out.dtype == np.uint64
        assert out.tolist() == expected == _masked(values, lengths)

    @pytest.mark.parametrize("fields", [1, 7, 1 << 16])
    def test_chunked_fields_carry_the_bit_offset(self, fields, monkeypatch):
        # ``_PACK_FIELDS`` fields go through the windows per step; where
        # the step edges fall, among split 64-bit and short fields,
        # leaves no trace in the stream or in what unpacks from it.
        monkeypatch.setattr(bitio, "_PACK_FIELDS", fields)
        rng = np.random.default_rng(fields)
        lengths = rng.choice(np.array([0, 1, 5, 31, 32, 33, 57, 58, 64]), 3000)
        values = rng.integers(0, 2**64, 3000, dtype=np.uint64)
        buf, nbits = pack_varlen(values, lengths)
        assert nbits == int(lengths.sum())
        assert buf.tobytes() == _scalar_pack(values, lengths)
        assert unpack_varlen(buf, lengths).tolist() == _masked(values, lengths)

    def test_pack_against_scalar_writer_large(self):
        rng = np.random.default_rng(42)
        lengths = rng.integers(0, 65, 3000)
        values = rng.integers(0, 2**64, 3000, dtype=np.uint64)
        buf, nbits = pack_varlen(values, lengths)
        assert nbits == int(lengths.sum())
        assert buf.tobytes() == _scalar_pack(values, lengths)


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
    """The stream the byte-at-a-time reference writer packs from the
    same fields."""
    lens = codec.lengths[symbols]
    payload = np.frombuffer(
        _scalar_pack(codec.codes[symbols], lens), dtype=np.uint8
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
    def test_stream_matches_scalar_writer_reference(
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


def _code(shortest: int, longest: int) -> np.ndarray:
    """A complete prefix code whose codes take ``shortest`` to
    ``longest`` bits: all but one of the ``2^shortest`` codes of the
    shortest length, and a chain from the last one down to ``longest``
    bits."""
    if longest == shortest:
        return np.full(1 << shortest, shortest, dtype=np.int64)
    return np.concatenate(
        [
            np.full((1 << shortest) - 1, shortest),
            np.arange(shortest + 1, longest + 1),
            [longest],
        ]
    ).astype(np.int64)


def _symbols(lengths: np.ndarray, n: int, block: int, seed: int) -> np.ndarray:
    """``n`` symbols drawn as their code lengths price them, with the
    longest codes at every block start, at every block end and three
    back to back mid-stream."""
    rng = np.random.default_rng(seed)
    present = np.flatnonzero(lengths)
    p = np.exp2(-lengths[present].astype(np.float64))
    symbols = rng.choice(present, n, p=p / p.sum())
    longest = present[lengths[present] == lengths.max()]
    starts = np.arange(0, n, block)
    symbols[starts] = longest[0]
    symbols[np.minimum(starts + block, n) - 1] = longest[-1]
    symbols[n // 2 : n // 2 + 3] = longest[-1]
    return symbols


def _check_decode(
    codec: HuffmanCodec, symbols: np.ndarray, block: int
) -> EncodedStream:
    """Encode, then decode through ``decode`` (materialized windows and
    per-round gathers alike) and ``decode_scalar``: all three must give
    back ``symbols``."""
    stream = codec.encode(symbols, block_size=block)
    np.testing.assert_array_equal(codec.decode_scalar(stream), symbols)
    got = codec.decode(stream)
    assert got.dtype == codec.symbol_dtype
    np.testing.assert_array_equal(got, symbols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hf, "_WINDOW_MATERIALIZE_LIMIT", 0)
        np.testing.assert_array_equal(codec.decode(stream), symbols)
    return stream


# (shortest, longest) code lengths.  They give the row table every
# width k = min(8, 16 // shortest) it can take (8, 5, 4, 3, 2 and 1),
# longest codes of 1 to 32 bits, codes that all fit the 16-bit window,
# codes that all escape it, and alphabets above 2^16 (17-bit shortest
# codes decode to uint32).
CODES = [
    (1, 1), (1, 2), (1, 8), (1, 16), (1, 17), (1, 23), (1, 32),
    (2, 20), (3, 3), (3, 24), (4, 12), (5, 5), (5, 22), (6, 18),
    (9, 16), (16, 16), (16, 19), (17, 17), (17, 21),
]


class TestDecoderIdentity:
    """The one decoder (row table with a two-level escape) pitted
    against ``decode_scalar``."""

    @pytest.mark.parametrize("block", [1, 7, 64, 4096])
    @pytest.mark.parametrize("shortest, longest", CODES)
    def test_code_shape_and_block_size_matrix(self, shortest, longest, block):
        # Whole blocks and a 3-symbol last one: lanes of 1, 3 and 7
        # symbols start below a full-row round, 64 and 4096 run them.
        codec = HuffmanCodec(_code(shortest, longest))
        tables = codec._build_decode_tables()
        assert tables.k == max(1, min(8, 16 // shortest))
        assert (tables.escape is None) == (longest <= 16)
        n = min(2 * block, 4096) + 3
        _check_decode(codec, _symbols(codec.lengths, n, block, n), block)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_fewer_symbols_than_a_row(self, n):
        codec = HuffmanCodec(_code(1, 23))
        assert codec._build_decode_tables().k == 8
        _check_decode(codec, _symbols(codec.lengths, n, 4096, n), 4096)

    def test_single_symbol_alphabet(self):
        codec = HuffmanCodec(np.array([1], dtype=np.int64))
        _check_decode(codec, np.zeros(777, dtype=np.int64), 100)

    def test_skewed_frequencies(self):
        rng = np.random.default_rng(11)
        symbols = np.minimum(rng.geometric(0.55, 6000) - 1, 200).astype(
            np.int64
        )
        codec = HuffmanCodec.from_symbols(symbols, 201)
        _check_decode(codec, symbols, 192)

    def test_long_codes_decode_in_multi_symbol_rounds(self):
        # A quantization-code-like stream: 4,096-symbol blocks, codes of
        # about 2 bits on average, and 23-bit codes at every block's
        # start and end.  Decoding one symbol per lane per round took
        # 4,096 rounds; the row table needs under an eighth of that.
        codec = HuffmanCodec(_code(1, 23))
        symbols = _symbols(codec.lengths, 16 * 4096, 4096, 23)
        stream = codec.encode(symbols)
        with Collector() as col:
            np.testing.assert_array_equal(codec.decode(stream), symbols)
        assert col.counters["huffman/rounds"] < 4096 / 8
        assert col.observations["huffman/symbols_per_lookup"]["min"] > 4

    @pytest.mark.parametrize("shortest", [1, 2, 3, 4, 5, 6, 9, 16])
    def test_row_table_no_larger_than_the_fused_table(self, shortest):
        # The fused table it replaced held an int32 (bits, count) word,
        # k int32 symbols and k uint8 cumulative bits per window.
        tables = HuffmanCodec(_code(shortest, 16))._build_decode_tables()
        assert tables.escape is None
        fused = (1 << 16) * (4 * (1 + tables.k) + tables.k)
        assert hf._tables_nbytes(tables) <= fused

    def test_22_bit_code_tables_under_2mb(self):
        # A table 2^22 entries wide, indexed by the whole code, would
        # take 33.6 MB; the 16-bit row table (k = 8) and the escape's
        # 13-bit primary and one subtable take 1.8 MB.
        codec = HuffmanCodec(_code(1, 22))
        assert hf._tables_nbytes(codec._build_decode_tables()) < 2 << 20

    @given(case=huffman_symbol_streams())
    @settings(max_examples=40, deadline=None)
    def test_decoder_matches_scalar_reference(self, case):
        symbols, alphabet, block_size = case
        codec = HuffmanCodec.from_symbols(symbols, alphabet)
        _check_decode(codec, symbols, block_size)


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
