"""Unit and property tests for repro.encoding.bitio."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.encoding.bitio import (
    BitReader,
    BitWriter,
    bits_to_bytes,
    byte_windows64,
    bytes_to_bits,
    pack_varlen,
    read_bits_at,
    unpack_varlen,
)


class TestBitWriterReader:
    def test_single_byte_roundtrip(self):
        w = BitWriter()
        w.write(0b10110011, 8)
        assert w.getvalue() == bytes([0b10110011])

    def test_msb_first_ordering(self):
        w = BitWriter()
        w.write(1, 1)
        w.write(0, 1)
        w.write(1, 1)
        # 101 padded with zeros -> 1010_0000
        assert w.getvalue() == bytes([0b10100000])

    def test_cross_byte_fields(self):
        w = BitWriter()
        w.write(0x3FF, 10)
        w.write(0x0, 3)
        w.write(0x5, 3)
        r = BitReader(w.getvalue())
        assert r.read(10) == 0x3FF
        assert r.read(3) == 0
        assert r.read(3) == 0x5

    def test_zero_width_write_is_noop(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.bit_length == 0
        assert w.getvalue() == b""

    def test_value_too_wide_raises(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)

    def test_negative_value_raises(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(-1, 3)

    def test_negative_width_raises(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(0, -1)

    def test_reader_eof(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(EOFError):
            r.read(1)

    def test_reader_seek(self):
        r = BitReader(bytes([0b10100000]))
        assert r.read(3) == 0b101
        r.seek(1)
        assert r.read(2) == 0b01

    def test_bit_length_tracks_partial_bytes(self):
        w = BitWriter()
        w.write(0b11, 2)
        assert w.bit_length == 2
        w.write(0b1111111, 7)
        assert w.bit_length == 9

    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 21)), max_size=50))
    def test_roundtrip_property(self, fields):
        w = BitWriter()
        expected = []
        for value, width in fields:
            value &= (1 << width) - 1
            w.write(value, width)
            expected.append((value, width))
        r = BitReader(w.getvalue())
        for value, width in expected:
            assert r.read(width) == value

    def test_write_bits_matches_write(self):
        w1, w2 = BitWriter(), BitWriter()
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
        w1.write_bits(bits)
        for b in bits:
            w2.write(int(b), 1)
        assert w1.getvalue() == w2.getvalue()

    def test_write_array_rejects_negatives_like_write(self):
        # A negative must raise for every width — including 64-bit
        # fields, where the unsigned cast would otherwise silently wrap
        # it to its two's-complement pattern.
        for width in (8, 63, 64):
            with pytest.raises(ValueError, match="does not fit"):
                BitWriter().write_array(
                    np.array([-1], dtype=np.int64),
                    np.array([width], dtype=np.int64),
                )
        # the full unsigned range still packs
        w = BitWriter()
        w.write_array(
            np.array([2**64 - 1], dtype=np.uint64),
            np.array([64], dtype=np.int64),
        )
        assert w.getvalue() == b"\xff" * 8


class TestPackVarlen:
    def test_empty(self):
        buf, nbits = pack_varlen(np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
        assert nbits == 0
        assert buf.size == 0

    def test_matches_scalar_writer(self, rng):
        n = 300
        lengths = rng.integers(0, 33, n)
        values = rng.integers(0, 2**32, n, dtype=np.uint64)
        values &= (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)
        buf, nbits = pack_varlen(values, lengths)
        w = BitWriter()
        for v, width in zip(values, lengths):
            w.write(int(v), int(width))
        assert nbits == w.bit_length
        assert buf.tobytes() == w.getvalue()

    def test_unpack_inverts_pack(self, rng):
        n = 500
        lengths = rng.integers(0, 64, n)
        values = rng.integers(0, 2**63, n, dtype=np.uint64)
        values &= (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)
        buf, _ = pack_varlen(values, lengths)
        out = unpack_varlen(buf, lengths)
        np.testing.assert_array_equal(out, values)

    def test_unpack_with_bit_offset(self):
        values = np.array([0b101, 0b11], dtype=np.uint64)
        lengths = np.array([3, 2])
        buf, _ = pack_varlen(values, lengths)
        shifted = np.unpackbits(buf)[: 5]
        padded = np.concatenate([np.zeros(3, dtype=np.uint8), shifted])
        buf2 = np.packbits(padded)
        out = unpack_varlen(buf2, lengths, bit_offset=3)
        np.testing.assert_array_equal(out, values)

    def test_full_64bit_values(self):
        values = np.array([2**64 - 1, 2**63], dtype=np.uint64)
        lengths = np.array([64, 64])
        buf, nbits = pack_varlen(values, lengths)
        assert nbits == 128
        np.testing.assert_array_equal(unpack_varlen(buf, lengths), values)

    def test_zero_length_fields_contribute_nothing(self):
        values = np.array([7, 0, 5], dtype=np.uint64)
        lengths = np.array([3, 0, 3])
        buf, nbits = pack_varlen(values, lengths)
        assert nbits == 6
        out = unpack_varlen(buf, lengths)
        np.testing.assert_array_equal(out, [7, 0, 5])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pack_varlen(np.zeros(3, dtype=np.uint64), np.zeros(4, dtype=np.int64))

    def test_bad_lengths_raise(self):
        with pytest.raises(ValueError):
            pack_varlen(np.zeros(1, dtype=np.uint64), np.array([65]))
        with pytest.raises(ValueError):
            pack_varlen(np.zeros(1, dtype=np.uint64), np.array([-1]))

    def test_unpack_eof(self):
        with pytest.raises(EOFError):
            unpack_varlen(b"\x00", np.array([16]))

    @given(st.lists(st.integers(0, 24), min_size=1, max_size=80), st.integers(0, 2**31))
    def test_roundtrip_property(self, lens, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array(lens, dtype=np.int64)
        values = rng.integers(0, 2**24, lengths.size, dtype=np.uint64)
        values &= (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)
        buf, _ = pack_varlen(values, lengths)
        np.testing.assert_array_equal(unpack_varlen(buf, lengths), values)


class TestReadBitsAt:
    def test_reads_match_scalar_reader(self, rng):
        data = rng.integers(0, 256, 64, dtype=np.uint8)
        positions = rng.integers(0, 64 * 8 - 57, 100)
        for nbits in (1, 7, 8, 13, 32, 57):
            got = read_bits_at(data, positions, nbits)
            r = BitReader(data.tobytes())
            for p, g in zip(positions, got):
                r.seek(int(p))
                assert r.read(nbits) == int(g)

    def test_reads_past_end_are_zero_padded(self):
        buf = np.array([0xFF], dtype=np.uint8)
        got = read_bits_at(buf, np.array([4]), 8)
        assert got[0] == 0xF0

    def test_position_beyond_buffer_raises(self):
        with pytest.raises(EOFError):
            read_bits_at(np.array([0xFF], dtype=np.uint8), np.array([100]), 4)

    def test_invalid_width_raises(self):
        buf = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ValueError):
            read_bits_at(buf, np.array([0]), 58)
        with pytest.raises(ValueError):
            read_bits_at(buf, np.array([0]), 0)

    def test_negative_position_raises(self):
        with pytest.raises(ValueError):
            read_bits_at(np.zeros(4, dtype=np.uint8), np.array([-1]), 4)


class TestBitArrays:
    def test_bits_bytes_roundtrip(self, rng):
        bits = rng.integers(0, 2, 37, dtype=np.uint8)
        buf = bits_to_bytes(bits)
        back = bytes_to_bits(buf, 37)
        np.testing.assert_array_equal(back, bits)

    def test_bytes_to_bits_eof(self):
        with pytest.raises(EOFError):
            bytes_to_bits(b"\x00", 9)


class TestByteWindowsMemory:
    def test_peak_is_one_window_array(self):
        """The 8x window array is built through one copy: the traced peak
        stays within 1.25x of the result (two 8x copies at once gave
        2.12x)."""
        import tracemalloc

        payload = np.random.default_rng(0).integers(
            0, 256, 2_100_000, dtype=np.uint8
        )
        tracemalloc.start()
        try:
            windows = byte_windows64(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * windows.nbytes
