"""Corrupted/truncated containers must fail with a clean ``ValueError``.

Covers both generations: truncation of a v1 ('SZRP') container at every
byte boundary, truncation of a tiled v2 ('SZRT') container at every
section boundary, tile CRC mismatches, the header fields an attacker
(or a bad disk) can inflate into giant allocations, the zlib
``lossless_post`` wrapper ('SZPZ') around a v1 container, and seeded bit
flips in Huffman streams checked against the scalar decoder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chunked import (
    TiledReader,
    compress_tiled,
    decompress_region,
    decompress_tiled,
)
from repro.chunked.format import TAIL_BYTES
from repro.core import compress, container_info, decompress
from repro.core.lossless_post import is_wrapped


def _field(shape, seed=3):
    rng = np.random.default_rng(seed)
    return (
        np.sin(np.arange(np.prod(shape)).reshape(shape) / 9.0)
        + 0.05 * rng.standard_normal(shape)
    ).astype(np.float32)


class TestV1Truncation:
    def test_every_prefix_fails_cleanly(self):
        """Cutting a v1 container at *any* byte must raise ValueError or
        still decode to the recorded shape — never IndexError, KeyError,
        struct noise, or a giant allocation."""
        data = _field((12, 12))
        blob = compress(data, mode="rel", bound=1e-3)
        for cut in range(len(blob)):
            try:
                out = decompress(blob[:cut])
            except ValueError:
                continue
            assert out.shape == data.shape, f"cut at {cut}"

    def test_corrupt_unpred_count_rejected(self):
        """Regression: an inflated unpredictable count must be rejected
        before any allocation sized by it (was a MemoryError)."""
        data = _field((10, 14))
        blob = bytearray(compress(data, mode="rel", bound=1e-3))
        # unpred_count is the 48-bit field right before the Huffman
        # table; corrupt the header region until the reader objects.
        # Directly: unpred_count starts after magic(4)+ver..flags(5 bytes
        # of fields)... easier to just flip its high byte via known
        # layout: 4+1+1+1+1+1+1 = 10 bytes, then 2*6 shape, 8+8 floats.
        pos = 10 + 12 + 16  # first byte of unpred_count
        blob[pos] ^= 0xFF
        with pytest.raises(ValueError, match="unpredictable"):
            decompress(bytes(blob))

    def test_short_unpred_payload_rejected(self):
        """A payload too short for the recorded unpredictable count must
        raise ValueError, not leak a raw EOFError from the bit reader."""
        from repro.core.stream import Header, write_container
        from repro.encoding.huffman import HuffmanCodec

        codes = np.full(16, 1, dtype=np.int64)
        codec = HuffmanCodec.from_symbols(codes, 4)
        stream = codec.encode(codes)
        header = Header(np.dtype(np.float32), (4, 4), 2, 1, 1e-3, 1.0, 4)
        blob = write_container(header, codec, stream, b"")  # 0 payload bytes
        with pytest.raises(ValueError, match="corrupt"):
            decompress(blob)

    def test_corrupt_dtype_code_rejected(self):
        data = _field((8, 8))
        blob = bytearray(compress(data, mode="rel", bound=1e-3))
        blob[5] = 0x7F  # dtype code byte
        with pytest.raises(ValueError, match="dtype"):
            decompress(bytes(blob))

    @pytest.mark.parametrize("layers", [0, 5, 40, 200])
    def test_corrupt_layers_rejected(self, layers):
        """The reader rejects a layers byte outside [1, MAX_LAYERS]; the
        (layers+1)^d stencil it sized made 200 run for a minute and raise
        MemoryError, 40 return NaNs and 5 return silently wrong data."""
        data = _field((16, 16, 16))
        blob = bytearray(compress(data, mode="abs", bound=1e-3))
        blob[8] = layers  # layers byte
        with pytest.raises(ValueError, match="layers"):
            decompress(bytes(blob))

    def test_zero_extent_rejected(self):
        data = _field((8, 8))
        blob = bytearray(compress(data, mode="rel", bound=1e-3))
        # zero out the first shape field (48 bits starting at byte 10)
        for i in range(10, 16):
            blob[i] = 0
        with pytest.raises(ValueError):
            decompress(bytes(blob))


@pytest.mark.parametrize("mode", ["abs", "pw_rel"])
class TestZeroBlockSize:
    """A ``block_size`` of 0 in the Huffman stream sizes its block index
    by a division; it must be rejected as corrupt, not divide by zero."""

    @staticmethod
    def _corrupt(mode):
        from repro.core.stream import read_container

        blob = bytearray(compress(_field((16, 16, 16)), mode=mode, bound=1e-3))
        stream = read_container(bytes(blob))[2].to_bytes()
        start = bytes(blob).index(len(stream).to_bytes(6, "big") + stream) + 6
        blob[start + 6:start + 10] = bytes(4)  # block_size
        return bytes(blob)

    def test_decompress_rejects(self, mode):
        with pytest.raises(ValueError, match="block_size"):
            decompress(self._corrupt(mode))

    def test_container_info_rejects(self, mode):
        with pytest.raises(ValueError, match="block_size"):
            container_info(self._corrupt(mode))


class TestForgedSymbolCount:
    """The stream header's symbol count sizes the decoder's output array,
    so a forged count must be rejected before anything is allocated for
    it, by ``container_info`` as well as ``decompress``."""

    @pytest.fixture(scope="class")
    def container(self):
        from repro.core.stream import read_container

        blob = compress(_field((64, 64, 64)), mode="rel", bound=1e-4)
        stream = read_container(blob)[2].to_bytes()
        start = blob.index(len(stream).to_bytes(6, "big") + stream) + 6
        return blob, start

    @staticmethod
    def _forge(container, offset, field):
        blob, start = container
        out = bytearray(blob)
        out[start + offset : start + offset + len(field)] = field
        return bytes(out)

    @pytest.mark.parametrize("read", [decompress, container_info])
    def test_inflated_count_rejected(self, container, read):
        """64 x (2^32 - 1) symbols in blocks of 2^32 - 1 keep the
        64-entry block index parseable; the decoder then asked for a
        512 GiB output and raised MemoryError."""
        forged = self._forge(
            container, 0,
            (64 * (2**32 - 1)).to_bytes(6, "big") + (2**32 - 1).to_bytes(4, "big"),
        )
        with pytest.raises(ValueError, match="block index holds"):
            read(forged)

    @pytest.mark.parametrize("read", [decompress, container_info])
    def test_count_not_matching_shape_rejected(self, container, read):
        forged = self._forge(container, 0, (64**3 - 1).to_bytes(6, "big"))
        with pytest.raises(ValueError, match="262143 codes for 262144"):
            read(forged)

    @pytest.mark.parametrize("read", [decompress, container_info])
    def test_block_bits_past_payload_rejected(self, container, read):
        forged = self._forge(container, 16, bytes([0xFF] * 5))
        with pytest.raises(ValueError, match="block index holds"):
            read(forged)


class TestTwoLevelTableBudget:
    """A Kraft-valid length table can ask the two-level decode table for
    thousands of deep subtables; they are counted before any is
    allocated."""

    def test_deep_subtables_rejected_in_bounded_memory(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.core.stream import Header, write_container
        from repro.encoding.huffman import HuffmanCodec

        # 8000 codes of 14 bits (4000 distinct 13-bit prefixes) and one
        # of 32: every prefix wanted its own 2^19-entry subtable, 16 GB.
        lengths = np.zeros(1 << 13, dtype=np.int64)
        lengths[:8000] = 14
        lengths[8000] = 32
        codec = HuffmanCodec(lengths)
        header = Header(np.dtype(np.float32), (64, 64), 13, 1, 1e-3, 1.0, 0)
        codes = np.arange(64 * 64) % 8001
        path = tmp_path / "deep.sz"
        path.write_bytes(write_container(header, codec, codec.encode(codes), b""))
        # Decode under a 2 GB address-space cap, so that a build that
        # does allocate them fails with MemoryError instead of taking
        # the host's memory.
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from repro.core import decompress\n"
            "try:\n"
            "    decompress(open(sys.argv[1], 'rb').read())\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).parents[1]),
            "OPENBLAS_NUM_THREADS": "1",
        }
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.stdout.startswith("ValueError"), proc.stdout + proc.stderr
        assert "16781410304 bytes" in proc.stdout


class TestV2Truncation:
    @pytest.fixture()
    def container(self):
        data = _field((24, 20))
        return data, compress_tiled(data, tile_shape=(8, 8), mode="rel", bound=1e-3)

    def test_every_prefix_fails_cleanly(self, container):
        """Truncating a v2 container at any byte — header, any tile
        payload, index, or tail — must raise a clean ValueError."""
        _, blob = container
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                decompress_tiled(blob[:cut])

    def test_section_boundaries(self, container):
        """Exact cuts at each section boundary (header end, each tile
        end, index start/end, tail) fail cleanly."""
        _, blob = container
        with TiledReader(blob) as reader:
            cuts = {reader.header.header_bytes}
            for entry in reader.entries:
                cuts.add(entry.offset)
                cuts.add(entry.offset + entry.length)
            cuts.add(len(blob) - TAIL_BYTES)
            cuts.add(len(blob) - 1)
        for cut in sorted(cuts):
            with pytest.raises(ValueError):
                decompress_tiled(blob[:cut])

    def test_tile_crc_mismatch(self, container):
        _, blob = container
        with TiledReader(blob) as reader:
            entry = reader.entries[2]
        corrupt = bytearray(blob)
        corrupt[entry.offset + entry.length // 2] ^= 0x40
        with pytest.raises(ValueError, match="CRC"):
            decompress_tiled(bytes(corrupt))
        # a region read not touching tile 2 still succeeds
        with TiledReader(bytes(corrupt)) as reader:
            sl, _ = reader.grid.normalize_region((slice(0, 8), slice(0, 8)))
            assert 2 not in reader.grid.tiles_intersecting(sl)
        out = decompress_region(bytes(corrupt), (slice(0, 8), slice(0, 8)))
        assert out.shape == (8, 8)

    def test_index_crc_mismatch(self, container):
        _, blob = container
        corrupt = bytearray(blob)
        corrupt[len(blob) - TAIL_BYTES - 5] ^= 0x01  # inside the index
        with pytest.raises(ValueError, match="index CRC"):
            decompress_tiled(bytes(corrupt))

    def test_bad_end_magic(self, container):
        _, blob = container
        corrupt = bytearray(blob)
        corrupt[-1] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            decompress_tiled(bytes(corrupt))

    def test_bad_leading_magic(self, container):
        _, blob = container
        corrupt = b"XXXX" + blob[4:]
        with pytest.raises(ValueError, match="magic"):
            decompress_tiled(corrupt)

    def test_bad_version(self, container):
        _, blob = container
        corrupt = bytearray(blob)
        corrupt[4] = 99
        with pytest.raises(ValueError, match="version"):
            decompress_tiled(bytes(corrupt))

    def test_index_offset_past_end(self, container):
        _, blob = container
        corrupt = bytearray(blob)
        # inflate the tail's index offset
        corrupt[len(blob) - TAIL_BYTES] = 0x7F
        with pytest.raises(ValueError):
            decompress_tiled(bytes(corrupt))

    def test_truncated_file_source(self, container, tmp_path):
        _, blob = container
        path = tmp_path / "cut.szt"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            decompress_tiled(str(path))

    def test_empty_and_tiny_blobs(self):
        for blob in (b"", b"SZRT", b"SZRT" + b"\x00" * 10):
            with pytest.raises(ValueError):
                decompress_tiled(blob)


class TestWrappedContainer:
    """zlib's Adler-32 plus the recorded inner length turn every cut or
    flipped ``lossless_post`` container into a clean ``ValueError``."""

    @pytest.fixture(params=["abs", "pw_rel"])
    def wrapped(self, request):
        data = _field((16, 16, 16))
        blob = compress(data, mode=request.param, bound=1e-3, lossless_post=True)
        assert is_wrapped(blob)
        return blob

    def test_every_prefix_fails_cleanly(self, wrapped):
        for cut in range(len(wrapped)):
            with pytest.raises(ValueError):
                decompress(wrapped[:cut])
            with pytest.raises(ValueError):
                container_info(wrapped[:cut])

    def test_seeded_bit_flips_all_raise(self, wrapped):
        flip_rng = np.random.default_rng(1)
        for trial in range(200):
            corrupt = bytearray(wrapped)
            nbits = int(flip_rng.integers(1, 4))
            for bit in flip_rng.choice(8 * len(wrapped), nbits, replace=False):
                corrupt[bit // 8] ^= 1 << (bit % 8)
            try:
                decompress(bytes(corrupt))
            except ValueError:
                continue
            pytest.fail(f"flip trial {trial} decoded silently")

    def test_retired_szpp_wrapper_named(self, wrapped):
        blob = b"SZPP" + wrapped[4:]
        for read in (decompress, container_info):
            with pytest.raises(ValueError, match="retired.*SZPP"):
                read(blob)


class TestCodesOutsideAlphabet:
    """A code at or above ``2^m`` is corrupt, whichever coder stored it:
    it would dequantize to a value far outside the recorded bound."""

    def test_huffman_table_wider_than_interval_bits(self):
        """An m = 8 container re-encoded over a 512-symbol table holding
        code 300 decoded silently, most values beyond the bound."""
        from repro.core.stream import read_container, write_container
        from repro.encoding.huffman import HuffmanCodec

        data = _field((64, 64))
        blob = compress(data, mode="abs", bound=1e-3, interval_bits=8)
        header, codec, stream, unpred, _, _ = read_container(blob)
        assert codec is not None and stream is not None
        codes = codec.decode(stream).astype(np.int64)
        codes[len(codes) // 2] = 300
        wide = HuffmanCodec.from_symbols(codes, 512)
        forged = write_container(
            header, wide, wide.encode(codes), bytes(unpred)
        )
        for read in (decompress, container_info):
            with pytest.raises(ValueError, match="512 symbols.*need 256"):
                read(forged)

    def test_arithmetic_flips_never_return_out_of_range_codes(self):
        """Seeded 1-3-bit flips of an arithmetic payload either raise
        ``ValueError`` or decode to codes inside ``[0, 2^m)``."""
        from repro.core.stream import read_container
        from repro.encoding.coders import EntropyPayload, get_entropy_coder

        data = _field((32, 32))
        blob = compress(
            data, mode="abs", bound=1e-3, interval_bits=8,
            entropy_coder="arithmetic",
        )
        header, *_, arith = read_container(blob)
        coder = get_entropy_coder("arithmetic")
        flip_rng = np.random.default_rng(5)
        rejected = 0
        for trial in range(300):
            corrupt = bytearray(arith)
            nbits = int(flip_rng.integers(1, 4))
            for bit in flip_rng.choice(8 * len(arith), nbits, replace=False):
                corrupt[bit // 8] ^= 1 << (bit % 8)
            payload = EntropyPayload(
                coder.coder_id, header.flags, raw=bytes(corrupt)
            )
            try:
                codes = coder.decode(
                    payload, expected=data.size, interval_bits=8
                )
            except ValueError:
                rejected += 1
                continue
            assert 0 <= int(codes.min()) <= int(codes.max()) < 256, (
                f"flip trial {trial}"
            )
            assert codes.dtype == np.uint16
        assert rejected > 0  # the sweep does reach out-of-range codes


class TestHuffmanStreamBitFlips:
    """Seeded differential fuzz of the Huffman decoder on its stream
    format: 1-3 bit flips in the block index and payload of a stream
    whose codes all fit 16 bits, and of one with 23-bit codes, which
    escape to the two-level table.  Each corrupt stream must decode to
    ``decode_scalar``'s output or raise ``ValueError``: never another
    exception, nor output of the wrong length."""

    @staticmethod
    def _stream(longest: int):
        # The chain code 1, 2, ..., longest, longest, its symbols priced
        # by their lengths, and a longest code every 50 symbols.
        from repro.encoding.huffman import HuffmanCodec

        lengths = np.concatenate([np.arange(1, longest + 1), [longest]])
        codec = HuffmanCodec(lengths)
        present = np.flatnonzero(lengths)
        p = np.exp2(-lengths.astype(np.float64))
        rng = np.random.default_rng(longest)
        symbols = rng.choice(present, 2000, p=p / p.sum())
        symbols[::50] = present[-1]
        return codec, codec.encode(symbols, block_size=128).to_bytes()

    @pytest.mark.parametrize("longest", [16, 23])
    def test_flips_decode_as_scalar_or_raise(self, longest):
        from repro.encoding.huffman import EncodedStream

        codec, blob = self._stream(longest)
        rng = np.random.default_rng(1)
        rejected = decoded = 0
        for trial in range(100):
            corrupt = bytearray(blob)
            body_bits = np.arange(8 * 16, 8 * len(blob))  # past the header
            for bit in rng.choice(body_bits, rng.integers(1, 4), replace=False):
                corrupt[bit >> 3] ^= 0x80 >> (bit & 7)
            try:
                stream = EncodedStream.from_bytes(bytes(corrupt))
            except (EOFError, ValueError):
                continue  # the framing checks caught it
            try:
                ref = codec.decode_scalar(stream)
            except (EOFError, ValueError):
                ref = None
            try:
                got = codec.decode(stream)
            except ValueError:
                rejected += 1
                continue
            assert ref is not None, f"flip trial {trial}"
            assert got.shape == (stream.n_symbols,)
            np.testing.assert_array_equal(got, ref, err_msg=f"trial {trial}")
            decoded += 1
        assert rejected > 50
