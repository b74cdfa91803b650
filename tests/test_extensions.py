"""Tests for out-of-paper extensions: arithmetic coding, lossless post-pass.

These are the paper's "future work" directions (better entropy coding,
additional lossless stage), implemented as opt-in flags.
"""

from __future__ import annotations

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compress, compress_with_stats, decompress
from repro.core.compressor import container_info
from repro.core.lossless_post import inflate_exact, is_wrapped, unwrap, wrap
from repro.encoding.arithmetic import (
    decode_symbols,
    encode_symbols,
    unzigzag,
    zigzag,
)
from repro.metrics import verify_bound


class TestZigzag:
    def test_known_values(self):
        np.testing.assert_array_equal(
            zigzag(np.array([0, -1, 1, -2, 2])), [0, 1, 2, 3, 4]
        )

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=50))
    def test_roundtrip(self, vals):
        arr = np.array(vals, dtype=np.int64)
        np.testing.assert_array_equal(unzigzag(zigzag(arr)), arr)


class TestArithmeticCoder:
    def test_roundtrip_basic(self, rng):
        symbols = rng.integers(0, 256, 2000)
        data = encode_symbols(symbols, max_bits=9)
        np.testing.assert_array_equal(decode_symbols(data, 2000, 9), symbols)

    def test_roundtrip_skewed(self, rng):
        symbols = np.where(rng.random(3000) < 0.9, 128, rng.integers(0, 256, 3000))
        data = encode_symbols(symbols, max_bits=9)
        np.testing.assert_array_equal(decode_symbols(data, 3000, 9), symbols)

    def test_beats_fixed_width_on_skewed_source(self, rng):
        """Adaptive contexts should land well under the 8-bit raw cost."""
        symbols = np.abs(np.rint(3 * rng.standard_normal(5000))).astype(np.int64)
        data = encode_symbols(symbols, max_bits=9)
        assert len(data) * 8 < 0.6 * symbols.size * 8

    def test_empty_and_single(self):
        assert decode_symbols(encode_symbols(np.array([], dtype=np.int64)), 0).size == 0
        np.testing.assert_array_equal(
            decode_symbols(encode_symbols(np.array([42])), 1), [42]
        )

    def test_zeros(self):
        symbols = np.zeros(500, dtype=np.int64)
        data = encode_symbols(symbols, max_bits=4)
        assert len(data) < 100  # ~one adaptive bit per symbol, then less
        np.testing.assert_array_equal(decode_symbols(data, 500, 4), symbols)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_symbols(np.array([-1]))

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            encode_symbols(np.array([256]), max_bits=8)

    def test_densest_stream_round_trips(self):
        # 10^6 zero symbols take 1,369 bytes (730 per byte), the most a
        # byte can hold; the decoder's symbols-per-byte check passes it.
        symbols = np.zeros(10**6, dtype=np.int64)
        data = encode_symbols(symbols, max_bits=10)
        assert symbols.size / len(data) > 700
        np.testing.assert_array_equal(
            decode_symbols(data, symbols.size, 10), symbols
        )

    def test_count_beyond_the_bytes_rejected_before_allocating(self):
        data = encode_symbols(np.zeros(100, dtype=np.int64), max_bits=10)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cannot fit"):
                decode_symbols(data, 2**40, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_forged_shape_in_container_raises_value_error(self):
        # Bit 148 sits in the header's shape: (16, 16, 16) reads as
        # (16, 134217744, 16), whose 2^35 codes once reached np.zeros as
        # a 256 GiB MemoryError.
        data = np.random.default_rng(0).standard_normal((16, 16, 16))
        blob = bytearray(compress(data.astype(np.float32), mode="abs",
                                  bound=1e-2, entropy_coder="arithmetic"))
        blob[18] ^= 0x08
        assert container_info(bytes(blob))["shape"] == (16, 134217744, 16)
        with pytest.raises(ValueError, match="cannot fit"):
            decompress(bytes(blob))

    @given(st.integers(1, 2**31), st.integers(1, 12))
    @settings(max_examples=10)
    def test_roundtrip_property(self, seed, max_bits):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 300))
        symbols = rng.integers(0, 1 << max_bits, n)
        data = encode_symbols(symbols, max_bits=max_bits + 1)
        np.testing.assert_array_equal(
            decode_symbols(data, n, max_bits + 1), symbols
        )


class TestLosslessPost:
    def test_wrap_unwrap(self):
        blob = b"some container bytes " * 50
        wrapped = wrap(blob)
        assert is_wrapped(wrapped)
        assert unwrap(wrapped) == blob
        assert unwrap(memoryview(wrapped)) == blob

    def test_wrapped_layout(self):
        """Magic, then the inner length as 8 big-endian bytes, then zlib."""
        blob = b"some container bytes " * 50
        wrapped = wrap(blob)
        assert wrapped[:4] == b"SZPZ"
        assert int.from_bytes(wrapped[4:12], "big") == len(blob)
        assert zlib.decompress(wrapped[12:]) == blob

    def test_plain_passthrough(self):
        blob = b"SZRP" + b"\x01" * 100
        assert unwrap(blob) == blob

    def test_incompressible_kept_plain(self, rng):
        blob = rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
        assert wrap(blob) == blob  # wrapping would grow it

    @given(st.binary(max_size=400), st.integers(0, 3))
    def test_roundtrip_property(self, body, repeats):
        """Wrapped or kept plain, any container comes back unchanged."""
        blob = b"SZRP" + body * (1 + repeats)
        packed = wrap(blob)
        assert len(packed) <= len(blob)
        assert is_wrapped(packed) == (packed != blob)
        assert unwrap(packed) == blob


class TestInflateExact:
    def test_exact_roundtrip(self):
        for raw in (b"", b"x", b"abc" * 1000):
            assert inflate_exact(zlib.compress(raw), len(raw)) == raw

    @pytest.mark.parametrize("n", [0, 2, 4, 10])
    def test_wrong_length_rejected(self, n):
        with pytest.raises(ValueError, match="exactly"):
            inflate_exact(zlib.compress(b"abc"), n)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="exactly"):
            inflate_exact(zlib.compress(b"abc") + b"\x00", 3)

    def test_garbage_maps_to_value_error(self):
        with pytest.raises(ValueError, match="corrupt zlib stream"):
            inflate_exact(b"\xff" * 16, 3)

    def test_impossible_length_rejected_before_inflating(self):
        with pytest.raises(ValueError, match="cannot inflate"):
            inflate_exact(zlib.compress(b"abc"), 2**70)

    def test_bomb_stops_at_the_recorded_length(self):
        """A stream of 16 MiB of zeros claiming 4 KiB never allocates
        the 16 MiB: inflation stops at the claimed length."""
        deflater = zlib.compressobj()
        chunk = bytes(1 << 20)
        bomb = b"".join(deflater.compress(chunk) for _ in range(16))
        bomb += deflater.flush()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exactly"):
                inflate_exact(bomb, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestCompressorIntegration:
    def test_arithmetic_coder_roundtrip(self, smooth2d):
        small = smooth2d[:24, :32]
        blob = compress(small, mode="rel", bound=1e-3, entropy_coder="arithmetic")
        out = decompress(blob)
        eb = 1e-3 * float(small.max() - small.min())
        assert np.abs(out - small).max() <= eb

    def test_arithmetic_competitive_with_huffman(self, smooth2d):
        small = smooth2d[:32, :40]
        h = len(compress(small, mode="rel", bound=1e-3))
        a = len(compress(small, mode="rel", bound=1e-3, entropy_coder="arithmetic"))
        # no Huffman table in the container and sub-bit codes: the range
        # coder should be in the same ballpark or better on skewed codes
        assert a < 1.3 * h

    def test_unknown_coder_rejected(self, smooth2d):
        with pytest.raises(ValueError):
            compress(smooth2d, mode="rel", bound=1e-3, entropy_coder="zstd")

    def test_lossless_post_roundtrip(self, smooth2d):
        """pw_rel's sign and flag planes compress well, so this wraps."""
        blob, stats = compress_with_stats(
            smooth2d, mode="pw_rel", bound=1e-3, lossless_post=True
        )
        assert is_wrapped(blob)
        assert stats.compressed_bytes == len(blob)
        out = decompress(blob)
        plain = compress(smooth2d, mode="pw_rel", bound=1e-3)
        np.testing.assert_array_equal(out, decompress(plain))
        assert verify_bound(smooth2d, out, "pw_rel", 1e-3)["ok"]

    @pytest.mark.parametrize("mode", ["rel", "pw_rel"])
    def test_lossless_post_never_larger(self, smooth2d, mode):
        plain = compress(smooth2d, mode=mode, bound=1e-3)
        post = compress(smooth2d, mode=mode, bound=1e-3, lossless_post=True)
        # zlib would grow the rel container, so it stays plain
        assert is_wrapped(post) == (mode == "pw_rel")
        assert len(post) <= len(plain)

    def test_combined_options(self, smooth2d):
        small = smooth2d[:20, :20]
        blob = compress(
            small, mode="pw_rel", bound=1e-2, entropy_coder="arithmetic",
            lossless_post=True, layers=2,
        )
        assert is_wrapped(blob)
        out = decompress(blob)
        assert verify_bound(small, out, "pw_rel", 1e-2)["ok"]
