"""End-to-end tests of the SZ-1.4 compressor API.

The headline invariant: for every finite input and every positive bound,
``max |x - decompress(compress(x))| <= eb`` — the paper's error-control
guarantee (Metric 1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import DEFAULT_THETA, SZConfig
from repro.core import (
    compress,
    compress_with_stats,
    decompress,
)
from repro.core.stream import read_container


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(300,), (24, 37), (8, 10, 12)])
    def test_abs_bound_guarantee(self, dtype, shape, rng):
        data = (rng.standard_normal(shape) * 7).astype(dtype)
        eb = 0.01
        out = decompress(compress(data, mode="abs", bound=eb))
        assert out.shape == data.shape and out.dtype == data.dtype
        assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= eb

    def test_rel_bound_guarantee(self, smooth2d):
        rel = 1e-4
        out = decompress(compress(smooth2d, mode="rel", bound=rel))
        rng_ = float(smooth2d.max() - smooth2d.min())
        assert np.abs(out - smooth2d).max() <= rel * rng_

    def test_both_bounds_tighter_wins(self, smooth2d):
        # The combined pair has no mode=/bound= spelling; it is an
        # explicit ErrorBound inside a config.
        from repro.api import SZConfig
        from repro.core import ErrorBound

        rng_ = float(smooth2d.max() - smooth2d.min())
        spec = ErrorBound.from_args(abs_bound=1.0, rel_bound=1e-5)
        blob, stats = compress_with_stats(smooth2d, config=SZConfig(spec))
        assert stats.eb_abs == pytest.approx(min(1.0, 1e-5 * rng_))
        out = decompress(blob)
        assert np.abs(out - smooth2d).max() <= 1e-5 * rng_

    def test_spiky_data(self, spiky2d):
        eb = 1e-4 * float(spiky2d.max() - spiky2d.min())
        blob, stats = compress_with_stats(spiky2d, mode="abs", bound=eb)
        out = decompress(blob)
        assert np.abs(out - spiky2d).max() <= eb
        assert stats.n_unpredictable >= 0

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_layers(self, layers, smooth2d):
        blob = compress(smooth2d, mode="rel", bound=1e-3, layers=layers)
        out = decompress(blob)
        rng_ = float(smooth2d.max() - smooth2d.min())
        assert np.abs(out - smooth2d).max() <= 1e-3 * rng_

    @pytest.mark.parametrize("m", [4, 8, 12, 16])
    def test_interval_bits(self, m, smooth2d):
        blob = compress(smooth2d, mode="rel", bound=1e-3, interval_bits=m)
        out = decompress(blob)
        rng_ = float(smooth2d.max() - smooth2d.min())
        assert np.abs(out - smooth2d).max() <= 1e-3 * rng_

    def test_constant_array(self):
        data = np.full((40, 50), 3.25, dtype=np.float32)
        blob, stats = compress_with_stats(data, mode="rel", bound=1e-4)
        assert len(blob) < 120
        out = decompress(blob)
        np.testing.assert_array_equal(out, data)
        assert stats.compression_factor > 60

    def test_nan_inf_roundtrip(self):
        data = np.ones((10, 10), dtype=np.float64)
        data[3, 4] = np.nan
        data[7, 2] = np.inf
        out = decompress(compress(data, mode="abs", bound=1e-3))
        assert np.isnan(out[3, 4]) and np.isinf(out[7, 2])

    def test_1d_roundtrip(self, rng):
        data = np.cumsum(rng.standard_normal(2000)).astype(np.float32)
        eb = 1e-3 * float(data.max() - data.min())
        out = decompress(compress(data, mode="abs", bound=eb))
        assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= eb

    def test_4d_roundtrip(self, rng):
        data = rng.standard_normal((4, 5, 6, 7))
        out = decompress(compress(data, mode="abs", bound=0.01))
        assert np.abs(out - data).max() <= 0.01

    @given(
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from([1e-2, 1e-4, 1e-6]),
        st.integers(1, 2**31),
    )
    @settings(max_examples=12)
    def test_bound_property(self, dtype, rel, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(3, 20, size=rng.integers(1, 4)))
        data = (np.cumsum(rng.standard_normal(int(np.prod(shape)))) ).reshape(shape).astype(dtype)
        value_range = float(data.max() - data.min())
        if value_range == 0:
            return
        out = decompress(compress(data, mode="rel", bound=rel))
        assert (
            np.abs(out.astype(np.float64) - data.astype(np.float64)).max()
            <= rel * value_range
        )


class TestStats:
    def test_cf_bitrate_identity(self, smooth2d):
        """Paper: BR(F) * CF(F) == 32 for single precision (Eq. 5/6)."""
        _, stats = compress_with_stats(smooth2d, mode="rel", bound=1e-3)
        assert stats.bit_rate * stats.compression_factor == pytest.approx(32.0)

    def test_hit_rate_and_histogram(self, smooth2d):
        _, stats = compress_with_stats(smooth2d, mode="rel", bound=1e-3)
        assert 0.0 <= stats.hit_rate <= 1.0
        assert stats.code_histogram.sum() == smooth2d.size
        assert stats.code_histogram[0] == stats.n_unpredictable

    def test_smooth_beats_noise(self, rng, smooth2d):
        noise = rng.standard_normal(smooth2d.shape).astype(np.float32)
        _, s_smooth = compress_with_stats(smooth2d, mode="rel", bound=1e-3)
        _, s_noise = compress_with_stats(noise, mode="rel", bound=1e-3)
        assert s_smooth.compression_factor > s_noise.compression_factor

    def test_looser_bound_higher_cf(self, smooth2d):
        _, loose = compress_with_stats(smooth2d, mode="rel", bound=1e-2)
        _, tight = compress_with_stats(smooth2d, mode="rel", bound=1e-6)
        assert loose.compression_factor > tight.compression_factor

    def test_adaptive_raises_m_on_hard_data(self, rng):
        data = rng.standard_normal((64, 64)).astype(np.float32)
        _, stats = compress_with_stats(
            data, mode="rel", bound=1e-5, interval_bits=2, adaptive=True, theta=0.9
        )
        assert stats.interval_bits > 2
        assert stats.adaptive_attempts > 1


class TestAdaptiveIntervals:
    """The interval count against the hitting rate (paper Section IV-B).

    Every rate here is the real quantizer's, as ``adaptive=True`` reruns
    it: there is no sampled estimate to drift from the codec.
    """

    @staticmethod
    def stats(data, **kw):
        return compress_with_stats(data, **kw)[1]

    def test_smooth_data_high_hit_rate(self, smooth2d):
        stats = self.stats(smooth2d, mode="rel", bound=1e-2, interval_bits=8)
        assert stats.hit_rate > 0.95

    def test_hit_rate_collapses_at_tight_bounds(self, smooth2d):
        """Fig. 4: the hitting rate drops sharply once the bound is too
        tight for the interval count."""
        loose = self.stats(smooth2d, mode="rel", bound=1e-2, interval_bits=4)
        tight = self.stats(smooth2d, mode="rel", bound=1e-7, interval_bits=4)
        assert loose.hit_rate > 0.8
        assert tight.hit_rate < 0.5 * loose.hit_rate

    def test_more_intervals_cover_tighter_bounds(self, smooth2d):
        small = self.stats(smooth2d, mode="rel", bound=1e-5, interval_bits=4)
        large = self.stats(smooth2d, mode="rel", bound=1e-5, interval_bits=12)
        assert large.hit_rate > small.hit_rate

    def test_monotone_in_interval_bits(self, spiky2d):
        rates = [
            self.stats(spiky2d, mode="rel", bound=1e-4, interval_bits=m).hit_rate
            for m in (2, 4, 8, 12, 16)
        ]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_easy_data_keeps_configured_m(self, smooth2d):
        stats = self.stats(smooth2d, mode="rel", bound=1e-2, adaptive=True)
        assert stats.interval_bits == 8
        assert stats.adaptive_attempts == 1

    def test_tighter_bound_needs_larger_m(self, rng):
        noise = rng.standard_normal((128, 128))
        m = [
            self.stats(
                noise, mode="rel", bound=rel, interval_bits=2, adaptive=True
            ).interval_bits
            for rel in (1e-1, 1e-3, 1e-6)
        ]
        assert m[0] < m[1] < m[2]

    def test_stops_at_first_m_reaching_theta(self, rng):
        noise = rng.standard_normal((128, 128))
        kw = dict(mode="rel", bound=1e-3)
        chosen = self.stats(noise, interval_bits=2, adaptive=True, **kw)
        assert chosen.interval_bits < 16
        assert chosen.hit_rate >= DEFAULT_THETA
        # One step (two bits) fewer falls short, so no smaller m of the
        # retry sequence would do.
        fewer = self.stats(noise, interval_bits=chosen.interval_bits - 2, **kw)
        assert fewer.hit_rate < DEFAULT_THETA

    def test_grows_two_bits_a_retry_up_to_the_ceiling(self, rng):
        white = rng.standard_normal(4096)
        stats = self.stats(
            white, mode="abs", bound=1e-12, interval_bits=3, adaptive=True
        )
        # 3, 5, ..., 15, then clamped to 16: the largest count is kept
        # even though it still misses the target.
        assert stats.interval_bits == 16
        assert stats.adaptive_attempts == 8
        assert stats.hit_rate < DEFAULT_THETA

    def test_default_theta(self):
        assert DEFAULT_THETA == 0.99
        assert SZConfig(("abs", 1.0)).theta == DEFAULT_THETA


class TestValidation:
    def test_no_bound_raises(self, smooth2d):
        with pytest.raises(ValueError):
            compress(smooth2d)

    def test_nonpositive_bounds_raise(self, smooth2d):
        with pytest.raises(ValueError):
            compress(smooth2d, mode="abs", bound=0.0)
        with pytest.raises(ValueError):
            compress(smooth2d, mode="rel", bound=-1e-3)

    def test_int_dtype_raises(self):
        with pytest.raises(TypeError):
            compress(np.arange(10), mode="abs", bound=0.1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            compress(np.zeros((0, 3), dtype=np.float32), mode="abs", bound=0.1)

    def test_rel_bound_on_constant_is_handled(self):
        data = np.full(100, 5.0, dtype=np.float64)
        out = decompress(compress(data, mode="rel", bound=1e-4))
        np.testing.assert_array_equal(out, data)

    def test_garbage_blob_raises(self):
        with pytest.raises(ValueError):
            decompress(b"this is not a container at all")

    def test_truncated_blob_raises(self, smooth2d):
        blob = compress(smooth2d, mode="rel", bound=1e-3)
        with pytest.raises(ValueError):
            decompress(blob[: len(blob) // 2])

    def test_header_fields(self, smooth2d):
        blob = compress(smooth2d, mode="rel", bound=1e-3, layers=2, interval_bits=10)
        header, codec, stream, payload, _, _ = read_container(blob)
        assert header.shape == smooth2d.shape
        assert header.layers == 2
        assert header.interval_bits == 10
        assert header.dtype == np.float32
        assert header.value_range == pytest.approx(
            float(smooth2d.max() - smooth2d.min())
        )


class TestKeptReconstruction:
    """The kernel keeps a reconstruction only where the compressor reads
    it: the ``pw_rel`` repair and the ``psnr`` check do, the plain
    ``abs``/``rel`` encode path does not."""

    @pytest.mark.parametrize(
        "mode,bound,reads",
        [("abs", 1e-3, False), ("rel", 1e-4, False),
         ("pw_rel", 1e-3, True), ("psnr", 60.0, True)],
        ids=["abs", "rel", "pw_rel", "psnr"],
    )
    def test_only_verifying_modes_keep_the_reconstruction(
        self, monkeypatch, mode, bound, reads
    ):
        from repro.core import compressor as comp

        kept = []
        kernel = comp.wavefront_compress

        def spy(*args, **kwargs):
            kept.append(kwargs["keep_recon"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(comp, "wavefront_compress", spy)
        rng = np.random.default_rng(6)
        data = (np.abs(np.cumsum(rng.normal(0, 0.1, 7 * 11 * 5)))
                + 0.5).reshape(7, 11, 5).astype(np.float32)
        blob = compress(data, mode=mode, bound=bound)
        assert kept and set(kept) == {reads}
        out = decompress(blob)
        assert out.shape == data.shape and out.dtype == data.dtype


class TestPlanPerCall:
    """Each kernel pass and each decompress builds its plan through the
    compressor's ``WavefrontPlan`` name, the one the benchmark's
    ``wavefront.plan`` layer wraps; nothing caches a plan."""

    def test_every_call_builds_its_plan(self, monkeypatch):
        from repro.core import compressor as comp

        built = []
        plan_class = comp.WavefrontPlan

        def spy(shape, layers):
            built.append((tuple(shape), layers))
            return plan_class(shape, layers)

        monkeypatch.setattr(comp, "WavefrontPlan", spy)
        data = np.linspace(0, 1, 9 * 13, dtype=np.float32).reshape(9, 13)
        for _ in range(2):
            decompress(compress(data, mode="abs", bound=1e-3))
        assert built == [((9, 13), 1)] * 4


class TestThreadedCalls:
    """Nothing the codec keeps between calls is shared unsafely: threads
    compressing and decompressing many distinct shapes at once get the
    bytes and arrays of serial calls."""

    SHAPES = [(5 + i % 8, 6 + i) for i in range(40)]

    def test_threads_match_serial(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(11)
        fields = [np.cumsum(rng.normal(0, 0.1, int(np.prod(s))))
                  .reshape(s).astype(np.float32) for s in self.SHAPES]

        def roundtrip(field):
            blob = compress(field, mode="abs", bound=1e-3)
            return blob, decompress(blob)

        serial = [roundtrip(f) for f in fields]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(roundtrip, f) for f in fields * 3]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (blob, out), (ref_blob, ref_out) in zip(threaded, serial * 3):
            assert blob == ref_blob
            np.testing.assert_array_equal(out, ref_out)


class TestMemoryCeiling:
    """Codes travel as uint16 and the Huffman pack works in chunks, so
    neither direction holds 8-byte-per-value arrays of codes and the
    traced peak stays within 6x the input bytes.  Int64 codes and a
    whole-array pack reach 14.1x to compress and 6.7x to decompress.

    An ``abs``/``rel`` compress also keeps no reconstruction and stores
    the kernel's offsets as float32, so it stays within 3.5x: 3.09x
    (``rel``) and 2.72x (``abs``), against 4.49x and 4.05x with a
    reconstruction and float64 offsets."""

    @pytest.fixture(scope="class")
    def data(self):
        z, y, x = np.ogrid[0:6:64j, 0:6:256j, 0:6:256j]
        field = np.sin(x + 0.5 * y) * np.cos(z)
        noise = np.random.default_rng(0).standard_normal(field.shape)
        return (field + 0.01 * noise).astype(np.float32)

    @staticmethod
    def _traced_peak(run):
        import tracemalloc

        run()  # first-call costs (imports, decode tables) stay out
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_traced_peak_within_six_times_the_input(self, data):
        blob = compress(data, mode="rel", bound=1e-4)
        peak = self._traced_peak(lambda: decompress(blob))
        assert peak <= 6 * data.nbytes, (
            f"decompress peak {peak / data.nbytes:.2f}x the input"
        )

    def test_outlier_heavy_field_within_bounded_multiples(self, data):
        """At ``abs`` 1e-4 about a third of the field is unpredictable.
        Its values pack through 8-byte windows, not a bit matrix of one
        byte per bit, so the compress peak stays within 12x the input
        and the decompress peak within 14x."""
        blob, stats = compress_with_stats(data, mode="abs", bound=1e-4)
        assert stats.n_unpredictable > data.size // 4
        peak = self._traced_peak(lambda: compress(data, mode="abs", bound=1e-4))
        assert peak <= 12 * data.nbytes, (
            f"compress peak {peak / data.nbytes:.2f}x the input"
        )
        peak = self._traced_peak(lambda: decompress(blob))
        assert peak <= 14 * data.nbytes, (
            f"decompress peak {peak / data.nbytes:.2f}x the input"
        )

    def test_raw_float64_unpredictables_within_bounded_multiples(self):
        """Raw float64 words (here the NaN half of a million values) are
        wider than one 8-byte window.  They pack as a high and a low
        field of at most 32 bits through the window paths, not through a
        bit matrix of one byte per bit, so encoding peaks within 12x the
        input and decoding within 10x (16.2x and 15.7x with the bit
        matrix)."""
        from repro.core.unpredictable import (
            decode_unpredictable,
            encode_unpredictable,
        )

        rng = np.random.default_rng(0)
        values = 1e3 * rng.standard_normal(1_000_000)
        values[rng.random(values.size) < 0.5] = np.nan
        payload = encode_unpredictable(values, 1e-4)
        peak = self._traced_peak(lambda: encode_unpredictable(values, 1e-4))
        assert peak <= 12 * values.nbytes, (
            f"encode peak {peak / values.nbytes:.2f}x the input"
        )
        peak = self._traced_peak(
            lambda: decode_unpredictable(payload, values.size, 1e-4, values.dtype)
        )
        assert peak <= 10 * values.nbytes, (
            f"decode peak {peak / values.nbytes:.2f}x the input"
        )

    @pytest.mark.parametrize("mode,bound", [("abs", 1e-3), ("rel", 1e-4)],
                             ids=["abs", "rel"])
    def test_compress_within_three_and_a_half_times_the_input(
        self, data, mode, bound
    ):
        peak = self._traced_peak(lambda: compress(data, mode=mode, bound=bound))
        assert peak <= 3.5 * data.nbytes, (
            f"{mode} compress peak {peak / data.nbytes:.2f}x the input"
        )
