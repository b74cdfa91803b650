"""The SZConfig/Codec core API: validation, round-trips, zero-copy.

Covers the canonical surface introduced by the API redesign:

* ``SZConfig`` — construction-time validation, ``to_dict``/``from_dict``
  and JSON round-trips, ``replace`` sweeping, unknown-key rejection;
* ``Codec`` — the numcodecs contract (``encode``/``decode(out=)``,
  ``get_config``/``from_config``, the ``get_codec`` registry) and the
  tiled/streaming/file access methods;
* zero-copy buffer-protocol handling on the decode path (memoryview in,
  caller-provided ``out`` buffer back out);
* the entry-point rule — ``config=`` or keywords, never both; the
  removed ``abs_bound=``/``rel_bound=`` keywords fail loudly — and
  byte identity of every path against the golden fixtures.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Codec, SZConfig, get_codec
from repro.chunked import compress_file_tiled
from repro.core import ErrorBound, compress, compress_with_stats
from repro.core.compressor import compress_array
from repro.encoding.bitio import BitReader

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


class TestSZConfigValidation:
    def test_minimal_construction(self):
        cfg = SZConfig(("rel", 1e-4))
        assert cfg.mode == "rel" and cfg.bound == 1e-4
        assert cfg.layers == 1 and cfg.entropy_coder == "huffman"

    def test_error_bound_coercions(self):
        spec = ErrorBound.from_args("abs", 0.5)
        assert SZConfig(spec).error_bound is spec
        assert SZConfig({"mode": "abs", "bound": 0.5}).error_bound == spec
        assert SZConfig(("abs", 0.5)).error_bound == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(error_bound=("nope", 1.0)),
            dict(error_bound=("abs", -1.0)),
            dict(error_bound=("pw_rel", 2.0)),
            dict(error_bound=("psnr", float("inf"))),
            dict(error_bound=42),
            dict(error_bound=("rel", 1e-4), layers=0),
            dict(error_bound=("rel", 1e-4), layers=5),
            dict(error_bound=("rel", 1e-4), interval_bits=0),
            dict(error_bound=("rel", 1e-4), interval_bits=17),
            dict(error_bound=("rel", 1e-4), theta=0.0),
            dict(error_bound=("rel", 1e-4), theta=1.5),
            dict(error_bound=("rel", 1e-4), block_size=0),
            dict(error_bound=("rel", 1e-4), entropy_coder="zstd"),
            dict(error_bound=("rel", 1e-4), workers=0),
            dict(error_bound=("rel", 1e-4), tile_shape=(0, 4)),
            dict(error_bound=("rel", 1e-4), tile_shape=()),
            dict(error_bound=("rel", 1e-4), tile_shape=3.5),
        ],
    )
    def test_invalid_configs_raise_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            SZConfig(**kwargs)

    @pytest.mark.parametrize(
        "spec",
        [
            {"mode": "abs", "bound": 1e-3, "abs_bound": 5e-3},
            {"mode": "rel", "bound": 1e-3, "rel_bound": 5.0},
            {"mode": "pw_rel", "bound": 1e-3, "abs_bound": 5e-3},
            {"mode": "psnr", "bound": 60.0, "abs_bound": 5e-3},
            {"mode": "rel", "abs_bound": 5e-3},
            {"abs_bound": 1e-3},
        ],
    )
    def test_from_dict_rejects_stray_bound_keys(self, spec):
        # Only the combined pair's abs_bound (next to mode "rel" and its
        # bound) is a bound key besides mode/bound; anything else must
        # raise instead of being dropped or reinterpreted.
        with pytest.raises(ValueError):
            SZConfig.from_dict(spec)

    def test_from_kwargs_rejects_layers_beyond_cap(self):
        with pytest.raises(ValueError, match="layers"):
            SZConfig.from_kwargs(mode="abs", bound=1e-3, layers=5)

    def test_from_kwargs_mutual_exclusion(self):
        with pytest.raises(ValueError):
            SZConfig.from_kwargs(mode="abs", bound=0.1, abs_bound=0.2)
        with pytest.raises(ValueError):
            SZConfig.from_kwargs()  # no bound at all

    def test_frozen(self):
        cfg = SZConfig(("rel", 1e-4))
        with pytest.raises(AttributeError):
            cfg.layers = 2

    def test_tile_shape_int_and_list_coerce(self):
        # An int stays an int ("cubic tiles", expanded per-array at
        # encode time); a list becomes a tuple.
        assert SZConfig(("rel", 1e-4), tile_shape=32).tile_shape == 32
        assert SZConfig(("rel", 1e-4), tile_shape=[8, 16]).tile_shape == (8, 16)

    def test_int_tile_shape_means_cubic_on_every_path(self, smooth2d):
        codec = Codec(mode="rel", bound=1e-3, tile_shape=16)
        blob = codec.encode_tiled(smooth2d)
        with codec.open_reader(blob) as reader:
            assert reader.tile_shape == (16, 16)
        sink = __import__("io").BytesIO()
        with codec.open_writer(sink, smooth2d.shape, dtype=smooth2d.dtype) as w:
            assert w.tile_shape == (16, 16)
            w.write_array(smooth2d)
        # and it survives serialization as an int
        assert SZConfig.from_json(codec.config.to_json()).tile_shape == 16


CONFIG_CASES = [
    SZConfig(("abs", 1e-3)),
    SZConfig(("rel", 1e-4), layers=2, interval_bits=10),
    SZConfig(("pw_rel", 1e-3), adaptive=True, theta=0.95),
    SZConfig(("psnr", 64.0), entropy_coder="arithmetic", block_size=512),
    SZConfig(ErrorBound.from_args(abs_bound=1.0, rel_bound=1e-5)),
    SZConfig(("rel", 1e-3), tile_shape=(16, 24), workers=3,
             lossless_post=True),
]


class TestSZConfigRoundTrips:
    @pytest.mark.parametrize("cfg", CONFIG_CASES, ids=range(len(CONFIG_CASES)))
    def test_dict_round_trip(self, cfg):
        assert SZConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("cfg", CONFIG_CASES, ids=range(len(CONFIG_CASES)))
    def test_json_round_trip(self, cfg):
        text = cfg.to_json()
        json.loads(text)  # valid JSON
        assert SZConfig.from_json(text) == cfg

    def test_combined_legacy_pair_survives_serialization(self):
        cfg = SZConfig(ErrorBound.from_args(abs_bound=1.0, rel_bound=1e-5))
        spec = SZConfig.from_json(cfg.to_json()).error_bound
        assert spec.abs_bound == 1.0 and spec.rel_bound == 1e-5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            SZConfig.from_dict({"mode": "abs", "bound": 0.1, "blocksize": 2})

    def test_foreign_codec_id_rejected(self):
        with pytest.raises(ValueError, match="sz14-repro"):
            SZConfig.from_dict({"id": "zlib", "mode": "abs", "bound": 0.1})

    def test_tampered_values_revalidated(self):
        spec = SZConfig(("rel", 1e-4)).to_dict()
        spec["interval_bits"] = 99
        with pytest.raises(ValueError):
            SZConfig.from_dict(spec)

    @pytest.mark.parametrize("text", [
        '{"mode": "abs", "bound": NaN}',
        '{"mode": "rel", "bound": Infinity}',
        '{"mode": "rel", "bound": 1e-3, "abs_bound": NaN}',
    ])
    def test_non_finite_json_bounds_rejected(self, text):
        """Python's json module parses NaN/Infinity; they must not
        become a config that only fails later, inside compress."""
        with pytest.raises(ValueError, match="finite"):
            SZConfig.from_json(text)


class TestReplace:
    def test_bound_sweep_keeps_mode(self):
        cfg = SZConfig(("rel", 1e-4), layers=2)
        swept = [cfg.replace(bound=b) for b in (1e-2, 1e-3, 1e-6)]
        assert [c.mode for c in swept] == ["rel"] * 3
        assert [c.bound for c in swept] == [1e-2, 1e-3, 1e-6]
        assert all(c.layers == 2 for c in swept)

    def test_mode_switch(self):
        cfg = SZConfig(("rel", 1e-4)).replace(mode="psnr", bound=60.0)
        assert cfg.mode == "psnr" and cfg.bound == 60.0

    def test_plain_field_replace(self):
        cfg = SZConfig(("rel", 1e-4)).replace(layers=3, workers=4)
        assert cfg.layers == 3 and cfg.workers == 4

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            SZConfig(("rel", 1e-4)).replace(bound=-1.0)
        with pytest.raises(ValueError):
            SZConfig(("rel", 1e-4)).replace(
                mode="abs", bound=1.0, error_bound=("abs", 1.0)
            )

    def test_replace_bound_on_combined_pair_rejected(self):
        # mode/bound cannot faithfully rebuild the abs+rel pair; a
        # silent drop of the abs cap would loosen the guarantee.
        cfg = SZConfig(ErrorBound.from_args(abs_bound=1.0, rel_bound=1e-5))
        with pytest.raises(ValueError, match="combined abs\\+rel"):
            cfg.replace(bound=1e-4)
        # the explicit error_bound spelling still works
        swept = cfg.replace(
            error_bound=ErrorBound.from_args(abs_bound=1.0, rel_bound=1e-4)
        )
        assert swept.error_bound.abs_bound == 1.0

    def test_original_unchanged(self):
        cfg = SZConfig(("rel", 1e-4))
        cfg.replace(bound=1.0)
        assert cfg.bound == 1e-4


@pytest.fixture()
def codec() -> Codec:
    return Codec(mode="rel", bound=1e-4)


class TestCodecContract:
    def test_round_trip(self, codec, smooth2d):
        out = codec.decode(codec.encode(smooth2d))
        eb = 1e-4 * float(smooth2d.max() - smooth2d.min())
        assert out.shape == smooth2d.shape and out.dtype == smooth2d.dtype
        assert np.abs(out - smooth2d).max() <= eb

    def test_encode_matches_module_function(self, codec, smooth2d):
        assert codec.encode(smooth2d) == compress(
            smooth2d, mode="rel", bound=1e-4
        )

    def test_get_config_round_trip(self, codec):
        cfg = codec.get_config()
        assert cfg["id"] == "sz14-repro"
        clone = Codec.from_config(cfg)
        assert clone == codec and clone.get_config() == cfg

    def test_get_codec_registry(self, codec):
        clone = get_codec({"id": "sz14-repro", "mode": "rel", "bound": 1e-4})
        assert clone == codec
        with pytest.raises(ValueError, match="unknown codec id"):
            get_codec({"id": "nope"})

    def test_config_or_kwargs_not_both(self):
        with pytest.raises(ValueError):
            Codec(SZConfig(("abs", 1.0)), mode="abs", bound=1.0)

    def test_repr_mentions_knobs(self, codec):
        assert "mode='rel'" in repr(codec) or 'mode="rel"' in repr(codec)

    def test_encode_with_stats(self, codec, smooth2d):
        blob, stats = codec.encode_with_stats(smooth2d)
        assert blob == codec.encode(smooth2d)
        assert stats.mode == "rel" and stats.compressed_bytes == len(blob)


class TestBufferProtocol:
    """encode/decode accept any buffer-protocol object, zero-copy."""

    def test_encode_from_memoryview_matches_ndarray(self, codec, smooth2d):
        assert codec.encode(memoryview(smooth2d)) == codec.encode(smooth2d)

    def test_decode_from_readonly_memoryview(self, codec, smooth2d):
        blob = codec.encode(smooth2d)
        mv = memoryview(blob)  # read-only
        np.testing.assert_array_equal(codec.decode(mv), codec.decode(blob))

    def test_decode_from_bytearray_and_ndarray_buffers(self, codec, smooth2d):
        blob = codec.encode(smooth2d)
        for buf in (bytearray(blob), np.frombuffer(blob, dtype=np.uint8)):
            np.testing.assert_array_equal(
                codec.decode(buf), codec.decode(blob)
            )

    def test_bitreader_does_not_copy_its_buffer(self):
        raw = bytearray(b"\xde\xad\xbe\xef" * 8)
        reader = BitReader(memoryview(raw))
        assert np.shares_memory(
            reader._buf, np.frombuffer(raw, dtype=np.uint8)
        )

    def test_decode_out_ndarray_is_filled_in_place(self, codec, smooth2d):
        blob = codec.encode(smooth2d)
        out = np.empty_like(smooth2d)
        ret = codec.decode(memoryview(blob), out=out)
        assert ret is out
        np.testing.assert_array_equal(out, codec.decode(blob))

    def test_decode_out_bytearray(self, codec, smooth2d):
        blob = codec.encode(smooth2d)
        buf = bytearray(smooth2d.nbytes)
        ret = codec.decode(blob, out=buf)
        np.testing.assert_array_equal(ret, codec.decode(blob))
        # the returned view aliases the caller's buffer
        assert np.shares_memory(ret, np.frombuffer(buf, dtype=ret.dtype))

    def test_decode_out_flat_view_of_same_size(self, codec, smooth2d):
        blob = codec.encode(smooth2d)
        out = np.empty(smooth2d.size, dtype=smooth2d.dtype)
        ret = codec.decode(blob, out=out)
        assert ret.shape == smooth2d.shape
        assert np.shares_memory(ret, out)

    def test_decode_out_mismatches_raise(self, codec, smooth2d):
        blob = codec.encode(smooth2d)
        with pytest.raises(ValueError, match="values"):
            codec.decode(blob, out=np.empty(3, dtype=smooth2d.dtype))
        with pytest.raises(ValueError, match="dtype"):
            codec.decode(blob, out=np.empty_like(smooth2d, dtype=np.float64))

    def test_decode_out_noncontiguous_wrong_shape_rejected(
        self, codec, smooth2d
    ):
        # Right size but non-contiguous and differently shaped: reshape
        # would silently copy, leaving the caller's buffer untouched.
        blob = codec.encode(smooth2d)
        h, w = smooth2d.shape
        # transposed-shape strided view: right size/dtype, but viewing
        # it in the decoded shape is impossible — reshape would copy
        strided = np.empty((w * 2, h * 2), dtype=smooth2d.dtype)[::2, ::2]
        assert strided.size == smooth2d.size
        assert strided.shape != smooth2d.shape
        with pytest.raises(ValueError, match="non-contiguous"):
            codec.decode(blob, out=strided)

    def test_decode_out_strided_flat_view_filled_in_place(
        self, codec, smooth2d
    ):
        # A uniformly-strided flat buffer reshapes as a *view*; decode
        # must fill the caller's memory, not a hidden copy.
        blob = codec.encode(smooth2d)
        backing = np.empty(smooth2d.size * 2, dtype=smooth2d.dtype)
        ret = codec.decode(blob, out=backing[::2])
        assert np.shares_memory(ret, backing)
        np.testing.assert_array_equal(ret, codec.decode(blob))

    def test_decode_out_noncontiguous_same_shape_ok(self, codec, smooth2d):
        # Same decoded shape needs no reshape — strided views are fine.
        blob = codec.encode(smooth2d)
        backing = np.empty(
            (smooth2d.shape[0] * 2, smooth2d.shape[1]), dtype=smooth2d.dtype
        )
        strided = backing[::2]
        ret = codec.decode(blob, out=strided)
        assert ret is strided
        np.testing.assert_array_equal(strided, codec.decode(blob))

    def test_constant_container_honors_out(self, codec):
        data = np.full((6, 7), 2.5, dtype=np.float32)
        blob = codec.encode_with_stats(data)[0]
        out = np.empty_like(data)
        assert codec.decode(blob, out=out) is out
        np.testing.assert_array_equal(out, data)


class TestCodecTiledAccess:
    def test_encode_tiled_uses_config_tile_shape(self, smooth2d):
        codec = Codec(mode="rel", bound=1e-3, tile_shape=(16, 24))
        blob = codec.encode_tiled(smooth2d)
        reader = codec.open_reader(blob)
        assert reader.tile_shape == (16, 24)
        np.testing.assert_array_equal(
            reader.read_all(), codec.decode_tiled(blob)
        )
        reader.close()

    def test_region_and_writer_file(self, tmp_path, smooth2d):
        codec = Codec(mode="rel", bound=1e-3, tile_shape=(16, 24))
        blob = codec.encode_tiled(smooth2d)
        region = codec.decode_region(blob, (slice(0, 10), slice(5, 20)))
        np.testing.assert_array_equal(
            region, codec.decode_tiled(blob)[0:10, 5:20]
        )
        path = tmp_path / "t.szt"
        with codec.open_writer(path, smooth2d.shape, dtype=smooth2d.dtype) as w:
            w.write_array(smooth2d)
        np.testing.assert_array_equal(
            codec.decode_tiled(path), codec.decode_tiled(blob)
        )

    def test_encode_file(self, tmp_path, smooth2d):
        codec = Codec(mode="rel", bound=1e-3, tile_shape=(16, 24))
        src = tmp_path / "a.npy"
        dst = tmp_path / "a.szt"
        np.save(src, smooth2d)
        summary = codec.encode_file(src, dst)
        assert summary["n_tiles"] == codec.open_reader(dst).n_tiles
        np.testing.assert_array_equal(
            codec.decode_tiled(dst), codec.decode_tiled(codec.encode_tiled(smooth2d))
        )


#: every entry point that used to take abs_bound=/rel_bound=, called as
#: ``entry(data, npy_path, **keywords)``
REMOVED_KEYWORD_ENTRIES = {
    "compress": lambda data, npy, **kw: compress(data, **kw),
    "compress_with_stats": lambda data, npy, **kw: compress_with_stats(
        data, **kw
    ),
    "Codec": lambda data, npy, **kw: Codec(**kw),
    "TiledWriter": lambda data, npy, **kw: repro.TiledWriter(
        io.BytesIO(), data.shape, (16, 24), **kw
    ),
    "compress_tiled": lambda data, npy, **kw: repro.compress_tiled(
        data, tile_shape=(16, 24), **kw
    ),
    "compress_file_tiled": lambda data, npy, **kw: compress_file_tiled(
        npy, npy.with_suffix(".szt"), tile_shape=(16, 24), **kw
    ),
    "SZConfig.from_kwargs": lambda data, npy, **kw: SZConfig.from_kwargs(**kw),
}


class TestEntryPoints:
    """One way in: ``config=`` or keywords, and identical bytes on every path."""

    @pytest.mark.parametrize("key", ["abs_bound", "rel_bound"])
    @pytest.mark.parametrize("entry", list(REMOVED_KEYWORD_ENTRIES))
    def test_removed_bound_keywords_fail_loudly(
        self, entry, key, smooth2d, tmp_path
    ):
        npy = tmp_path / "a.npy"
        np.save(npy, smooth2d)
        with pytest.raises((TypeError, ValueError)):
            REMOVED_KEYWORD_ENTRIES[entry](smooth2d, npy, **{key: 1e-3})

    def test_config_conflicts_rejected(self, smooth2d):
        cfg = SZConfig(("rel", 1e-3))
        with pytest.raises(ValueError, match="mutually exclusive"):
            compress(smooth2d, mode="abs", bound=1.0, config=cfg)
        with pytest.raises(ValueError, match="mutually exclusive"):
            repro.TiledWriter(
                __import__("io").BytesIO(), smooth2d.shape,
                (16, 24), mode="abs", bound=1.0, config=cfg,
            )

    def test_config_plus_knob_kwargs_rejected(self, smooth2d):
        # A knob passed alongside config= must raise, not be silently
        # dropped — on every entry point, even at its default value.
        cfg = SZConfig(("rel", 1e-3))
        with pytest.raises(ValueError, match="mutually exclusive"):
            compress(smooth2d, layers=3, config=cfg)
        with pytest.raises(ValueError, match="mutually exclusive"):
            compress_with_stats(smooth2d, interval_bits=12, config=cfg)
        with pytest.raises(ValueError, match="mutually exclusive"):
            Codec(cfg, layers=4)
        with pytest.raises(ValueError, match="mutually exclusive"):
            compress(smooth2d, layers=1, config=cfg)
        with pytest.raises(ValueError, match="mutually exclusive"):
            compress_with_stats(smooth2d, entropy_coder="huffman", config=cfg)

    def test_golden_blobs_via_every_path(self):
        """Keywords, config= and Codec.encode emit identical bytes."""
        field = np.load(GOLDEN / "field_f32.npy")
        golden = (GOLDEN / "v1_abs_1e-3.sz").read_bytes()
        assert compress(field, mode="abs", bound=1e-3) == golden
        cfg = SZConfig(("abs", 1e-3))
        assert compress_array(field, cfg)[0] == golden
        assert Codec(cfg).encode(field) == golden
        assert Codec(cfg).encode(memoryview(field)) == golden

    def test_golden_moded_blob_via_codec(self):
        wide = np.load(GOLDEN / "wide_f64.npy")
        golden = (GOLDEN / "v2_moded_pwrel_1e-3.sz").read_bytes()
        assert Codec(mode="pw_rel", bound=1e-3).encode(wide) == golden

    def test_golden_tiled_blob_via_codec(self):
        field = np.load(GOLDEN / "field_f32.npy")
        golden = (GOLDEN / "v2_tiled_rel_1e-3.szt").read_bytes()
        codec = Codec(mode="rel", bound=1e-3, tile_shape=(8, 12))
        assert codec.encode_tiled(field) == golden
        # and the tiled decode path accepts a read-only memoryview
        np.testing.assert_array_equal(
            codec.decode_tiled(memoryview(golden)),
            np.load(GOLDEN / "v2_tiled_rel_1e-3.decoded.npy"),
        )
