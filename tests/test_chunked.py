"""Tests for the tiled container v2 subsystem (repro.chunked)."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.chunked import (
    ByteAccountant,
    TiledReader,
    TiledWriter,
    TileGrid,
    compress_file_tiled,
    compress_tiled,
    container_info_any,
    decompress_any,
    decompress_region,
    decompress_tiled,
    default_tile_shape,
    is_tiled,
    region_of_interest_cost,
    tiled_container_info,
)
from repro.core import compress
from repro.core import compressor
from repro.core.compressor import compress_array
from repro.obs import Collector


def _field(shape, dtype=np.float32, seed=7):
    rng = np.random.default_rng(seed)
    base = np.sin(np.arange(np.prod(shape)).reshape(shape) / 11.0)
    return (base + 0.05 * rng.standard_normal(shape)).astype(dtype)


class TestTileGrid:
    def test_uneven_cover(self):
        grid = TileGrid((10, 7), (4, 3))
        assert grid.grid == (3, 3) and grid.n_tiles == 9
        seen = np.zeros((10, 7), dtype=int)
        for i in range(grid.n_tiles):
            seen[grid.tile_slices(i)] += 1
        assert (seen == 1).all()  # exact partition, no overlap, no gap

    def test_tile_clipped_to_shape(self):
        grid = TileGrid((5,), (16,))
        assert grid.tile_shape == (5,) and grid.n_tiles == 1

    def test_intersecting_tiles(self):
        grid = TileGrid((10, 10), (4, 4))
        sl, _ = grid.normalize_region((slice(4, 5), slice(0, 9)))
        assert grid.tiles_intersecting(sl) == [3, 4, 5]

    def test_empty_region(self):
        grid = TileGrid((10,), (4,))
        sl, _ = grid.normalize_region((slice(3, 3),))
        assert grid.tiles_intersecting(sl) == []

    def test_step_rejected(self):
        grid = TileGrid((10,), (4,))
        with pytest.raises(ValueError, match="step"):
            grid.normalize_region((slice(0, 8, 2),))

    def test_int_squeezes(self):
        grid = TileGrid((6, 8), (2, 2))
        sl, squeeze = grid.normalize_region((3,))
        assert sl == (slice(3, 4), slice(0, 8)) and squeeze == (0,)

    def test_out_of_bounds_int(self):
        grid = TileGrid((6,), (2,))
        with pytest.raises(IndexError):
            grid.normalize_region((6,))


class TestRoundtrip:
    @pytest.mark.parametrize(
        "shape,tile",
        [
            ((100,), (7,)),          # 1-d, uneven
            ((48, 64), (16, 16)),    # 2-d, even
            ((45, 61), (16, 13)),    # 2-d, uneven both axes
            ((9, 20, 17), (4, 7, 5)),  # 3-d, uneven
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_abs_bound_every_element(self, shape, tile, dtype):
        data = _field(shape, dtype)
        blob = compress_tiled(data, tile_shape=tile, mode="abs", bound=1e-3)
        out = decompress_tiled(blob)
        assert out.shape == data.shape and out.dtype == data.dtype
        assert np.abs(out - data).max() <= 1e-3

    @pytest.mark.parametrize(
        "shape,tile", [((100,), (9,)), ((45, 61), (16, 13)), ((9, 20, 17), (4, 7, 5))]
    )
    def test_rel_bound_every_element(self, shape, tile):
        data = _field(shape)
        blob = compress_tiled(data, tile_shape=tile, mode="rel", bound=1e-3)
        out = decompress_tiled(blob)
        eb = 1e-3 * float(data.max() - data.min())
        # per-tile ranges <= global range, so the array-level relative
        # bound holds for every element
        assert np.abs(out - data).max() <= eb

    def test_int_tile_shape_and_default(self):
        data = _field((40, 40))
        blob = compress_tiled(data, tile_shape=16, mode="abs", bound=1e-3)
        assert tiled_container_info(blob)["tile_shape"] == (16, 16)
        blob2 = compress_tiled(data, mode="abs", bound=1e-3)
        assert tiled_container_info(blob2)["n_tiles"] == 1  # 40x40 < 64k

    def test_default_tile_shape(self):
        assert default_tile_shape((1000, 1000)) == (256, 256)
        assert default_tile_shape((10, 2000, 2000)) == (10, 40, 40)

    def test_constant_tiles(self):
        data = np.full((20, 20), 3.25, dtype=np.float32)
        blob = compress_tiled(data, tile_shape=8, mode="rel", bound=1e-4)
        assert np.array_equal(decompress_tiled(blob), data)

    def test_workers_byte_identical(self):
        data = _field((40, 52))
        serial = compress_tiled(data, tile_shape=(16, 16), mode="rel", bound=1e-3)
        fanned = compress_tiled(
            data, tile_shape=(16, 16), mode="rel", bound=1e-3, workers=3
        )
        assert serial == fanned

    def test_compress_kwargs_forwarded(self):
        data = _field((30, 30))
        blob = compress_tiled(
            data, tile_shape=15, mode="abs", bound=1e-2, layers=2, interval_bits=10
        )
        out = decompress_tiled(blob)
        assert np.abs(out - data).max() <= 1e-2

    def test_bound_required(self):
        with pytest.raises(ValueError, match="bound"):
            compress_tiled(_field((8, 8)), tile_shape=4)

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            compress_tiled(np.float32(1.0), mode="abs", bound=0.1)


class TestRegion:
    def test_matches_whole_array_decompression(self):
        data = _field((33, 47))
        blob = compress_tiled(data, tile_shape=(8, 12), mode="abs", bound=1e-3)
        full = decompress_tiled(blob)
        region = decompress_region(blob, (slice(5, 22), slice(30, 47)))
        assert np.array_equal(region, full[5:22, 30:47])

    def test_untouched_tiles_never_read(self):
        data = _field((64, 64))
        blob = compress_tiled(data, tile_shape=(16, 16), mode="abs", bound=1e-3)
        acc = ByteAccountant()
        decompress_region(blob, (slice(0, 10), slice(0, 10)), accountant=acc)
        with TiledReader(blob) as reader:
            sl, _ = reader.grid.normalize_region((slice(0, 10), slice(0, 10)))
            needed = set(reader.grid.tiles_intersecting(sl))
            assert needed == {0}
            for i, entry in enumerate(reader.entries):
                touched = acc.touched(entry.offset, entry.length)
                assert touched == (i in needed), f"tile {i}"
        # the audit also bounds total I/O: payload read ~1 tile, not 16
        assert acc.total_bytes < len(blob) / 2

    def test_region_bytes_scale_with_roi(self):
        data = _field((64, 64))
        blob = compress_tiled(data, tile_shape=(16, 16), mode="abs", bound=1e-3)
        cost = region_of_interest_cost(blob, (slice(0, 16), slice(0, 16)))
        assert cost["tiles_read"] == 1 and cost["tiles_total"] == 16
        assert cost["read_fraction"] < 0.5

    def test_int_axis_drops(self):
        data = _field((12, 9, 7))
        blob = compress_tiled(data, tile_shape=(4, 4, 4), mode="abs", bound=1e-3)
        full = decompress_tiled(blob)
        out = decompress_region(blob, (3, slice(1, 6)))
        assert out.shape == (5, 7)
        assert np.array_equal(out, full[3, 1:6])

    def test_negative_int(self):
        data = _field((10, 6))
        blob = compress_tiled(data, tile_shape=(4, 4), mode="abs", bound=1e-3)
        out = decompress_region(blob, (-1,))
        assert np.array_equal(out, decompress_tiled(blob)[-1])

    def test_partial_spec_pads_full_axes(self):
        data = _field((10, 6))
        blob = compress_tiled(data, tile_shape=(4, 4), mode="abs", bound=1e-3)
        out = decompress_region(blob, slice(2, 5))
        assert np.array_equal(out, decompress_tiled(blob)[2:5])

    def test_reader_getitem(self):
        data = _field((20, 20))
        blob = compress_tiled(data, tile_shape=8, mode="abs", bound=1e-3)
        with TiledReader(blob) as reader:
            got = reader[2:9, 11:20]
        assert np.array_equal(got, decompress_tiled(blob)[2:9, 11:20])


class TestStreaming:
    def test_file_roundtrip_slab_by_slab(self, tmp_path):
        data = _field((37, 22, 18), np.float64)
        path = tmp_path / "stream.szt"
        with TiledWriter(
            path, data.shape, (8, 8, 8), dtype=data.dtype, mode="abs", bound=1e-3
        ) as writer:
            for row in range(writer.n_slabs):
                start, stop = writer.slab_extent(row)
                writer.write_slab(data[start:stop])
        got = np.empty_like(data)
        with TiledReader(path) as reader:
            for (start, stop), slab in reader.iter_slabs():
                got[start:stop] = slab
        assert np.abs(got - data).max() <= 1e-3

    def test_generator_source(self, tmp_path):
        data = _field((50, 16))
        path = tmp_path / "gen.szt"

        def slabs():
            for start in range(0, 50, 8):
                yield data[start : min(start + 8, 50)]

        with TiledWriter(
            path, data.shape, (8, 16), dtype=data.dtype, mode="rel", bound=1e-3
        ) as writer:
            writer.write_from(slabs())
        out = decompress_tiled(str(path))
        eb = 1e-3 * float(data.max() - data.min())
        assert np.abs(out - data).max() <= eb

    def test_streamed_equals_one_shot(self, tmp_path):
        """The streaming writer and compress_tiled emit identical bytes."""
        data = _field((30, 21))
        one_shot = compress_tiled(data, tile_shape=(8, 8), mode="abs", bound=1e-3)
        sink = io.BytesIO()
        with TiledWriter(
            sink, data.shape, (8, 8), dtype=data.dtype, mode="abs", bound=1e-3
        ) as writer:
            writer.write_array(data)
        assert sink.getvalue() == one_shot

    def test_compress_file_tiled_memory_mapped(self, tmp_path):
        data = _field((41, 33))
        src = tmp_path / "big.npy"
        np.save(src, data)
        out = tmp_path / "big.szt"
        summary = compress_file_tiled(
            src, out, tile_shape=(8, 8), mode="rel", bound=1e-3
        )
        assert summary["n_tiles"] == 30
        restored = decompress_tiled(str(out))
        eb = 1e-3 * float(data.max() - data.min())
        assert np.abs(restored - data).max() <= eb

    def test_unsupported_dtype_rejected_before_open(self, tmp_path):
        path = tmp_path / "ints.szt"
        with pytest.raises(TypeError, match="float32/float64"):
            TiledWriter(path, (4, 4), (2, 2), dtype=np.int32, mode="abs", bound=0.1)
        assert not path.exists()  # no stray truncated output file

    def test_wrong_slab_shape_rejected(self):
        writer = TiledWriter(
            io.BytesIO(), (10, 10), (4, 10), mode="abs", bound=1e-3
        )
        with pytest.raises(ValueError, match="slab"):
            writer.write_slab(np.zeros((3, 10), dtype=np.float32))

    def test_incomplete_close_rejected(self):
        writer = TiledWriter(io.BytesIO(), (10, 10), (4, 10), mode="abs", bound=1e-3)
        writer.write_slab(np.zeros((4, 10), dtype=np.float32))
        with pytest.raises(ValueError, match="incomplete"):
            writer.close()

    def test_out_of_order_tiles_rejected(self):
        writer = TiledWriter(io.BytesIO(), (8, 8), (4, 4), mode="abs", bound=1e-3)
        with pytest.raises(ValueError, match="shape"):
            # tile 0 must be (4, 4); a trailing-edge shape is out of order
            writer.write_tiles([np.zeros((2, 4), dtype=np.float32)])


class TestWriterPool:
    """A ``workers > 1`` writer runs every slab on one process pool."""

    @pytest.fixture()
    def executors(self, monkeypatch):
        import concurrent.futures

        import repro.chunked.streams as streams
        import repro.parallel.pool as pool

        made = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.was_shut_down = False
                made.append(self)

            def shutdown(self, *args, **kwargs):
                self.was_shut_down = True
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(pool, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(streams, "ProcessPoolExecutor", Counted, raising=False)
        return made

    @staticmethod
    def _write(data, workers):
        sink = io.BytesIO()
        with TiledWriter(
            sink, data.shape, (4, 8), dtype=data.dtype, workers=workers,
            mode="abs", bound=1e-3,
        ) as writer:
            assert writer.n_slabs == 10
            writer.write_array(data)
        return sink.getvalue()

    def test_one_executor_for_ten_slabs(self, executors):
        import multiprocessing

        data = _field((40, 16))
        pooled = self._write(data, workers=2)
        assert len(executors) == 1
        assert pooled == self._write(data, workers=1)
        assert all(ex.was_shut_down for ex in executors)
        assert not multiprocessing.active_children()

    def test_exception_inside_with_shuts_the_pool_down(self, executors):
        import multiprocessing

        data = _field((40, 16))
        with pytest.raises(RuntimeError, match="source failed"):
            with TiledWriter(
                io.BytesIO(), data.shape, (4, 8), dtype=data.dtype,
                workers=2, mode="abs", bound=1e-3,
            ) as writer:
                writer.write_slab(data[:4])
                raise RuntimeError("source failed")
        assert len(executors) == 1
        assert executors[0].was_shut_down
        assert not multiprocessing.active_children()


class TestDispatchAndInfo:
    def test_is_tiled(self):
        data = _field((16, 16))
        assert is_tiled(compress_tiled(data, tile_shape=8, mode="abs", bound=1e-3))
        assert not is_tiled(compress(data, mode="abs", bound=1e-3))

    def test_decompress_any(self):
        data = _field((16, 16))
        v1 = compress(data, mode="abs", bound=1e-3)
        v2 = compress_tiled(data, tile_shape=8, mode="abs", bound=1e-3)
        assert np.abs(decompress_any(v1) - data).max() <= 1e-3
        assert np.abs(decompress_any(v2) - data).max() <= 1e-3

    def test_container_info_any(self):
        data = _field((16, 16))
        info1 = container_info_any(compress(data, mode="abs", bound=1e-3))
        assert info1["format"] == "v1" and info1["shape"] == (16, 16)
        info2 = container_info_any(
            compress_tiled(data, tile_shape=8, mode="abs", bound=1e-3)
        )
        assert info2["format"] == "tiled-v2"
        assert info2["n_tiles"] == 4
        assert len(info2["tile_compression_factors"]) == 4
        assert all(0 <= h <= 1 for h in info2["tile_hit_rates"])

    def test_info_accounts_all_bytes(self):
        data = _field((20, 20))
        blob = compress_tiled(data, tile_shape=8, mode="abs", bound=1e-3)
        info = tiled_container_info(blob)
        header_bytes = (
            len(blob) - info["payload_bytes"] - info["index_bytes"]
        )
        assert header_bytes == 8 + 16 * 2 + 16
        assert info["compressed_bytes"] == len(blob)

    def test_decompressed_tile_must_match_grid(self):
        """A tile that decodes to the wrong shape is flagged as corrupt,
        even when its CRC is intact (valid v1 payload, wrong geometry)."""
        import zlib

        from repro.chunked.format import (
            TiledHeader,
            TileEntry,
            build_index,
            build_tail,
            write_header,
        )

        tile_blob = compress(_field((8, 8)), mode="abs", bound=1e-3)  # wrong shape
        head = write_header(
            TiledHeader(np.dtype(np.float32), (4, 4), (4, 4), 1e-3, None)
        )
        entry = TileEntry(
            offset=len(head),
            length=len(tile_blob),
            crc32=zlib.crc32(tile_blob) & 0xFFFFFFFF,
            n_values=16,
            n_unpredictable=0,
            mode_count=0,
            nonzero_bins=0,
        )
        index = build_index([entry])
        blob = (
            head
            + tile_blob
            + index
            + build_tail(
                len(head) + len(tile_blob),
                len(index),
                zlib.crc32(index) & 0xFFFFFFFF,
            )
        )
        with pytest.raises(ValueError, match="decodes to"):
            decompress_tiled(blob)


class TestBatchedTiles:
    """Same-shape tiles of a slab share wavefront kernel passes; every
    tile's bytes stay those of compressing it alone."""

    MODES = [("abs", 1e-3), ("rel", 1e-4), ("pw_rel", 1e-3), ("psnr", 60.0)]

    @staticmethod
    def _field():
        # 4 x 3 tile grid of (8, 10, 9): full tiles plus 10 x 1 and
        # 2-row edge tiles, so slabs mix shapes; tile 0 is constant, and
        # the smooth second slab needs fewer adaptive retries.
        data = _field((26, 21, 9))
        data[:8, :10] = 1.5
        data[8:16] = np.linspace(1.0, 2.0, 8 * 21 * 9).reshape(8, 21, 9)
        return data

    @pytest.mark.parametrize("mode,bound", MODES, ids=[m for m, _ in MODES])
    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tiles_equal_standalone_containers(
        self, mode, bound, adaptive, workers
    ):
        from repro.api import SZConfig

        data = self._field()
        # A high theta from 4 interval bits makes tiles retry at
        # different interval counts.
        cfg = SZConfig.from_kwargs(
            mode=mode, bound=bound, adaptive=adaptive, theta=0.995,
            interval_bits=4 if adaptive else 8, workers=workers,
        )
        blob = compress_tiled(data, tile_shape=(8, 10, 9), config=cfg)
        with TiledReader(blob) as reader:
            grid, entries = reader.grid, reader.entries
        alone = [
            compress_array(np.ascontiguousarray(data[grid.tile_slices(i)]),
                           cfg)[0]
            for i in range(grid.n_tiles)
        ]
        first, last = entries[0], entries[-1]
        assert blob[first.offset:last.offset + last.length] == b"".join(alone)

    def test_per_tile_bounds_keep_bound_sized_spikes(self):
        # Two float32 tiles of ranges 1 and 2 resolve rel 1e-3 to the
        # bounds 1e-3 and 2e-3, so their pass carries one bound per tile.
        # After a NaN each holds unpredictable values equal to its bound
        # rounded to float32, which rounds up to just above the bound;
        # the small field after them predicts from their reconstructions.
        from repro.api import SZConfig

        base = (3e-4 * np.sin(np.arange(80) / 3.0)).reshape(8, 10)
        base[0, 0], base[-1, -1] = -0.5, 0.5
        data = np.hstack([base, 2.0 * base]).astype(np.float32)
        data[2:6, [2, 12]] = np.nan
        data[2:6, 3] = np.float32(1e-3)
        data[2:6, 13] = np.float32(2e-3)
        data[4, [3, 13]] *= -1
        cfg = SZConfig.from_kwargs(mode="rel", bound=1e-3, adaptive=False)
        blob = compress_tiled(data, tile_shape=(8, 10), config=cfg)
        alone = [compress_array(np.ascontiguousarray(data[:, s]), cfg)
                 for s in (slice(0, 10), slice(10, 20))]
        assert [stats.eb_abs for _, stats in alone] == [1e-3, 2e-3]
        with TiledReader(blob) as reader:
            first, last = reader.entries[0], reader.entries[-1]
        assert blob[first.offset:last.offset + last.length] == b"".join(
            a for a, _ in alone
        )
        # The zero flag compares with the float64 bound, so a spike
        # above its bound is stored, not zeroed, and stays within it.
        err = np.abs(decompress_tiled(blob).astype(np.float64) - data)
        assert np.nanmax(err[:, :10]) <= 1e-3
        assert np.nanmax(err[:, 10:]) <= 2e-3

    def test_psnr_fallback_reruns_only_missing_tiles(self, monkeypatch):
        passes = _count_passes(monkeypatch)
        with Collector() as col:
            compress_tiled(
                self._field(), tile_shape=(8, 10, 9), mode="psnr", bound=60.0
            )
        retries = col.counters["psnr/retries"]
        assert 0 < retries < 11  # some of the 11 non-constant tiles
        # each retry reruns its own tile once, not the tile's whole batch
        assert sum(shape[0] for shape in passes) == 11 + retries

    def test_one_pass_per_shape_group_and_slab(self, monkeypatch):
        passes = _count_passes(monkeypatch)
        compress_tiled(_field((64, 160)), tile_shape=(64, 16), mode="abs",
                       bound=1e-3)
        assert passes == [(10, 64, 16)]  # one slab of 10 tiles

    def test_group_above_pass_cap_splits(self, monkeypatch):
        passes = _count_passes(monkeypatch)
        monkeypatch.setattr(compressor, "_PASS_VALUES_MAX", 4 * 64 * 16)
        data = _field((64, 160))
        blob = compress_tiled(data, tile_shape=(64, 16), mode="abs",
                              bound=1e-3)
        assert passes == [(4, 64, 16), (4, 64, 16), (2, 64, 16)]
        np.testing.assert_array_equal(
            decompress_tiled(blob),
            decompress_tiled(compress_tiled(data, tile_shape=(64, 16),
                                            mode="abs", bound=1e-3)),
        )

    def test_whole_array_is_a_batch_of_one_view(self, monkeypatch):
        seen = []
        real = compressor.wavefront_compress

        def spy(data, eb, plan, radius, **kwargs):
            seen.append(data)
            return real(data, eb, plan, radius, **kwargs)

        monkeypatch.setattr(compressor, "wavefront_compress", spy)
        data = _field((30, 40))
        compress(data, mode="rel", bound=1e-4)
        assert len(seen) == 1 and seen[0].shape == (1, 30, 40)
        assert np.shares_memory(seen[0], data)


def _count_passes(monkeypatch):
    """Record the input shape of every kernel pass the compressor runs."""
    passes = []
    real = compressor.wavefront_compress

    def counting(data, eb, plan, radius, **kwargs):
        passes.append(data.shape)
        return real(data, eb, plan, radius, **kwargs)

    monkeypatch.setattr(compressor, "wavefront_compress", counting)
    return passes
