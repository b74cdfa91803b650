"""Streaming writer/reader for tiled (v2) containers.

``TiledWriter`` compresses tiles in a single forward pass — header
first, tile payloads as they arrive, footer index on close — so a
source larger than RAM round-trips through a file handle one tile-row
(*slab*) at a time.  ``TiledReader`` locates any tile through the footer
index with two positional reads, which makes whole-array, per-slab and
region decompression all touch only the bytes they need.

Bound semantics: a relative bound is resolved against each *tile's* own
value range.  A tile's range never exceeds the whole array's, so every
element still satisfies the requested array-level value-range-relative
bound (usually with margin); absolute bounds are identical either way.
This is what lets the writer stream — it never needs a global pass to
learn the full value range before emitting the first tile.  The same
argument covers the mode subsystem: ``pw_rel`` is pointwise, so
per-tile application is exact, and a per-tile ``psnr`` target implies
the array-level one (each tile's rmse is at most ``R_tile 10^(-t/20)
<= R_array 10^(-t/20)``, and the array rmse is a weighted mean of tile
rmses).
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.chunked.format import (
    MAGIC,
    MODE_CODES,
    MODED_VERSION,
    TAIL_BYTES,
    VERSION,
    TiledHeader,
    TileEntry,
    TileGrid,
    build_index,
    build_tail,
    entry_bytes,
    footer_summary,
    parse_index,
    parse_tail,
    read_header,
    verify_index,
    write_header,
)
from repro.chunked.io import ByteAccountant, open_source
# compress_array is the per-array codec entry point this layer exposes
# by name (perfbench/layers.py wraps it here); tiles go through
# compress_members.
from repro.core.compressor import (  # noqa: F401
    compress_array,
    compress_members,
    decompress,
    observed,
)
from repro.obs.tracer import metric_add, metric_observe, span
from repro.parallel.pool import pool_map

__all__ = ["TiledWriter", "TiledReader"]


def _tiles_job(args) -> list[tuple[bytes, int, int, int]]:
    """Compress same-shape tiles through shared wavefront kernel passes.

    Returns ``(blob, n_unpred, mode_count, nonzero_bins)`` per tile.
    Module-level so the process pool can pickle it; the frozen
    ``SZConfig`` travels to the workers instead of a kwargs dict.
    """
    tiles, config, indices = args
    out = []
    finishers = compress_members(tiles, config)
    for tile, index, finish in zip(tiles, indices, finishers):
        with span("tile", tile=index, shape=tuple(tile.shape)):
            blob, stats = observed(tile, config, finish)
        hist = stats.code_histogram
        mode_count = int(hist.max()) if hist is not None and hist.size else 0
        nonzero = (
            int((hist > 0).sum(dtype=np.int64))
            if hist is not None and hist.size
            else 0
        )
        out.append((blob, stats.n_unpredictable, mode_count, nonzero))
    return out


class TiledWriter:
    """Single-pass writer of a tiled container.

    Parameters
    ----------
    dest
        Output path or writable+seekable binary file handle.
    shape, dtype
        Full-array geometry, declared up front (streaming sources cannot
        be re-read to discover it later).
    tile_shape
        Tile extents; clipped per-axis to ``shape``.  ``None`` picks a
        near-isotropic tile of ~64k values (:func:`default_tile_shape`).
    workers
        Process-pool width for compressing the tiles of one batch.  The
        writer opens one pool on its first batch that needs it and
        shuts it down in :meth:`close` (or when a ``with`` block exits
        on an exception), so every slab reuses the same workers.
    config
        An :class:`repro.api.SZConfig` carrying the error bound and all
        pipeline knobs, applied per tile (see module docstring).  Its
        ``tile_shape``/``workers`` are the defaults when the matching
        parameters are left unset.  ``pw_rel``/``psnr`` write the
        mode-tagged v3 container.
    **kwargs
        Instead of ``config``: the keywords of
        :meth:`repro.api.SZConfig.from_kwargs` (``mode``, ``bound``,
        ``layers``, ``interval_bits``, ...).

    Tiles arrive through :meth:`write_slab` (one tile-row of the leading
    axis at a time, in order) or the :meth:`write_array` /
    :meth:`write_from` conveniences; :meth:`close` seals the container.
    """

    def __init__(
        self,
        dest,
        shape: tuple[int, ...],
        tile_shape: tuple[int, ...] | None = None,
        dtype=np.float32,
        workers: int = 1,
        config=None,
        **kwargs,
    ) -> None:
        # Normalize the whole request into one SZConfig up front (same
        # surface as repro.core.compress) so a bad mode or knob fails
        # before the destination is opened and truncated.
        from repro.api.config import config_from

        config = config_from(config, kwargs)
        if workers != 1:
            config = config.replace(workers=max(1, int(workers)))
        if tile_shape is None:
            tile_shape = config.tile_shape
        self.config = config
        spec = config.error_bound
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise TypeError(f"only float32/float64 supported, got {dtype}")
        shape = tuple(int(s) for s in shape)
        if tile_shape is None:
            tile_shape = default_tile_shape(shape)
        elif isinstance(tile_shape, (int, np.integer)):
            tile_shape = (int(tile_shape),) * len(shape)  # cubic tiles
        self.grid = TileGrid(shape, tile_shape)
        self.header = TiledHeader(
            np.dtype(dtype), shape, self.grid.tile_shape,
            spec.abs_bound, spec.rel_bound,
            mode=spec.mode, mode_param=spec.param if spec.mode in
            ("pw_rel", "psnr") else 0.0,
        )
        self.workers = config.workers
        self._mode_code = MODE_CODES[spec.mode]
        if isinstance(dest, (str, Path)):
            self._fh = open(dest, "wb")
            self._owns_fh = True
        else:
            self._fh = dest
            self._owns_fh = False
        self._offset = 0
        self._entries: list[TileEntry] = []
        self._next_tile = 0
        self._next_row = 0
        self._closed = False
        self._pool: ProcessPoolExecutor | None = None
        self.bytes_written = 0  # final container size, set on close()
        head = write_header(self.header)
        self._fh.write(head)
        self._offset += len(head)

    # -- geometry helpers -------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return self.grid.n_tiles

    @property
    def tile_shape(self) -> tuple[int, ...]:
        """Resolved per-axis tile extents (mirrors ``TiledReader``)."""
        return self.grid.tile_shape

    def slab_extent(self, row: int) -> tuple[int, int]:
        """Leading-axis ``[start, stop)`` covered by tile-row ``row``."""
        t0 = self.grid.tile_shape[0]
        start = row * t0
        return start, min(start + t0, self.grid.shape[0])

    @property
    def n_slabs(self) -> int:
        return self.grid.grid[0]

    # -- writing ----------------------------------------------------------

    def write_tiles(self, tiles: list[np.ndarray]) -> None:
        """Append the next tiles in C grid order, compressed as one batch.

        Tiles of one shape share wavefront kernel passes.  With
        ``workers > 1`` each shape group is cut into up to ``workers``
        contiguous sub-batches, one pool job each; the bytes do not
        depend on the cut.
        """
        if self._closed:
            raise ValueError("writer is closed")
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, tile in enumerate(tiles):
            expect = self.grid.tile_data_shape(self._next_tile + i)
            if tuple(tile.shape) != expect:
                raise ValueError(
                    f"tile {self._next_tile + i} has shape {tile.shape}, "
                    f"expected {expect}"
                )
            if tile.dtype != self.header.dtype:
                raise TypeError(
                    f"tile dtype {tile.dtype} != container dtype "
                    f"{self.header.dtype}"
                )
            groups.setdefault(expect, []).append(i)
        parts = [
            part.tolist()
            for group in groups.values()
            for part in np.array_split(group, min(self.workers, len(group)))
        ]
        jobs = [
            ([tiles[i] for i in part], self.config,
             [self._next_tile + i for i in part])
            for part in parts
        ]
        if len(jobs) > 1 and self.workers > 1 and self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        results = [None] * len(tiles)
        for part, done in zip(
            parts,
            pool_map(
                _tiles_job, jobs, n_workers=self.workers, executor=self._pool
            ),
        ):
            for i, result in zip(part, done):
                results[i] = result
        for (blob, n_unpred, mode_count, nonzero), tile in zip(results, tiles):
            metric_add("tile/count")
            metric_observe(
                "tile/compression_factor", tile.nbytes / max(1, len(blob))
            )
            self._entries.append(
                TileEntry(
                    offset=self._offset,
                    length=len(blob),
                    crc32=zlib.crc32(blob) & 0xFFFFFFFF,
                    n_values=int(tile.size),
                    n_unpredictable=n_unpred,
                    mode_count=mode_count,
                    nonzero_bins=nonzero,
                    mode_code=self._mode_code,
                )
            )
            self._fh.write(blob)
            self._offset += len(blob)
            self._next_tile += 1

    def write_slab(self, slab: np.ndarray) -> None:
        """Append the next tile-row of the leading axis (in order)."""
        if self._next_row >= self.n_slabs:
            raise ValueError("all slabs already written")
        start, stop = self.slab_extent(self._next_row)
        expect = (stop - start,) + self.grid.shape[1:]
        slab = np.asarray(slab)
        if tuple(slab.shape) != expect:
            raise ValueError(
                f"slab {self._next_row} has shape {slab.shape}, "
                f"expected {expect}"
            )
        inner = TileGrid(expect, (expect[0],) + self.grid.tile_shape[1:])
        self.write_tiles(
            [slab[inner.tile_slices(i)] for i in range(inner.n_tiles)]
        )
        self._next_row += 1

    def write_array(self, data: np.ndarray) -> None:
        """Write a whole in-memory (or memory-mapped) array slab by slab."""
        data = np.asarray(data)
        if tuple(data.shape) != self.grid.shape:
            raise ValueError(
                f"array shape {data.shape} != declared {self.grid.shape}"
            )
        for row in range(self._next_row, self.n_slabs):
            start, stop = self.slab_extent(row)
            self.write_slab(data[start:stop])

    def write_from(self, source) -> None:
        """Consume an iterable/generator of slabs (leading-axis order)."""
        if isinstance(source, np.ndarray):
            self.write_array(source)
            return
        for slab in source:
            self.write_slab(slab)

    def close(self) -> bytes | None:
        """Write the footer index and tail; finalize the container.

        Shuts down the writer's process pool first, even when the
        container is found incomplete.
        """
        if self._closed:
            return None
        self._shutdown_pool()
        if self._next_tile != self.n_tiles:
            raise ValueError(
                f"container incomplete: {self._next_tile} of "
                f"{self.n_tiles} tiles written"
            )
        index = build_index(self._entries, self.header.version)
        self._fh.write(index)
        self._fh.write(
            build_tail(self._offset, len(index), zlib.crc32(index) & 0xFFFFFFFF)
        )
        self._fh.flush()
        self.bytes_written = self._offset + len(index) + TAIL_BYTES
        self._closed = True
        if self._owns_fh:
            self._fh.close()
        return None

    def __enter__(self) -> "TiledWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
            return
        self._shutdown_pool()
        if self._owns_fh:
            self._fh.close()

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def default_tile_shape(
    shape: tuple[int, ...], target_values: int = 1 << 16
) -> tuple[int, ...]:
    """Near-isotropic tile extents holding ~``target_values`` elements."""
    ndim = len(shape)
    if ndim == 0:
        raise ValueError("scalar input not supported")
    side = max(1, round(target_values ** (1.0 / ndim)))
    return tuple(min(int(s), side) for s in shape)


class TiledReader:
    """Random-access and streaming reads over a tiled container.

    ``src`` may be the container bytes, a filesystem path, or a seekable
    binary file handle.  Pass a :class:`ByteAccountant` to record every
    byte range touched — region reads are provably proportional to the
    tiles they intersect.
    """

    def __init__(self, src, accountant: ByteAccountant | None = None) -> None:
        self.accountant = accountant
        self._src = open_source(src, accountant)
        try:
            if self._src.size < 8 + TAIL_BYTES:
                raise ValueError("truncated tiled container: too short")
            head = bytes(self._src.read_at(0, 8))
            version, ndim = read_header_prefix(head)
            rest = 16 * ndim + 16 + (9 if version == MODED_VERSION else 0)
            head = head + bytes(self._src.read_at(8, rest))
            self.header = read_header(head)
            self.grid = TileGrid(self.header.shape, self.header.tile_shape)
            tail = self._src.read_at(self._src.size - TAIL_BYTES, TAIL_BYTES)
            index_offset, index_length, index_crc = parse_tail(tail)
            if index_offset + index_length + TAIL_BYTES > self._src.size:
                raise ValueError(
                    "truncated tiled container: index extends past tail"
                )
            index = self._src.read_at(index_offset, index_length)
            verify_index(index, index_crc)
            self.entries = parse_index(index, self.grid.n_tiles, version)
            for i, e in enumerate(self.entries):
                if e.offset + e.length > index_offset:
                    raise ValueError(
                        f"corrupt tiled container: tile {i} payload "
                        "overlaps the index"
                    )
        except Exception:
            self._src.close()
            raise

    # -- basic access ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.header.shape

    @property
    def tile_shape(self) -> tuple[int, ...]:
        return self.header.tile_shape

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.header.dtype)

    @property
    def n_tiles(self) -> int:
        return self.grid.n_tiles

    def read_tile_bytes(self, index: int) -> bytes:
        """Raw v1 container of one tile, CRC-verified."""
        entry = self.entries[index]
        blob = self._src.read_at(entry.offset, entry.length)
        if zlib.crc32(blob) & 0xFFFFFFFF != entry.crc32:
            metric_add("crc/mismatch")
            raise ValueError(
                f"corrupt tiled container: tile {index} CRC mismatch"
            )
        metric_add("crc/verified")
        return blob

    def read_tile(self, index: int) -> np.ndarray:
        """Decompress one tile to its array block."""
        tile = decompress(self.read_tile_bytes(index))
        expect = self.grid.tile_data_shape(index)
        if tuple(tile.shape) != expect:
            raise ValueError(
                f"corrupt tiled container: tile {index} decodes to "
                f"{tile.shape}, expected {expect}"
            )
        return tile

    # -- assembled reads ---------------------------------------------------

    def read_all(self) -> np.ndarray:
        """Decompress the full array (tile by tile, never the whole blob)."""
        return self.region(())

    def region(self, region) -> np.ndarray:
        """Decompress only the tiles intersecting ``region``.

        ``region`` follows basic NumPy indexing: a tuple of step-1
        slices and/or integers (integers drop their axis); missing
        trailing axes are read in full.
        """
        slices, squeeze = self.grid.normalize_region(region)
        out_shape = tuple(sl.stop - sl.start for sl in slices)
        out = np.empty(out_shape, dtype=self.dtype)
        for i in self.grid.tiles_intersecting(slices):
            tile = self.read_tile(i)
            tsl = self.grid.tile_slices(i)
            src_sel = []
            dst_sel = []
            for t, s in zip(tsl, slices):
                lo = max(t.start, s.start)
                hi = min(t.stop, s.stop)
                src_sel.append(slice(lo - t.start, hi - t.start))
                dst_sel.append(slice(lo - s.start, hi - s.start))
            out[tuple(dst_sel)] = tile[tuple(src_sel)]
        if squeeze:
            out = out.reshape(
                tuple(
                    n
                    for axis, n in enumerate(out.shape)
                    if axis not in squeeze
                )
            )
        return out

    def __getitem__(self, region) -> np.ndarray:
        return self.region(region)

    def iter_slabs(self):
        """Yield ``((start, stop), slab)`` per leading-axis tile-row.

        Streaming counterpart of :meth:`TiledWriter.write_slab`: at most
        one tile-row of decompressed data is alive at a time.
        """
        t0 = self.grid.tile_shape[0]
        for start in range(0, self.shape[0], t0):
            stop = min(start + t0, self.shape[0])
            yield (start, stop), self.region((slice(start, stop),))

    # -- metadata ----------------------------------------------------------

    def info(self) -> dict:
        """Container metadata + per-tile statistics (no decompression)."""
        compressed = [e.length for e in self.entries]
        n_vals = [e.n_values for e in self.entries]
        itemsize = self.dtype.itemsize
        cfs = [
            v * itemsize / max(1, c) for v, c in zip(n_vals, compressed)
        ]
        total_comp = self._src.size
        return {
            "format": f"tiled-v{self.header.version}",
            "shape": self.shape,
            "tile_shape": self.tile_shape,
            "tile_grid": self.grid.grid,
            "n_tiles": self.n_tiles,
            "dtype": str(self.dtype),
            "mode": self.header.mode,
            "mode_param": self.header.mode_param,
            "abs_bound": self.header.abs_bound,
            "rel_bound": self.header.rel_bound,
            "n_unpredictable": sum(e.n_unpredictable for e in self.entries),
            "compressed_bytes": total_comp,
            "payload_bytes": sum(compressed),
            "index_bytes": (
                self.n_tiles * entry_bytes(self.header.version) + TAIL_BYTES
            ),
            "compression_factor": (
                self.header.n_values * itemsize / max(1, total_comp)
            ),
            "tile_bytes": compressed,
            "tile_values": n_vals,
            "tile_compression_factors": cfs,
            "tile_hit_rates": [e.hit_rate for e in self.entries],
            "tile_summary": footer_summary(self.entries),
        }

    def close(self) -> None:
        self._src.close()

    def __enter__(self) -> "TiledReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_header_prefix(head8: bytes) -> tuple[int, int]:
    """Validate the 8-byte header prefix; return ``(version, ndim)``."""
    if head8[:4] != MAGIC:
        raise ValueError("not a tiled (SZRT) container: bad magic")
    version = head8[4]
    if version not in (VERSION, MODED_VERSION):
        raise ValueError(f"unsupported tiled container version {version}")
    ndim = head8[6]
    if ndim < 1:
        raise ValueError("tiled container must have ndim >= 1")
    return version, ndim
