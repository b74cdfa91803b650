"""High-level tiled compression API.

One-call wrappers over :class:`~repro.chunked.streams.TiledWriter` /
:class:`~repro.chunked.streams.TiledReader`:

* :func:`compress_tiled` — whole array in, v2 container bytes (or file)
  out, with optional process-pool fan-out over tiles.
* :func:`decompress_tiled` — full-array inverse.
* :func:`decompress_region` — decode only the tiles intersecting a
  hyperslab; accepts a :class:`ByteAccountant` to audit exactly which
  byte ranges were touched.
* :func:`compress_file_tiled` — compress an ``.npy`` file memory-mapped,
  slab by slab, so inputs larger than RAM never fully materialize.
* :func:`decompress_any` / :func:`container_info_any` — dispatch between
  v1 ('SZRP') and tiled v2 ('SZRT') containers by magic.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.chunked.format import TileGrid, is_tiled
from repro.chunked.io import ByteAccountant
from repro.chunked.streams import TiledReader, TiledWriter, default_tile_shape
from repro.core import container_info as v1_container_info
from repro.core import decompress as v1_decompress

__all__ = [
    "compress_tiled",
    "decompress_tiled",
    "decompress_region",
    "compress_file_tiled",
    "decompress_any",
    "container_info_any",
    "tiled_container_info",
]


def _normalize_tile_shape(
    shape: tuple[int, ...], tile_shape
) -> tuple[int, ...]:
    if tile_shape is None:
        return default_tile_shape(shape)
    if isinstance(tile_shape, (int, np.integer)):
        tile_shape = (int(tile_shape),) * len(shape)
    tile_shape = tuple(int(t) for t in tile_shape)
    if len(tile_shape) != len(shape):
        raise ValueError(
            f"tile_shape has {len(tile_shape)} axes, data has {len(shape)}"
        )
    return tile_shape


def compress_tiled(
    data: np.ndarray,
    tile_shape=None,
    workers: int = 1,
    out=None,
    config=None,
    **kwargs,
) -> bytes | None:
    """Compress ``data`` into a tiled (v2/v3) container.

    ``tile_shape`` may be a per-axis tuple, a single int (cubic tiles),
    or ``None`` for the config's ``tile_shape`` (falling back to a
    ~64k-value near-isotropic default); tiles need not divide the array
    evenly.  ``workers > 1`` fans tile compression out over a process
    pool — the resulting container is byte-identical to the serial one.
    The error bound comes from ``config`` (an :class:`repro.api.SZConfig`)
    or from the keywords of :meth:`repro.api.SZConfig.from_kwargs`
    (``mode``/``bound`` select ``abs``, ``rel``, ``pw_rel`` or ``psnr``;
    see :mod:`repro.core.bounds`), applied per tile — each tile's
    pointwise or PSNR guarantee implies the array-level one.  With
    ``out`` (a path or binary file handle) the container is written
    there and ``None`` is returned; otherwise the bytes are returned.
    """
    data = np.asarray(data)
    if data.ndim < 1:
        raise ValueError("scalar input not supported")
    if tile_shape is None and config is not None:
        tile_shape = config.tile_shape
    tile_shape = _normalize_tile_shape(data.shape, tile_shape)
    sink = out if out is not None else io.BytesIO()
    writer = TiledWriter(
        sink,
        data.shape,
        tile_shape,
        dtype=data.dtype,
        workers=workers,
        config=config,
        **kwargs,
    )
    with writer:
        writer.write_array(data)
    if out is None:
        return sink.getvalue()
    return None


def compress_file_tiled(
    npy_path,
    out,
    tile_shape=None,
    workers: int = 1,
    config=None,
    **kwargs,
) -> dict:
    """Compress an ``.npy`` file slab by slab via a memory map.

    Only one leading-axis tile-row is resident at a time, so the source
    may exceed RAM.  ``config`` or its keywords select the error-bound
    request as in :func:`compress_tiled`.  Returns a small summary dict.
    """
    data = np.load(npy_path, mmap_mode="r")
    if tile_shape is None and config is not None:
        tile_shape = config.tile_shape
    tile_shape = _normalize_tile_shape(data.shape, tile_shape)
    writer = TiledWriter(
        out,
        data.shape,
        tile_shape,
        dtype=data.dtype,
        workers=workers,
        config=config,
        **kwargs,
    )
    with writer:
        for row in range(writer.n_slabs):
            start, stop = writer.slab_extent(row)
            writer.write_slab(np.asarray(data[start:stop]))
    original_bytes = int(np.prod(data.shape, dtype=np.int64)) * data.dtype.itemsize
    return {
        "shape": tuple(data.shape),
        "tile_shape": tile_shape,
        "n_tiles": writer.n_tiles,
        "original_bytes": original_bytes,
        "compressed_bytes": writer.bytes_written,
        "compression_factor": original_bytes / max(1, writer.bytes_written),
    }


def decompress_tiled(src) -> np.ndarray:
    """Decompress a tiled container (bytes, path or file) to the array."""
    with TiledReader(src) as reader:
        return reader.read_all()


def decompress_region(
    src, region, accountant: ByteAccountant | None = None
) -> np.ndarray:
    """Decode only the tiles of ``src`` intersecting ``region``.

    ``region`` is a tuple of step-1 slices and/or integers (NumPy basic
    indexing; integers drop their axis).  ``accountant`` records every
    ``(offset, length)`` read — the byte-accounting hook proving that
    tiles outside the region are never touched.
    """
    with TiledReader(src, accountant=accountant) as reader:
        return reader.region(region)


def tiled_container_info(src) -> dict:
    """Metadata + per-tile statistics of a tiled container."""
    with TiledReader(src) as reader:
        return reader.info()


def _leading_bytes(src, n: int = 4) -> bytes:
    if isinstance(src, (bytes, bytearray, memoryview)):
        return bytes(src[:n])
    if isinstance(src, (str, Path)):
        with open(src, "rb") as fh:
            return fh.read(n)
    pos = src.tell()
    head = src.read(n)
    src.seek(pos)
    return head


def decompress_any(src) -> np.ndarray:
    """Decompress either container generation, dispatching on magic."""
    if is_tiled(_leading_bytes(src)):
        return decompress_tiled(src)
    if isinstance(src, (str, Path)):
        src = Path(src).read_bytes()
    elif not isinstance(src, (bytes, bytearray, memoryview)):
        src = src.read()
    return v1_decompress(src)


def container_info_any(src) -> dict:
    """``container_info`` for v1 and tiled v2 containers alike."""
    if is_tiled(_leading_bytes(src)):
        return tiled_container_info(src)
    if isinstance(src, (str, Path)):
        src = Path(src).read_bytes()
    elif not isinstance(src, (bytes, bytearray, memoryview)):
        src = src.read()
    info = v1_container_info(src)
    # Untagged blobs are the original v1 layout; pw_rel/psnr blobs carry
    # the mode-tagged (version 2) header of the same container family.
    info["format"] = (
        "v1-moded" if info.get("mode") in ("pw_rel", "psnr") else "v1"
    )
    return info


def region_of_interest_cost(src, region) -> dict:
    """Bytes a region read would touch vs. the whole container.

    Performs the same CRC-verified tile reads a real
    :func:`decompress_region` would issue — recorded through the
    accounting hook — but never decompresses anything, so sizing the
    partial-read savings costs I/O only, not decode CPU.
    """
    accountant = ByteAccountant()
    with TiledReader(src, accountant=accountant) as reader:
        grid: TileGrid = reader.grid
        total = reader._src.size
        slices, squeeze = grid.normalize_region(region)
        needed = grid.tiles_intersecting(slices)
        for i in needed:
            reader.read_tile_bytes(i)
    region_shape = tuple(
        sl.stop - sl.start
        for axis, sl in enumerate(slices)
        if axis not in squeeze
    )
    return {
        "region_shape": region_shape,
        "bytes_read": accountant.total_bytes,
        "container_bytes": total,
        "tiles_read": len(needed),
        "tiles_total": grid.n_tiles,
        "read_fraction": accountant.total_bytes / max(1, total),
    }
