"""Multi-file archives: the paper's off-line compression workflow.

Section VI: "ATM data sets have a total of 11400 files ... users can
load these files by multiple processes and run our compressor in
parallel, without inter-process communications."  This module packages
that workflow: compress a directory of ``.npy`` snapshots (optionally in
parallel) into one archive with a manifest, and restore or selectively
extract from it.

Archive layout::

    magic 'SZAR' (4) | version (1) | entry count (4, big endian)
    per entry: name length (2) | utf-8 name | container length (6)
    entry containers, concatenated in manifest order
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import compress as sz_compress
from repro.core import decompress as sz_decompress
from repro.parallel.pool import parallel_compress, parallel_decompress

__all__ = [
    "ArchiveEntry",
    "archive_info",
    "create_archive",
    "extract",
    "extract_all",
    "extract_region",
    "read_manifest",
]

_MAGIC = b"SZAR"
_VERSION = 1


@dataclass(frozen=True)
class ArchiveEntry:
    name: str
    offset: int
    length: int


def create_archive(
    arrays: dict[str, np.ndarray] | None = None,
    directory: str | Path | None = None,
    out_path: str | Path | None = None,
    n_workers: int = 1,
    tile_shape=None,
    **compress_kwargs,
) -> bytes:
    """Build an archive from named arrays and/or a directory of ``.npy``.

    Each variable is compressed independently (its own value range and
    bounds), so any entry can be extracted without touching the others —
    the property that makes the paper's off-line mode embarrassingly
    parallel.  With ``tile_shape`` every entry is written as a tiled
    (v2) container, so hyperslabs of an entry can later be read via
    :func:`extract_region` without decoding the rest of it.
    """
    items: list[tuple[str, np.ndarray]] = []
    if arrays:
        items.extend(sorted(arrays.items()))
    if directory is not None:
        for path in sorted(Path(directory).glob("*.npy")):
            items.append((path.stem, np.load(path)))
    if not items:
        raise ValueError("nothing to archive")
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise ValueError("duplicate entry names")
    chunks = [arr for _, arr in items]
    if tile_shape is not None:
        from repro.chunked import compress_tiled

        # Tile-level fan-out: the per-entry index must be built in
        # order anyway, and workers already parallelize within entries.
        blobs = [
            compress_tiled(
                c, tile_shape=tile_shape, workers=n_workers,
                **compress_kwargs,
            )
            for c in chunks
        ]
    elif n_workers > 1:
        blobs = parallel_compress(chunks, n_workers=n_workers, **compress_kwargs)
    else:
        blobs = [sz_compress(c, **compress_kwargs) for c in chunks]

    out = bytearray()
    out += _MAGIC
    out.append(_VERSION)
    out += len(items).to_bytes(4, "big")
    for name, blob in zip(names, blobs):
        encoded = name.encode("utf-8")
        if len(encoded) > 65535:
            raise ValueError(f"entry name too long: {name!r}")
        out += len(encoded).to_bytes(2, "big")
        out += encoded
        out += len(blob).to_bytes(6, "big")
    for blob in blobs:
        out += blob
    data = bytes(out)
    if out_path is not None:
        Path(out_path).write_bytes(data)
    return data


def read_manifest(archive: bytes) -> list[ArchiveEntry]:
    """Parse the manifest without touching any entry payload.

    Raises ``ValueError`` when the header, the entry count or any name or
    length field does not fit in ``archive``.
    """
    if archive[:4] != _MAGIC:
        raise ValueError("not an SZ archive")
    if len(archive) < 9:
        raise ValueError("truncated archive header")
    if archive[4] != _VERSION:
        raise ValueError(f"unsupported archive version {archive[4]}")
    count = int.from_bytes(archive[5:9], "big")
    # Every entry takes at least 8 manifest bytes (its two length
    # fields), so a forged count fails here instead of driving the loop.
    if 9 + 8 * count > len(archive):
        raise ValueError(f"archive entry count {count} overruns the archive")
    pos = 9
    metas: list[tuple[str, int]] = []
    for _ in range(count):
        nlen = int.from_bytes(archive[pos : pos + 2], "big")
        if pos + 2 + nlen + 6 > len(archive):
            raise ValueError("truncated archive manifest")
        pos += 2
        name = archive[pos : pos + nlen].decode("utf-8")
        pos += nlen
        length = int.from_bytes(archive[pos : pos + 6], "big")
        pos += 6
        metas.append((name, length))
    entries = []
    offset = pos
    for name, length in metas:
        if offset + length > len(archive):
            raise ValueError("truncated archive")
        entries.append(ArchiveEntry(name, offset, length))
        offset += length
    return entries


def _entry_blob(archive: bytes, entry: ArchiveEntry) -> bytes:
    return archive[entry.offset : entry.offset + entry.length]


def _find_entry(archive: bytes, name: str) -> bytes:
    for entry in read_manifest(archive):
        if entry.name == name:
            return _entry_blob(archive, entry)
    raise KeyError(f"no entry named {name!r}")


def extract(archive: bytes, name: str) -> np.ndarray:
    """Decompress a single entry, v1 or tiled v2 (no other entry is parsed)."""
    from repro.chunked import decompress_any

    return decompress_any(_find_entry(archive, name))


def extract_region(archive: bytes, name: str, region) -> np.ndarray:
    """Read a hyperslab of one tiled entry, touching only its tiles.

    v1 entries have no tile index, so the whole entry is decoded first
    and then sliced.
    """
    from repro.chunked import decompress_region, is_tiled

    blob = _find_entry(archive, name)
    if is_tiled(blob):
        return decompress_region(blob, region)
    return sz_decompress(blob)[region]


def extract_all(
    archive: bytes, n_workers: int = 1
) -> dict[str, np.ndarray]:
    """Decompress every entry, optionally with a process pool."""
    entries = read_manifest(archive)
    blobs = [_entry_blob(archive, e) for e in entries]
    arrays = parallel_decompress(blobs, n_workers=n_workers)
    return {e.name: a for e, a in zip(entries, arrays)}


def archive_info(archive: bytes) -> list[dict]:
    """Per-entry header info (shape, dtype, CF) without decompressing."""
    from repro.chunked import container_info_any

    rows = []
    for entry in read_manifest(archive):
        info = container_info_any(_entry_blob(archive, entry))
        n_values = int(np.prod(info["shape"], dtype=np.int64)) if info["shape"] else 0
        itemsize = np.dtype(info["dtype"]).itemsize
        rows.append(
            {
                "name": entry.name,
                "shape": info["shape"],
                "dtype": info["dtype"],
                "format": info.get("format", "v1"),
                "n_tiles": info.get("n_tiles"),
                "compressed_bytes": entry.length,
                "cf": n_values * itemsize / max(1, entry.length),
            }
        )
    return rows
