"""Optional lossless post-pass over the SZ-1.4 container.

The original SZ implementations can pipe their output through a lossless
byte compressor (SZ-1.x shipped with gzip integration).  Wrapping the
container in stdlib ``zlib`` at gzip's default level squeezes residual
redundancy out of the Huffman table, the unpredictable section and any
padding — typically a few extra percent, more when the code stream is
extremely skewed.

A wrapped container is ``b"SZPZ"``, the inner container length as an
8-byte big-endian integer, then the zlib stream.  The magic lets
:func:`unwrap` pass ordinary containers straight through, and the
recorded length caps inflation (:func:`inflate_exact`), so a forged
stream cannot allocate more than it claims.  The pre-3.0 ``SZPP``
wrapper (a hand-written DEFLATE) is retired: such blobs raise
``ValueError``.
"""

from __future__ import annotations

import zlib

__all__ = ["ZLIB_LEVEL", "inflate_exact", "is_wrapped", "unwrap", "wrap"]

ZLIB_LEVEL = 6
"""gzip's default level; the one zlib setting the repo uses."""

_MAGIC = b"SZPZ"
_RETIRED_MAGIC = b"SZPP"
_LEN_BYTES = 8
_MAX_DEFLATE_RATIO = 1032
"""A DEFLATE stream never inflates past this multiple of its size (zlib FAQ)."""


def inflate_exact(buf: bytes | memoryview, n: int) -> bytes:
    """Inflate a zlib stream that must decode to exactly ``n`` bytes.

    ``buf`` is untrusted: the output is capped at ``n`` bytes whatever the
    stream claims, and anything but one complete stream of exactly ``n``
    bytes with no trailing data raises ``ValueError``.

    >>> inflate_exact(zlib.compress(b"abc"), 3)
    b'abc'
    >>> inflate_exact(zlib.compress(b"abc"), 2)
    Traceback (most recent call last):
    ...
    ValueError: corrupt zlib stream: does not inflate to exactly 2 bytes
    """
    if not 0 <= n <= _MAX_DEFLATE_RATIO * len(buf):
        raise ValueError(
            f"corrupt zlib stream: {len(buf)} bytes cannot inflate to {n}"
        )
    inflater = zlib.decompressobj()
    try:
        # zlib reads max_length=0 as "no limit", so cap an empty
        # expectation at one byte: any output at all is then a mismatch.
        out = inflater.decompress(buf, max(n, 1))
    except zlib.error as exc:
        raise ValueError(f"corrupt zlib stream: {exc}") from exc
    if not inflater.eof or len(out) != n or inflater.unused_data:
        raise ValueError(
            f"corrupt zlib stream: does not inflate to exactly {n} bytes"
        )
    return out


def wrap(container: bytes) -> bytes:
    """zlib the container; keeps whichever representation is smaller."""
    packed = (
        _MAGIC
        + len(container).to_bytes(_LEN_BYTES, "big")
        + zlib.compress(container, ZLIB_LEVEL)
    )
    return packed if len(packed) < len(container) else container


def is_wrapped(blob: bytes | memoryview) -> bool:
    """Accepts bytes or any flat byte view (memoryview slices compare
    by content against bytes, so no copy happens here)."""
    return blob[:4] == _MAGIC


def unwrap(blob: bytes | memoryview) -> bytes | memoryview:
    """Undo :func:`wrap`; a plain container passes through unchanged.

    ``blob`` may be ``bytes`` or a flat ``uint8`` memoryview — an
    unwrapped container is returned as the same object (zero-copy).
    """
    magic = blob[:4]
    if magic == _RETIRED_MAGIC:
        raise ValueError(
            "retired lossless_post wrapper 'SZPP' (repro < 3.0) no longer "
            "decodes; decode it with repro 2.x and re-compress"
        )
    if magic != _MAGIC:
        return blob
    head = len(_MAGIC) + _LEN_BYTES
    if len(blob) < head:
        raise ValueError("truncated lossless_post wrapper header")
    inner_len = int.from_bytes(blob[len(_MAGIC) : head], "big")
    return inflate_exact(blob[head:], inner_len)
