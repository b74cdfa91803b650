"""SZ-1.4 container format.

Self-describing byte layout::

    magic 'SZRP' (32) | version (8) | dtype code (8) | ndim (8) |
    interval_bits m (8) | layers n (8) | flags (8) |
    shape: ndim x 48 | eb_abs: raw float64 bits (64) |
    value_range: raw float64 bits (64) | unpred_count (48)
    [version 2: mode code (8) | mode param: raw float64 bits (64)]
    [flag CONSTANT: constant value (64), end]
    Huffman length table (self-delimiting)
    -- byte align --
    EncodedStream blob length (48) | EncodedStream bytes
    unpredictable payload length (48) | payload bytes
    [version 2: side payload length (48) | side payload bytes]

Everything needed for decompression is in the container; the caller only
holds bytes.  Version and magic are checked; truncation raises.

Versioning: ``abs``/``rel`` containers are written as version 1 —
byte-identical to every blob this library ever produced, and decoded as
mode ``abs`` (the effective bound is absolute either way).  The
mode-tagged version 2 layout is emitted only for the ``pw_rel`` and
``psnr`` modes, which need the mode code, its parameter, and (for
``pw_rel``) the preconditioning side payload to reconstruct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bounds import CODE_MODES, MODE_CODES, MODED_MODES
from repro.core.predictor import MAX_LAYERS
from repro.encoding.bitio import BitReader, BitWriter
from repro.encoding.huffman import EncodedStream, HuffmanCodec
from repro.obs.tracer import span

__all__ = [
    "Header",
    "write_container",
    "read_container",
    "FLAG_CONSTANT",
    "FLAG_ARITHMETIC",
    "MODE_CODES",
    "MODED_VERSION",
]

MAGIC = 0x535A5250  # 'SZRP'
VERSION = 1
MODED_VERSION = 2  # version 1 + mode tag / param / side payload
FLAG_CONSTANT = 1
FLAG_ARITHMETIC = 2  # quantization codes arithmetic- instead of Huffman-coded

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}

# Mode byte values and the moded-mode set are owned by the bounds module
# so the v1/v2 and tiled container families share one table.
_CODE_MODES = CODE_MODES


@dataclass
class Header:
    dtype: np.dtype
    shape: tuple[int, ...]
    interval_bits: int
    layers: int
    eb_abs: float
    value_range: float
    unpred_count: int
    flags: int = 0
    mode: str = "abs"
    mode_param: float = 0.0
    # A memoryview when parsed from a memoryview container (zero-copy).
    side_payload: bytes | memoryview = b""

    @property
    def is_constant(self) -> bool:
        return bool(self.flags & FLAG_CONSTANT)

    @property
    def is_arithmetic(self) -> bool:
        return bool(self.flags & FLAG_ARITHMETIC)

    @property
    def is_moded(self) -> bool:
        """True when the container needs the mode-tagged v2 layout.

        ``pw_rel``/``psnr`` always — decoding needs the mode.  Constant
        containers opt in whenever the request carried a parameter:
        their resolved ``eb_abs`` can degenerate to 0 (a rel bound on a
        zero-range field), so the tag is the only surviving record of
        the requested mode/bound — which ``info --json`` reports and
        the auto-tuner seeds its search from.
        """
        return self.mode in MODED_MODES or (
            self.is_constant and self.mode_param > 0.0
        )


def _f64_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _bits_f64(b: int) -> float:
    return float(np.uint64(b).view(np.float64))


def write_container(
    header: Header,
    codec: HuffmanCodec | None,
    stream: EncodedStream | None,
    unpred_payload: bytes,
    constant_value: float = 0.0,
    arith_payload: bytes | None = None,
) -> bytes:
    with span("container_write"):
        return _write_container(
            header, codec, stream, unpred_payload, constant_value, arith_payload
        )


def _write_container(
    header: Header,
    codec: HuffmanCodec | None,
    stream: EncodedStream | None,
    unpred_payload: bytes,
    constant_value: float = 0.0,
    arith_payload: bytes | None = None,
) -> bytes:
    moded = header.is_moded
    w = BitWriter()
    w.write(MAGIC, 32)
    w.write(MODED_VERSION if moded else VERSION, 8)
    w.write(_DTYPE_CODES[np.dtype(header.dtype)], 8)
    w.write(len(header.shape), 8)
    w.write(header.interval_bits, 8)
    w.write(header.layers, 8)
    w.write(header.flags, 8)
    for s in header.shape:
        w.write(int(s), 48)
    w.write(_f64_bits(header.eb_abs), 64)
    w.write(_f64_bits(header.value_range), 64)
    w.write(header.unpred_count, 48)
    if moded:
        w.write(MODE_CODES[header.mode], 8)
        w.write(_f64_bits(header.mode_param), 64)
    if header.is_constant:
        w.write(_f64_bits(constant_value), 64)
        return w.getvalue()
    if header.is_arithmetic:
        assert arith_payload is not None
        stream_blob = arith_payload
    else:
        assert codec is not None and stream is not None
        codec.write_table(w)
        stream_blob = stream.to_bytes()
    head = w.getvalue()
    out = bytearray(head)
    out += len(stream_blob).to_bytes(6, "big")
    out += stream_blob
    out += len(unpred_payload).to_bytes(6, "big")
    out += unpred_payload
    if moded:
        out += len(header.side_payload).to_bytes(6, "big")
        out += header.side_payload
    return bytes(out)


def read_container(
    blob: bytes | memoryview,
) -> tuple[
    Header,
    HuffmanCodec | None,
    EncodedStream | None,
    bytes | memoryview,
    float,
    bytes | memoryview,
]:
    """Parse a container.

    Returns ``(header, codec, stream, unpredictable payload, constant,
    arithmetic payload)``; the codec/stream pair and the arithmetic
    payload are mutually exclusive depending on ``header.is_arithmetic``.
    """
    with span("container_read", bytes=len(blob)):
        return _read_container(blob)


def _read_container(
    blob: bytes | memoryview,
) -> tuple[
    Header,
    HuffmanCodec | None,
    EncodedStream | None,
    bytes | memoryview,
    float,
    bytes | memoryview,
]:
    r = BitReader(blob)
    try:
        if r.read(32) != MAGIC:
            raise ValueError("not an SZ-1.4 (repro) container: bad magic")
        version = r.read(8)
        if version not in (VERSION, MODED_VERSION):
            raise ValueError(f"unsupported container version {version}")
        dtype_code = r.read(8)
        if dtype_code not in _CODE_DTYPES:
            raise ValueError(f"corrupt container: unknown dtype code {dtype_code}")
        dtype = _CODE_DTYPES[dtype_code]
        ndim = r.read(8)
        if ndim < 1:
            raise ValueError("corrupt container: ndim must be >= 1")
        interval_bits = r.read(8)
        layers = r.read(8)
        if not 1 <= layers <= MAX_LAYERS:
            raise ValueError(
                f"corrupt container: layers {layers} outside "
                f"[1, {MAX_LAYERS}]"
            )
        flags = r.read(8)
        shape = tuple(r.read(48) for _ in range(ndim))
        if any(s < 1 for s in shape):
            raise ValueError("corrupt container: non-positive extent")
        eb_abs = _bits_f64(r.read(64))
        value_range = _bits_f64(r.read(64))
        unpred_count = r.read(48)
        n_values = 1
        for s in shape:
            n_values *= s
        if unpred_count > n_values:
            raise ValueError(
                f"corrupt container: {unpred_count} unpredictable values "
                f"for {n_values} points"
            )
        mode, mode_param = "abs", 0.0  # untagged v1 blobs decode as abs
        if version == MODED_VERSION:
            mode_code = r.read(8)
            if mode_code not in _CODE_MODES:
                raise ValueError(
                    f"corrupt container: unknown mode code {mode_code}"
                )
            mode = _CODE_MODES[mode_code]
            mode_param = _bits_f64(r.read(64))
        header = Header(
            dtype, shape, interval_bits, layers, eb_abs, value_range,
            unpred_count, flags, mode, mode_param,
        )
        if header.is_constant:
            constant = _bits_f64(r.read(64))
            return header, None, None, b"", constant, b""
        codec = None
        if not header.is_arithmetic:
            codec = HuffmanCodec.read_table(r)
            # The codes are m-bit: a table over any other alphabet could
            # decode codes the quantizer never emits (or miss ones it
            # does), so it is corrupt however well-formed it is.
            if codec.alphabet_size != 1 << interval_bits:
                raise ValueError(
                    f"corrupt container: Huffman table has "
                    f"{codec.alphabet_size} symbols, {interval_bits} "
                    f"interval bits need {1 << interval_bits}"
                )
        pos = (r.bitpos + 7) // 8
        stream_len = int.from_bytes(blob[pos : pos + 6], "big")
        pos += 6
        if pos + stream_len > len(blob):
            raise EOFError("truncated container: symbol stream")
        stream = None
        arith: bytes | memoryview = b""
        # Slices of a memoryview input stay zero-copy views; only a
        # bytes input pays the (unavoidable) bytes-slice copy.
        if header.is_arithmetic:
            arith = blob[pos : pos + stream_len]
        else:
            stream = EncodedStream.from_bytes(blob[pos : pos + stream_len])
            if stream.n_symbols != n_values:
                raise ValueError(
                    f"corrupt container: symbol stream holds "
                    f"{stream.n_symbols} codes for {n_values} points"
                )
        pos += stream_len
        unpred_len = int.from_bytes(blob[pos : pos + 6], "big")
        pos += 6
        if pos + unpred_len > len(blob):
            raise EOFError("truncated container: unpredictable payload")
        payload = blob[pos : pos + unpred_len]
        pos += unpred_len
        if version == MODED_VERSION:
            side_len = int.from_bytes(blob[pos : pos + 6], "big")
            pos += 6
            if pos + side_len > len(blob):
                raise EOFError("truncated container: mode side payload")
            header.side_payload = blob[pos : pos + side_len]
        return header, codec, stream, payload, 0.0, arith
    except EOFError as exc:
        raise ValueError(f"truncated SZ-1.4 container: {exc}") from exc
    except (IndexError, KeyError, OverflowError) as exc:
        # Bit-level noise in a corrupted table/stream section must not
        # escape as raw IndexError/KeyError from the decoders.
        raise ValueError(f"corrupt SZ-1.4 container: {exc!r}") from exc
