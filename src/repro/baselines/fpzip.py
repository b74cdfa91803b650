"""FPZIP-like lossless predictive float compressor (Lindstrom & Isenburg
2006 [14]).

Lorenzo (n=1) prediction on *original* values — lossless means the decoder
reproduces them exactly, so prediction is fully vectorizable — followed by
a monotone float→integer mapping, residual differencing modulo 2^w, and
entropy coding of residual magnitudes (bit-length buckets via canonical
Huffman + raw offset bits; fpzip proper uses a range coder, similar rates).

An optional ``precision`` parameter truncates mantissa bits before
prediction (fpzip's lossy mode); the default is fully lossless.
"""

from __future__ import annotations

import numpy as np

from repro.core.predictor import prediction_stencil
from repro.encoding.bitio import BitReader, BitWriter, pack_varlen, unpack_varlen
from repro.encoding.huffman import EncodedStream, HuffmanCodec

__all__ = ["FPZIPLike"]

_MAGIC = 0x52465A50  # 'RFZP'

_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}
_WIDTH = {np.dtype(np.float32): 32, np.dtype(np.float64): 64}


def _float_to_ordered(bits: np.ndarray, width: int) -> np.ndarray:
    """Monotone IEEE-bits → unsigned mapping (total order on floats)."""
    bits = bits.astype(np.uint64)
    sign = bits >> np.uint64(width - 1)
    return np.where(
        sign == 1,
        ~bits & np.uint64((1 << width) - 1),
        bits | np.uint64(1 << (width - 1)),
    )


def _ordered_to_float_bits(ordered: np.ndarray, width: int) -> np.ndarray:
    high = np.uint64(1 << (width - 1))
    mask = np.uint64((1 << width) - 1)
    is_pos = (ordered & high) != 0
    return np.where(is_pos, ordered & ~high, ~ordered & mask)


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Vectorized bit length of uint64 values (0 -> 0)."""
    out = np.zeros(values.shape, dtype=np.int64)
    tmp = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = tmp >= (np.uint64(1) << np.uint64(shift))
        out[big] += shift
        tmp[big] >>= np.uint64(shift)
    out[values > 0] += 1
    return out


class FPZIPLike:
    """Lossless (or precision-truncated) Lorenzo-predictive float codec."""

    name = "FPZIP-like"

    def __init__(self, precision: int | None = None) -> None:
        self.precision = precision  # kept mantissa bits; None = lossless

    def compress(self, data: np.ndarray) -> bytes:
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"only float32/float64 supported, got {data.dtype}")
        width = _WIDTH[data.dtype]
        uint = _UINT[data.dtype]
        work = data
        if self.precision is not None:
            mant = 23 if width == 32 else 52
            drop = np.uint64(max(0, mant - self.precision))
            bits = work.reshape(-1).view(uint).astype(np.uint64)
            bits = (bits >> drop) << drop
            work = bits.astype(uint).view(data.dtype).reshape(data.shape)
        pred = _lorenzo_predict_exact(work)
        keys = _float_to_ordered(
            work.reshape(-1).view(uint).astype(np.uint64), width
        )
        pkeys = _float_to_ordered(
            pred.reshape(-1).view(uint).astype(np.uint64), width
        )
        resid = keys - pkeys  # wraps mod 2^64: bijective
        # zigzag on the signed interpretation
        signed = resid.astype(np.int64)
        zz = ((signed << 1) ^ (signed >> 63)).astype(np.uint64)
        buckets = _bit_length(zz)
        codec = HuffmanCodec.from_symbols(buckets, width + 1)
        stream = codec.encode(buckets, block_size=1 << 14)
        # offset bits: value below its MSB (bucket-1 bits)
        off_len = np.maximum(buckets - 1, 0)
        off_val = zz & ((np.uint64(1) << off_len.astype(np.uint64)) - np.uint64(1))
        off_buf, off_bits = pack_varlen(off_val, off_len)

        w = BitWriter()
        w.write(_MAGIC, 32)
        w.write(0 if width == 32 else 1, 8)
        w.write(data.ndim, 8)
        w.write(self.precision if self.precision is not None else 63, 8)
        for s in data.shape:
            w.write(int(s), 48)
        codec.write_table(w)
        head = w.getvalue()
        stream_blob = stream.to_bytes()
        out = bytearray(head)
        out += len(stream_blob).to_bytes(6, "big")
        out += stream_blob
        out += len(off_buf).to_bytes(6, "big")
        out += off_buf.tobytes()
        return bytes(out)

    def decompress(self, blob: bytes) -> np.ndarray:
        r = BitReader(blob)
        if r.read(32) != _MAGIC:
            raise ValueError("not an FPZIP-like container")
        dtype = np.dtype(np.float32 if r.read(8) == 0 else np.float64)
        ndim = r.read(8)
        r.read(8)  # precision (informational)
        shape = tuple(r.read(48) for _ in range(ndim))
        codec = HuffmanCodec.read_table(r)
        pos = (r.bitpos + 7) // 8
        stream_len = int.from_bytes(blob[pos : pos + 6], "big")
        pos += 6
        stream = EncodedStream.from_bytes(blob[pos : pos + stream_len])
        pos += stream_len
        off_len_bytes = int.from_bytes(blob[pos : pos + 6], "big")
        pos += 6
        off_buf = np.frombuffer(blob, np.uint8, off_len_bytes, pos)

        width = _WIDTH[dtype]
        uint = _UINT[dtype]
        # Signed arithmetic below (buckets - 1): widen the uint16 symbols.
        buckets = codec.decode(stream).astype(np.int64)
        off_len = np.maximum(buckets - 1, 0)
        offs = unpack_varlen(off_buf, off_len)
        zz = np.where(
            buckets > 0,
            (np.uint64(1) << np.maximum(buckets - 1, 0).astype(np.uint64)) | offs,
            np.uint64(0),
        )
        signed = (zz >> np.uint64(1)).astype(np.int64) ^ -(
            (zz & np.uint64(1)).astype(np.int64)
        )
        resid = signed.astype(np.uint64)
        # Sequential reconstruction is needed because prediction uses decoded
        # values; but lossless decoding reproduces the originals, so we can
        # decode in wavefront order... in practice the Lorenzo stencil makes
        # raster order safe: predictions only look backwards in every dim.
        return _lorenzo_unpredict(resid, shape, width, dtype, uint)


def _lorenzo_predict_exact(data: np.ndarray) -> np.ndarray:
    """Lorenzo n=1 prediction from original values, cast to data dtype."""
    d = data.ndim
    offsets, coeffs = prediction_stencil(1, d)
    padded = np.zeros(tuple(s + 1 for s in data.shape), dtype=np.float64)
    padded[tuple(slice(1, None) for _ in range(d))] = data
    pred = np.zeros(data.shape, dtype=np.float64)
    for off, c in zip(offsets, coeffs):
        src = tuple(slice(1 - o, 1 - o + s) for o, s in zip(off, data.shape))
        pred += c * padded[src]
    return pred.astype(data.dtype)


def _lorenzo_unpredict(
    resid: np.ndarray,
    shape: tuple[int, ...],
    width: int,
    dtype: np.dtype,
    uint,
) -> np.ndarray:
    """Invert prediction.  Residuals are keyed to *original* neighbors, so
    reconstruct in wavefront order: every neighbor is strictly earlier in
    coordinate-sum, and once decoded it equals the original exactly."""
    from functools import reduce

    d = len(shape)
    if d == 1:
        out = np.zeros(shape, dtype=dtype)
        flat = out.reshape(-1)
        for i in range(shape[0]):
            prev = flat[i - 1] if i else dtype.type(0.0)
            pkey = _float_to_ordered(
                np.array([prev], dtype=dtype).view(uint).astype(np.uint64), width
            )
            key = (pkey + resid[i]) & np.uint64((1 << width) - 1)
            flat[i] = (
                _ordered_to_float_bits(key, width).astype(uint).view(dtype)[0]
            )
        return out
    offsets, coeffs = prediction_stencil(1, d)
    padded = np.zeros(tuple(s + 1 for s in shape), dtype=np.float64)
    pflat = padded.reshape(-1)
    pad_strides = np.ones(d, dtype=np.int64)
    pshape = tuple(s + 1 for s in shape)
    for axis in range(d - 2, -1, -1):
        pad_strides[axis] = pad_strides[axis + 1] * pshape[axis + 1]
    deltas = offsets @ pad_strides
    coord_sum = reduce(
        np.add.outer, [np.arange(s, dtype=np.int32) for s in shape]
    ).ravel()
    order = np.argsort(coord_sum, kind="stable")
    sums = coord_sum[order]
    bounds = np.searchsorted(sums, np.arange(int(sums[-1]) + 2))
    coords = np.unravel_index(order, shape)
    pad_flat = np.zeros(order.size, dtype=np.int64)
    for axis in range(d):
        pad_flat += (coords[axis].astype(np.int64) + 1) * pad_strides[axis]
    resid_wf = resid[order]
    mask = np.uint64((1 << width) - 1)
    keys_flat = np.zeros(order.size, dtype=np.uint64)
    for s in range(len(bounds) - 1):
        start, end = int(bounds[s]), int(bounds[s + 1])
        if start == end:
            continue
        base = pad_flat[start:end]
        pred = np.zeros(end - start, dtype=np.float64)
        for c, dlt in zip(coeffs, deltas):
            pred += c * pflat[base - dlt]
        pred_cast = pred.astype(dtype)
        pkeys = _float_to_ordered(
            pred_cast.view(uint).astype(np.uint64), width
        )
        keys = (pkeys + resid_wf[start:end]) & mask
        vals = (
            _ordered_to_float_bits(keys, width)
            .astype(uint)
            .view(dtype)
            .astype(np.float64)
        )
        pflat[base] = vals
        keys_flat[start:end] = keys
    out_keys = np.zeros(order.size, dtype=np.uint64)
    out_keys[order] = keys_flat
    return (
        _ordered_to_float_bits(out_keys, width)
        .astype(uint)
        .view(dtype)
        .reshape(shape)
    )
