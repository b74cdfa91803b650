"""SZ-1.1 baseline (Di & Cappello, IPDPS 2016 [9]).

The previous SZ generation the paper improves upon: data are linearized in
raster order regardless of dimensionality, and each point is predicted by
the best of three curve fits on the *preceding decompressed* values —
preceding neighbor (constant), linear, quadratic.  A 2-bit best-fit code
is emitted when the winning fit is within the error bound; otherwise the
value is unpredictable and stored via binary-representation analysis.
Best-fit codes are entropy coded (we Huffman them, then the whole code
section rides through the shared container; SZ-1.1 used gzip on its
bit-arrays — our canonical Huffman plays the same role).

The sequential scan is the algorithm's defining property (and its
multidimensional weakness, which Table II / Fig. 6 of the paper expose),
so the hot loop is scalar Python by necessity; it is kept tight with
list-based state.
"""

from __future__ import annotations

import numpy as np

from repro.core.unpredictable import (
    decode_unpredictable,
    encode_unpredictable,
    truncate_to_bound,
)
from repro.encoding.bitio import BitReader, BitWriter
from repro.encoding.huffman import EncodedStream, HuffmanCodec

__all__ = ["SZ11"]

_MAGIC = 0x535A3131  # 'SZ11'

_CODE_UNPRED = 0
_CODE_PREV = 1
_CODE_LINEAR = 2
_CODE_QUAD = 3


class SZ11:
    """SZ-1.1 compressor: best-fit curve prediction on linearized data."""

    name = "SZ-1.1"

    def __init__(
        self,
        abs_bound: float | None = None,
        rel_bound: float | None = None,
    ) -> None:
        self.abs_bound = abs_bound
        self.rel_bound = rel_bound

    def _resolve(self, data: np.ndarray) -> float:
        candidates = []
        if self.abs_bound is not None:
            candidates.append(float(self.abs_bound))
        if self.rel_bound is not None:
            finite = data[np.isfinite(data)]
            vrange = float(finite.max() - finite.min()) if finite.size else 0.0
            candidates.append(float(self.rel_bound) * vrange)
        if not candidates:
            raise ValueError("provide abs_bound and/or rel_bound")
        eb = min(candidates)
        if eb <= 0:
            raise ValueError("resolved error bound must be positive")
        return eb

    def compress(self, data: np.ndarray) -> bytes:
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"only float32/float64 supported, got {data.dtype}")
        eb = self._resolve(data)
        flat = data.reshape(-1)
        n = flat.size
        xs = flat.astype(np.float64).tolist()
        cast = data.dtype.type
        codes = np.zeros(n, dtype=np.int64)
        unpred_idx: list[int] = []
        # decompressed history (three taps)
        d1 = d2 = d3 = 0.0
        codes_l = codes  # local alias
        isfinite = np.isfinite(flat)
        fin = isfinite.tolist()
        for i in range(n):
            x = xs[i]
            best_code = _CODE_UNPRED
            recon = 0.0
            if fin[i]:
                p1 = d1
                p2 = 2.0 * d1 - d2
                p3 = 3.0 * d1 - 3.0 * d2 + d3
                e1 = abs(x - p1)
                e2 = abs(x - p2)
                e3 = abs(x - p3)
                if e1 <= e2 and e1 <= e3:
                    best, best_code = p1, _CODE_PREV
                elif e2 <= e3:
                    best, best_code = p2, _CODE_LINEAR
                else:
                    best, best_code = p3, _CODE_QUAD
                recon = float(cast(best))
                if not (abs(x - recon) <= eb):
                    best_code = _CODE_UNPRED
            if best_code == _CODE_UNPRED:
                unpred_idx.append(i)
                recon = float(
                    truncate_to_bound(np.array([x], dtype=data.dtype), eb)[0]
                )
            codes_l[i] = best_code
            d3, d2, d1 = d2, d1, recon
        unpred = (
            flat[np.array(unpred_idx, dtype=np.int64)]
            if unpred_idx
            else np.zeros(0, dtype=data.dtype)
        )
        codec = HuffmanCodec.from_symbols(codes, 4)
        stream = codec.encode(codes, block_size=1 << 14)
        unpred_payload = encode_unpredictable(unpred, eb)

        w = BitWriter()
        w.write(_MAGIC, 32)
        w.write(0 if data.dtype == np.float32 else 1, 8)
        w.write(data.ndim, 8)
        for s in data.shape:
            w.write(int(s), 48)
        w.write(int(np.float64(eb).view(np.uint64)), 64)
        w.write(len(unpred_idx), 48)
        codec.write_table(w)
        head = w.getvalue()
        stream_blob = stream.to_bytes()
        out = bytearray(head)
        out += len(stream_blob).to_bytes(6, "big")
        out += stream_blob
        out += len(unpred_payload).to_bytes(6, "big")
        out += unpred_payload
        return bytes(out)

    def decompress(self, blob: bytes) -> np.ndarray:
        r = BitReader(blob)
        if r.read(32) != _MAGIC:
            raise ValueError("not an SZ-1.1 container")
        dtype = np.dtype(np.float32 if r.read(8) == 0 else np.float64)
        ndim = r.read(8)
        shape = tuple(r.read(48) for _ in range(ndim))
        eb = float(np.uint64(r.read(64)).view(np.float64))
        unpred_count = r.read(48)
        codec = HuffmanCodec.read_table(r)
        pos = (r.bitpos + 7) // 8
        stream_len = int.from_bytes(blob[pos : pos + 6], "big")
        pos += 6
        stream = EncodedStream.from_bytes(blob[pos : pos + stream_len])
        pos += stream_len
        unpred_len = int.from_bytes(blob[pos : pos + 6], "big")
        pos += 6
        unpred_payload = bytes(blob[pos : pos + unpred_len])
        codes = codec.decode(stream).tolist()
        unpred = decode_unpredictable(
            unpred_payload, unpred_count, eb, dtype
        ).astype(np.float64).tolist()

        n = int(np.prod(shape))
        out = np.zeros(n, dtype=np.float64)
        cast = dtype.type
        d1 = d2 = d3 = 0.0
        upos = 0
        for i in range(n):
            code = codes[i]
            if code == _CODE_UNPRED:
                recon = unpred[upos]
                upos += 1
            elif code == _CODE_PREV:
                recon = float(cast(d1))
            elif code == _CODE_LINEAR:
                recon = float(cast(2.0 * d1 - d2))
            else:
                recon = float(cast(3.0 * d1 - 3.0 * d2 + d3))
            out[i] = recon
            d3, d2, d1 = d2, d1, recon
        if upos != unpred_count:
            raise ValueError("corrupt SZ-1.1 stream: unpredictable count")
        return out.reshape(shape).astype(dtype)
