"""ZFP-like transform codec (Lindstrom 2014 [13], zfp 0.5 architecture).

Pipeline per 4^d block: common-exponent fixed-point alignment → integer
lifting transform along each dimension → total-sequency coefficient
ordering → negabinary → embedded bit-plane coding with prefix-significance
group testing.  Two modes:

* ``accuracy`` (fixed tolerance): per-block plane cutoff derived from the
  block exponent and the tolerance.  Like real zfp this is usually *over-
  conservative* (max error well below the tolerance, paper Table V) and —
  crucially for the paper's argument — **can violate the bound when the
  value range is huge**, because the fixed-point alignment at a large
  ``emax`` makes even the lowest retained plane coarser than the
  tolerance.
* ``rate`` (fixed bits/value): every block gets exactly ``rate * 4^d``
  payload bits; the embedded stream is truncated mid-plane.

Deviations from zfp proper (documented in DESIGN.md): we use zfp's lifting
constants (inverse is approximate by design, ±2 LSB — absorbed below the
plane cutoff); per-block bit lengths are Huffman-coded into the container
in accuracy mode so decoding can proceed block-parallel (zfp offers the
same via its offset index); the container layout is ours.

All encode/decode stages are vectorized *across blocks*; the only Python
loops are over the 4 lifting lines, ~P bit planes, and the ≤ 2*4^d+1
state-machine rounds inside a plane.
"""

from __future__ import annotations

import math

import numpy as np

from repro.encoding.bitio import BitReader, BitWriter, pack_varlen, read_bits_at, unpack_varlen
from repro.encoding.huffman import HuffmanCodec

__all__ = ["ZFPLike"]

_MAGIC = 0x525A4650  # 'RZFP'
_NBMASK = np.uint64(0xAAAAAAAAAAAAAAAA)
_EMAX_BIAS = 2048
_EMAX_BITS = 13

_QPREC = {np.dtype(np.float32): 30, np.dtype(np.float64): 52}


def _guard(d: int) -> int:
    """Extra planes kept below the tolerance cutoff.

    The inverse lifting amplifies truncation error by ~2.25x per
    dimension, so the guard grows with d.  d+2 calibrates the realized
    max error to ~0.2-0.5x the tolerance — the over-conservatism real
    zfp exhibits in the paper's Table V — while never violating it on
    normal-range data.
    """
    return d + 2


def _fwd_lift(v: np.ndarray, axis: int) -> None:
    """zfp forward lifting along ``axis`` (length 4), in place."""
    idx = [slice(None)] * v.ndim
    def at(i):
        idx[axis] = i
        return tuple(idx)
    x, y, z, w = v[at(0)].copy(), v[at(1)].copy(), v[at(2)].copy(), v[at(3)].copy()
    x += w; x >>= 1; w -= x
    z += y; z >>= 1; y -= z
    x += z; x >>= 1; z -= x
    w += y; w >>= 1; y -= w
    w += y >> 1; y -= w >> 1
    v[at(0)], v[at(1)], v[at(2)], v[at(3)] = x, y, z, w


def _inv_lift(v: np.ndarray, axis: int) -> None:
    """zfp inverse lifting along ``axis`` (length 4), in place."""
    idx = [slice(None)] * v.ndim
    def at(i):
        idx[axis] = i
        return tuple(idx)
    x, y, z, w = v[at(0)].copy(), v[at(1)].copy(), v[at(2)].copy(), v[at(3)].copy()
    y += w >> 1; w -= y >> 1
    y += w; w <<= 1; w -= y
    z += x; x <<= 1; x -= z
    y += z; z <<= 1; z -= y
    w += x; x <<= 1; x -= w
    v[at(0)], v[at(1)], v[at(2)], v[at(3)] = x, y, z, w


def _sequency_perm(d: int) -> np.ndarray:
    """Order tensor coefficients by total per-dimension frequency."""
    grids = np.meshgrid(*[np.arange(4)] * d, indexing="ij")
    total = sum(g.ravel() for g in grids)
    return np.argsort(total, kind="stable")


def _to_negabinary(q: np.ndarray) -> np.ndarray:
    return (q.astype(np.uint64) + _NBMASK) ^ _NBMASK


def _from_negabinary(u: np.ndarray) -> np.ndarray:
    return ((u ^ _NBMASK) - _NBMASK).astype(np.int64)


def _blockize(data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Split into (B, 4^d) blocks, edge-replicating partial blocks."""
    d = data.ndim
    nb = tuple(-(-s // 4) for s in data.shape)
    pad = [(0, nb[i] * 4 - data.shape[i]) for i in range(d)]
    padded = np.pad(data, pad, mode="edge")
    shape = []
    for n in nb:
        shape.extend([n, 4])
    v = padded.reshape(shape)
    order = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    return v.transpose(order).reshape(-1, 4**d), nb


def _unblockize(
    blocks: np.ndarray, nb: tuple[int, ...], shape: tuple[int, ...]
) -> np.ndarray:
    d = len(shape)
    v = blocks.reshape(tuple(nb) + (4,) * d)
    order = []
    for i in range(d):
        order.extend([i, d + i])
    padded = v.transpose(order).reshape(tuple(n * 4 for n in nb))
    return padded[tuple(slice(0, s) for s in shape)]


class ZFPLike:
    """ZFP-like compressor.  ``mode`` is 'accuracy' or 'rate'.

    >>> z = ZFPLike(mode='accuracy', tolerance=1e-3)
    >>> z = ZFPLike(mode='rate', rate=8.0)   # bits per value
    """

    name = "ZFP-like"

    def __init__(
        self,
        mode: str = "accuracy",
        tolerance: float | None = None,
        rate: float | None = None,
    ) -> None:
        if mode not in ("accuracy", "rate"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "accuracy" and (tolerance is None or tolerance <= 0):
            raise ValueError("accuracy mode needs a positive tolerance")
        if mode == "rate" and (rate is None or rate <= 0):
            raise ValueError("rate mode needs a positive rate (bits/value)")
        self.mode = mode
        self.tolerance = tolerance
        self.rate = rate

    # -- encoding ---------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"only float32/float64 supported, got {data.dtype}")
        if not 1 <= data.ndim <= 3:
            raise ValueError("ZFP-like supports 1-3 dimensional arrays")
        if not np.isfinite(data).all():
            raise ValueError("ZFP-like does not support NaN/Inf input")
        d = data.ndim
        S = 4**d
        qprec = _QPREC[data.dtype]
        nplanes = qprec + 2
        blocks, nb = _blockize(data.astype(np.float64))
        B = blocks.shape[0]

        maxabs = np.abs(blocks).max(axis=1)
        zero_blk = maxabs == 0.0
        emax = np.zeros(B, dtype=np.int64)
        nz = ~zero_blk
        if nz.any():
            _, e = np.frexp(maxabs[nz])
            emax[nz] = e  # maxabs < 2^emax
        q = np.rint(np.ldexp(blocks, (qprec - emax)[:, None])).astype(np.int64)
        q[zero_blk] = 0

        v = q.reshape((B,) + (4,) * d)
        for axis in range(1, d + 1):
            _fwd_lift(v, axis)
        perm = _sequency_perm(d)
        u = _to_negabinary(q.reshape(B, S)[:, perm])

        if self.mode == "accuracy":
            cut = (
                qprec
                + np.int64(math.floor(math.log2(self.tolerance)))
                - emax
                - _guard(d)
            )
            plane_cut = np.clip(cut, 0, nplanes)
            plane_cut[zero_blk] = nplanes  # nothing encoded
            budget = None
        else:
            # zfp charges the per-block exponent header against the budget.
            plane_cut = np.zeros(B, dtype=np.int64)
            budget = np.full(
                B,
                max(0, int(round(self.rate * S)) - _EMAX_BITS),
                dtype=np.int64,
            )

        payload_bits, block_bits = _encode_planes(
            u, plane_cut, nplanes, S, budget
        )

        w = BitWriter()
        w.write(_MAGIC, 32)
        w.write(0 if data.dtype == np.float32 else 1, 8)
        w.write(d, 8)
        w.write(0 if self.mode == "accuracy" else 1, 8)
        w.write(qprec, 8)
        for s in data.shape:
            w.write(int(s), 48)
        param = self.tolerance if self.mode == "accuracy" else self.rate
        w.write(int(np.float64(param).view(np.uint64)), 64)
        head = w.getvalue()
        out = bytearray(head)
        if self.mode == "accuracy":
            flags_buf, _ = pack_varlen(
                zero_blk.astype(np.uint64), np.full(B, 1, dtype=np.int64)
            )
            emax_buf, _ = pack_varlen(
                (emax[nz] + _EMAX_BIAS).astype(np.uint64),
                np.full(int(nz.sum()), _EMAX_BITS, dtype=np.int64),
            )
            out += flags_buf.tobytes()
            out += emax_buf.tobytes()
        else:
            # rate mode: uniform sections keep per-block offsets implicit
            emax_buf, _ = pack_varlen(
                (emax + _EMAX_BIAS).astype(np.uint64),
                np.full(B, _EMAX_BITS, dtype=np.int64),
            )
            out += emax_buf.tobytes()
        if self.mode == "accuracy":
            # Huffman-coded per-block bit lengths: the parallel-decode index.
            lens_codec = HuffmanCodec.from_symbols(
                block_bits, int(block_bits.max()) + 1
            )
            lw = BitWriter()
            lens_codec.write_table(lw)
            lens_stream = lens_codec.encode(block_bits, block_size=1 << 16)
            lens_blob = lw.getvalue() + lens_stream.to_bytes()
            out += len(lens_blob).to_bytes(4, "big")
            out += lens_blob
        out += len(payload_bits).to_bytes(6, "big")
        out += payload_bits.tobytes()
        return bytes(out)

    # -- decoding ---------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        r = BitReader(blob)
        if r.read(32) != _MAGIC:
            raise ValueError("not a ZFP-like container")
        dtype = np.float32 if r.read(8) == 0 else np.float64
        d = r.read(8)
        mode = "accuracy" if r.read(8) == 0 else "rate"
        qprec = r.read(8)
        shape = tuple(r.read(48) for _ in range(d))
        param = float(np.uint64(r.read(64)).view(np.float64))
        S = 4**d
        nplanes = qprec + 2
        nb = tuple(-(-s // 4) for s in shape)
        B = int(np.prod(nb))
        pos = (r.bitpos + 7) // 8
        if mode == "accuracy":
            flag_bytes = (B + 7) // 8
            zero_blk = unpack_varlen(
                np.frombuffer(blob, np.uint8, flag_bytes, pos),
                np.full(B, 1, dtype=np.int64),
            ).astype(bool)
            pos += flag_bytes
            n_nz = int((~zero_blk).sum())
            emax_bytes = (n_nz * _EMAX_BITS + 7) // 8
            emax = np.zeros(B, dtype=np.int64)
            emax[~zero_blk] = (
                unpack_varlen(
                    np.frombuffer(blob, np.uint8, emax_bytes, pos),
                    np.full(n_nz, _EMAX_BITS, dtype=np.int64),
                ).astype(np.int64)
                - _EMAX_BIAS
            )
            pos += emax_bytes
            cut = (
                qprec
                + np.int64(math.floor(math.log2(param)))
                - emax
                - _guard(d)
            )
            plane_cut = np.clip(cut, 0, nplanes)
            plane_cut[zero_blk] = nplanes
            lens_len = int.from_bytes(blob[pos : pos + 4], "big")
            pos += 4
            lens_blob = blob[pos : pos + lens_len]
            pos += lens_len
            lr = BitReader(lens_blob)
            lens_codec = HuffmanCodec.read_table(lr)
            from repro.encoding.huffman import EncodedStream

            lens_stream = EncodedStream.from_bytes(
                lens_blob[(lr.bitpos + 7) // 8 :]
            )
            # Offsets are summed from these: widen the narrow symbols.
            block_bits = lens_codec.decode(lens_stream).astype(np.int64)
        else:
            zero_blk = np.zeros(B, dtype=bool)
            emax_bytes = (B * _EMAX_BITS + 7) // 8
            emax = (
                unpack_varlen(
                    np.frombuffer(blob, np.uint8, emax_bytes, pos),
                    np.full(B, _EMAX_BITS, dtype=np.int64),
                ).astype(np.int64)
                - _EMAX_BIAS
            )
            pos += emax_bytes
            plane_cut = np.zeros(B, dtype=np.int64)
            block_bits = np.full(
                B,
                max(0, int(round(param * S)) - _EMAX_BITS),
                dtype=np.int64,
            )
        payload_len = int.from_bytes(blob[pos : pos + 6], "big")
        pos += 6
        payload = np.frombuffer(blob, np.uint8, payload_len, pos)

        u = _decode_planes(payload, block_bits, plane_cut, nplanes, S, B)
        perm = _sequency_perm(d)
        inv_perm = np.argsort(perm)
        q = _from_negabinary(u)[:, inv_perm]
        v = q.reshape((B,) + (4,) * d)
        for axis in range(d, 0, -1):
            _inv_lift(v, axis)
        blocks = np.ldexp(
            v.reshape(B, S).astype(np.float64), (emax - qprec)[:, None]
        )
        blocks[zero_blk] = 0.0
        return _unblockize(blocks, nb, shape).astype(dtype)


def _encode_planes(
    u: np.ndarray,
    plane_cut: np.ndarray,
    nplanes: int,
    S: int,
    budget: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Embedded bit-plane encoding; returns (payload bytes, bits/block)."""
    B = u.shape[0]
    cols = np.arange(S, dtype=np.int64)
    n_state = np.zeros(B, dtype=np.int64)
    remaining = budget.copy() if budget is not None else None
    mats: list[np.ndarray] = []
    widths: list[np.ndarray] = []
    top = nplanes - 1
    bottom = int(plane_cut.min()) if B else 0
    for p in range(top, bottom - 1, -1):
        active = plane_cut <= p
        if remaining is not None:
            active &= remaining > 0
        if not active.any():
            break  # rate budgets exhausted (cut planes never reactivate)
        bits_p = ((u >> np.uint64(p)) & np.uint64(1)).astype(np.uint8)
        M, width, n_state = _encode_one_plane(bits_p, n_state, active, cols, S)
        if remaining is not None:
            width = np.minimum(width, remaining)
            remaining -= width
        mats.append(M)
        widths.append(width)
    if not mats:
        return np.zeros(0, dtype=np.uint8), np.zeros(B, dtype=np.int64)
    width_pb = np.stack(widths)  # (P, B)
    block_bits = width_pb.sum(axis=0)
    if budget is not None:
        # Pad every block to its full budget with zero bits.
        block_bits = budget.copy()
    intra = np.zeros_like(width_pb)
    np.cumsum(width_pb[:-1], axis=0, out=intra[1:])
    block_starts = np.zeros(B, dtype=np.int64)
    np.cumsum(block_bits[:-1], out=block_starts[1:])
    total = int(block_bits.sum())
    bits = np.zeros(total, dtype=np.uint8)
    for pi, (M, width) in enumerate(zip(mats, widths)):
        wmax = int(width.max()) if width.size else 0
        if wmax == 0:
            continue
        colsw = np.arange(wmax, dtype=np.int64)
        mask = colsw[None, :] < width[:, None]
        dest = (block_starts + intra[pi])[:, None] + colsw[None, :]
        bits[dest[mask]] = M[:, :wmax][mask]
    return np.packbits(bits), block_bits


def _last_true_index(mask: np.ndarray, axis: int = -1) -> np.ndarray:
    """Index of the last True along ``axis``; -1 where the slice is all False.

    Finds the final significant coefficient of a bit plane in every
    block at once.
    """
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[axis]
    idx = np.arange(1, n + 1, dtype=np.int64)
    shape = [1] * mask.ndim
    shape[axis] = n
    scored = np.where(mask, idx.reshape(shape), 0)
    return scored.max(axis=axis) - 1


def _encode_one_plane(
    bits_p: np.ndarray,
    n_state: np.ndarray,
    active: np.ndarray,
    cols: np.ndarray,
    S: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bit plane for every block: refinement + group-tested tail."""
    B = bits_p.shape[0]
    n = np.where(active, n_state, 0)
    tail_mask = cols[None, :] >= n[:, None]
    set_tail = (bits_p != 0) & tail_mask & active[:, None]
    s_k = _last_true_index(set_tail, axis=1)  # -1 when no set bit
    k = set_tail.sum(axis=1)
    c_excl = np.cumsum(set_tail, axis=1) - set_tail
    has_set = k > 0
    tail_len = np.where(
        has_set,
        (s_k + 1 - n) + k + (s_k + 1 < S),
        np.where(n < S, 1, 0),
    )
    tail_len = np.where(active, tail_len, 0)
    width = np.where(active, n + tail_len, 0)
    W = S + S + 1
    M = np.zeros((B, W), dtype=np.uint8)
    col_idx = np.arange(W, dtype=np.int64)
    in_tail = (col_idx[None, :] >= n[:, None]) & (
        col_idx[None, :] < width[:, None]
    )
    M[in_tail] = 1  # markers default to 1
    # refinement: plane bits of coefficients already significant (prefix n)
    ref_mask = (cols[None, :] < n[:, None]) & active[:, None]
    M[:, :S][ref_mask] = bits_p[ref_mask]
    # value bits: tail coefficients up to the last set one
    val_mask = tail_mask & (cols[None, :] <= s_k[:, None]) & active[:, None]
    if val_mask.any():
        rows = np.broadcast_to(np.arange(B)[:, None], (B, S))
        dest_col = cols[None, :] + 1 + c_excl
        M[rows[val_mask], dest_col[val_mask]] = bits_p[val_mask]
    # trailing '0' test bit (only when the tail terminates early)
    trail = active & (
        (~has_set & (n < S)) | (has_set & (s_k + 1 < S))
    )
    if trail.any():
        M[np.flatnonzero(trail), width[trail] - 1] = 0
    n_new = np.where(has_set, s_k + 1, n_state)
    n_new = np.where(active, n_new, n_state)
    return M, width, n_new


def _decode_planes(
    payload: np.ndarray,
    block_bits: np.ndarray,
    plane_cut: np.ndarray,
    nplanes: int,
    S: int,
    B: int,
) -> np.ndarray:
    """Replay the embedded coder; returns negabinary coefficients (B, S)."""
    u = np.zeros((B, S), dtype=np.uint64)
    starts = np.zeros(B, dtype=np.int64)
    np.cumsum(block_bits[:-1].astype(np.int64), out=starts[1:])
    ends = starts + block_bits.astype(np.int64)
    cursors = starts.copy()
    n_state = np.zeros(B, dtype=np.int64)
    top = nplanes - 1
    bottom = int(plane_cut.min()) if B else 0

    def read_bit(sel: np.ndarray) -> np.ndarray:
        """Read one bit per selected block; zero once past block end."""
        can = cursors[sel] < ends[sel]
        out = np.zeros(sel.size, dtype=np.uint64)
        if can.any():
            out[can] = read_bits_at(payload, cursors[sel][can], 1)
        cursors[sel] += can  # only real reads advance
        return out

    for p in range(top, bottom - 1, -1):
        if np.all(cursors >= ends):
            break  # every block's stream fully consumed
        active = (plane_cut <= p) & (cursors < ends)
        if not active.any():
            continue
        pbit = np.uint64(1) << np.uint64(p)
        # refinement: n_state consecutive bits per block, fetched as two
        # ≤57-bit windows instead of bit-by-bit rounds
        sel = np.flatnonzero(active & (n_state > 0))
        if sel.size:
            nb = n_state[sel]
            avail = np.minimum(nb, np.maximum(ends[sel] - cursors[sel], 0))
            w1 = read_bits_at(payload, np.minimum(cursors[sel], len(payload) * 8), 57)
            ref_bits = np.zeros((sel.size, int(nb.max())), dtype=bool)
            upto = int(min(57, nb.max()))
            for i in range(upto):
                ref_bits[:, i] = ((w1 >> np.uint64(56 - i)) & np.uint64(1)) == 1
            if nb.max() > 57:
                sel2 = np.flatnonzero(nb > 57)
                w2 = read_bits_at(
                    payload,
                    np.minimum(cursors[sel][sel2] + 57, len(payload) * 8),
                    7,
                )
                for i in range(57, int(nb.max())):
                    ref_bits[sel2, i] = ((w2 >> np.uint64(57 + 6 - i)) & np.uint64(1)) == 1
            cols64 = np.arange(ref_bits.shape[1], dtype=np.int64)
            valid = cols64[None, :] < avail[:, None]  # beyond end reads as 0
            hit = ref_bits & valid
            rows, cidx = np.nonzero(hit)
            u[sel[rows], cidx] |= pbit
            cursors[sel] += avail
        # tail state machine: 0 = need test, 1 = scanning, 2 = done
        phase = np.where(active & (n_state < S), 0, 2)
        pos = n_state.copy()
        while True:
            busy = np.flatnonzero(phase < 2)
            if busy.size == 0:
                break
            bit = read_bit(busy)
            ph = phase[busy]
            testing = ph == 0
            scanning = ph == 1
            # test bit: 0 -> done, 1 -> start scanning
            t_idx = busy[testing]
            phase[t_idx] = np.where(bit[testing] == 1, 1, 2)
            # value bit at pos
            s_idx = busy[scanning]
            if s_idx.size:
                sbit = bit[scanning]
                hit = sbit == 1
                u[s_idx[hit], pos[s_idx[hit]]] |= pbit
                pos[s_idx] += 1
                n_state[s_idx[hit]] = pos[s_idx[hit]]
                # after a set bit: next is a test (or done at S)
                done_full = pos[s_idx] >= S
                phase[s_idx] = np.where(
                    hit & ~done_full, 0, np.where(done_full, 2, 1)
                )
    return u
