"""ISABELA baseline (Lakshminarasimhan et al. 2013 [12]).

In-situ Sort-And-B-spline Error-bounded Lossy Abatement: each fixed-size
window of the linearized stream is sorted into a monotone curve, fitted
with a least-squares cubic B-spline, and the *permutation index* is stored
so the decoder can undo the sort.  The index costs ``log2(window)`` bits
per value, which caps the compression factor — the structural weakness the
paper's Figure 6 shows.

Error control: residuals against the fitted curve are quantized at
``2*eb`` and entropy coded, so every reconstructed value is within ``eb``
(the original bounds point-wise relative error; we bound absolute error,
consistent with how the paper drives every compressor from a
value-range-based relative bound).  When the residual stream stops
compressing — tight bounds on rough data — the achieved factor drops
below 1 and :class:`ISABELAFailure` is raised, mirroring the original
implementation giving up at low error bounds ("we plot its compression
factors only until it fails").

The B-spline basis (Cox–de Boor) is built from scratch; because windows
share one uniform design matrix, fitting all windows is a single
pseudo-inverse matmul.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitio import BitReader, BitWriter, pack_varlen, unpack_varlen
from repro.encoding.huffman import EncodedStream, HuffmanCodec

__all__ = ["ISABELA", "ISABELAFailure", "bspline_basis"]

_MAGIC = 0x52495341  # 'RISA'


class ISABELAFailure(RuntimeError):
    """Raised when ISABELA cannot reach a compression factor > 1."""


def bspline_basis(
    x: np.ndarray, n_coeffs: int, degree: int = 3
) -> np.ndarray:
    """Cox–de Boor B-spline design matrix on a clamped uniform knot vector.

    Parameters
    ----------
    x
        Evaluation points in ``[0, 1]``.
    n_coeffs
        Number of control points (columns).
    degree
        Spline degree (3 = cubic, as in ISABELA).

    Returns
    -------
    ``(len(x), n_coeffs)`` float64 design matrix.
    """
    if n_coeffs <= degree:
        raise ValueError("need more coefficients than the degree")
    n_knots = n_coeffs + degree + 1
    interior = n_knots - 2 * (degree + 1)
    knots = np.concatenate(
        [
            np.zeros(degree + 1),
            np.linspace(0, 1, interior + 2)[1:-1],
            np.ones(degree + 1),
        ]
    )
    x = np.asarray(x, dtype=np.float64)
    # degree-0 basis: indicator of the knot span (right-open, last closed)
    basis = np.zeros((x.size, n_knots - 1))
    for j in range(n_knots - 1):
        if knots[j + 1] > knots[j]:
            basis[:, j] = (x >= knots[j]) & (x < knots[j + 1])
    basis[x >= knots[-1] - 1e-12, np.max(np.nonzero(np.diff(knots))[0])] = 1.0
    for p in range(1, degree + 1):
        nb = np.zeros((x.size, n_knots - p - 1))
        for j in range(n_knots - p - 1):
            left_den = knots[j + p] - knots[j]
            right_den = knots[j + p + 1] - knots[j + 1]
            term = 0.0
            if left_den > 0:
                term = (x - knots[j]) / left_den * basis[:, j]
            if right_den > 0:
                term = term + (knots[j + p + 1] - x) / right_den * basis[:, j + 1]
            nb[:, j] = term
        basis = nb
    return basis


def _repair_cast_rounding(
    sorted_vals: np.ndarray,
    fit: np.ndarray,
    q: np.ndarray,
    eb: float,
    dtype: np.dtype,
) -> np.ndarray:
    """Nudge quantized residuals whose reconstruction, once rounded through
    the output dtype, lands outside the bound (float32 ulp vs tiny eb)."""
    recon = (fit + q * (2.0 * eb)).astype(dtype).astype(np.float64)
    bad = np.abs(sorted_vals - recon) > eb
    if not bad.any():
        return q
    for delta in (-1, 1):
        cand = q[bad] + delta
        recon_c = (fit[bad] + cand * (2.0 * eb)).astype(dtype).astype(np.float64)
        fix = np.abs(sorted_vals[bad] - recon_c) <= eb
        qb = q[bad]
        qb[fix] = cand[fix]
        q[bad] = qb
        recon = (fit + q * (2.0 * eb)).astype(dtype).astype(np.float64)
        bad = np.abs(sorted_vals - recon) > eb
        if not bad.any():
            return q
    raise ISABELAFailure(
        "bound unreachable after dtype rounding; eb too tight for ISABELA"
    )


class ISABELA:
    """Window-sorted B-spline compressor with error-bound repair stream."""

    name = "ISABELA"

    def __init__(
        self,
        abs_bound: float | None = None,
        rel_bound: float | None = None,
        window: int = 1024,
        n_coeffs: int = 30,
    ) -> None:
        if window & (window - 1):
            raise ValueError("window must be a power of two")
        self.abs_bound = abs_bound
        self.rel_bound = rel_bound
        self.window = window
        self.n_coeffs = n_coeffs
        self._design_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _design(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """(basis, pseudo-inverse) for a window of length ``w``."""
        if w not in self._design_cache:
            x = np.linspace(0, 1, w)
            basis = bspline_basis(x, min(self.n_coeffs, max(4, w // 4)))
            pinv = np.linalg.pinv(basis)
            self._design_cache[w] = (basis, pinv)
        return self._design_cache[w]

    def _resolve(self, data: np.ndarray) -> float:
        candidates = []
        if self.abs_bound is not None:
            candidates.append(float(self.abs_bound))
        if self.rel_bound is not None:
            vrange = float(data.max() - data.min())
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
        if not np.isfinite(data).all():
            raise ValueError("ISABELA does not support NaN/Inf input")
        eb = self._resolve(data)
        flat = data.reshape(-1).astype(np.float64)
        n = flat.size
        W = self.window
        n_full = n // W
        rem = n - n_full * W

        perm_bits = int(np.log2(W))
        parts_perm: list[np.ndarray] = []
        coeff_list: list[np.ndarray] = []
        q_all: list[np.ndarray] = []

        if n_full:
            windows = flat[: n_full * W].reshape(n_full, W)
            order = np.argsort(windows, axis=1, kind="stable")
            sorted_vals = np.take_along_axis(windows, order, axis=1)
            basis, pinv = self._design(W)
            coeffs = sorted_vals @ pinv.T  # (n_full, K)
            coeffs32 = coeffs.astype(np.float32)
            fit = coeffs32.astype(np.float64) @ basis.T
            resid = sorted_vals - fit
            q = np.rint(resid / (2.0 * eb)).astype(np.int64)
            q = _repair_cast_rounding(sorted_vals, fit, q, eb, data.dtype)
            coeff_list.append(coeffs32)
            q_all.append(q.reshape(-1))
            buf, _ = pack_varlen(
                order.reshape(-1).astype(np.uint64),
                np.full(n_full * W, perm_bits, dtype=np.int64),
            )
            parts_perm.append(buf)
        if rem:
            tailw = flat[n_full * W :]
            order = np.argsort(tailw, kind="stable")
            sorted_vals = tailw[order]
            k = min(self.n_coeffs, max(4, rem // 4))
            if rem > k:
                basis, pinv = self._design(rem)
                coeffs32 = (pinv @ sorted_vals).astype(np.float32)
                fit = basis @ coeffs32.astype(np.float64)
            else:  # degenerate tiny tail: store values as "coefficients"
                coeffs32 = sorted_vals.astype(np.float32)
                fit = coeffs32.astype(np.float64)
            resid = sorted_vals - fit
            q = np.rint(resid / (2.0 * eb)).astype(np.int64)
            q = _repair_cast_rounding(sorted_vals, fit, q, eb, data.dtype)
            coeff_list.append(coeffs32.reshape(1, -1))
            q_all.append(q)
            tail_bits = max(1, int(np.ceil(np.log2(max(rem, 2)))))
            buf, _ = pack_varlen(
                order.astype(np.uint64),
                np.full(rem, tail_bits, dtype=np.int64),
            )
            parts_perm.append(buf)

        q_flat = np.concatenate(q_all) if q_all else np.zeros(0, dtype=np.int64)
        # zigzag then Huffman; alphabet sized by the worst symbol
        zz = ((q_flat << 1) ^ (q_flat >> 63)).astype(np.int64)
        # guard: enormous quantized residuals mean the fit is useless
        if zz.size and zz.max() > 1 << 24:
            raise ISABELAFailure(
                "residuals too large to quantize; bound too tight for ISABELA"
            )
        alphabet = int(zz.max()) + 1 if zz.size else 1
        codec = HuffmanCodec.from_symbols(zz, alphabet)
        stream = codec.encode(zz, block_size=1 << 14)

        w = BitWriter()
        w.write(_MAGIC, 32)
        w.write(0 if data.dtype == np.float32 else 1, 8)
        w.write(data.ndim, 8)
        for s in data.shape:
            w.write(int(s), 48)
        w.write(int(np.float64(eb).view(np.uint64)), 64)
        w.write(W, 16)
        codec.write_table(w)
        head = w.getvalue()
        coeff_bytes = b"".join(c.tobytes() for c in coeff_list)
        perm_bytes = b"".join(p.tobytes() for p in parts_perm)
        stream_blob = stream.to_bytes()
        out = bytearray(head)
        out += len(coeff_bytes).to_bytes(6, "big")
        out += coeff_bytes
        out += len(perm_bytes).to_bytes(6, "big")
        out += perm_bytes
        out += len(stream_blob).to_bytes(6, "big")
        out += stream_blob
        blob = bytes(out)
        if len(blob) >= data.nbytes:
            raise ISABELAFailure(
                f"compression factor {data.nbytes / len(blob):.2f} < 1 "
                f"at eb={eb:.3e}"
            )
        return blob

    def decompress(self, blob: bytes) -> np.ndarray:
        r = BitReader(blob)
        if r.read(32) != _MAGIC:
            raise ValueError("not an ISABELA container")
        dtype = np.dtype(np.float32 if r.read(8) == 0 else np.float64)
        ndim = r.read(8)
        shape = tuple(r.read(48) for _ in range(ndim))
        eb = float(np.uint64(r.read(64)).view(np.float64))
        W = r.read(16)
        codec = HuffmanCodec.read_table(r)
        pos = (r.bitpos + 7) // 8
        coeff_len = int.from_bytes(blob[pos : pos + 6], "big"); pos += 6
        coeff_bytes = blob[pos : pos + coeff_len]; pos += coeff_len
        perm_len = int.from_bytes(blob[pos : pos + 6], "big"); pos += 6
        perm_bytes = np.frombuffer(blob, np.uint8, perm_len, pos); pos += perm_len
        stream_len = int.from_bytes(blob[pos : pos + 6], "big"); pos += 6
        stream = EncodedStream.from_bytes(blob[pos : pos + stream_len])

        n = int(np.prod(shape))
        n_full = n // W
        rem = n - n_full * W
        perm_bits = int(np.log2(W))
        # Signed arithmetic below (the zigzag inverse): widen the symbols.
        zz = codec.decode(stream).astype(np.int64)
        q = (zz >> 1) ^ -(zz & 1)

        coeffs = np.frombuffer(coeff_bytes, dtype=np.float32)
        out = np.zeros(n, dtype=np.float64)
        if n_full:
            basis, _ = self._design(W)
            K = basis.shape[1]
            cmat = coeffs[: n_full * K].reshape(n_full, K).astype(np.float64)
            fit = cmat @ basis.T
            sorted_vals = fit + q[: n_full * W].reshape(n_full, W) * (2.0 * eb)
            order = unpack_varlen(
                perm_bytes, np.full(n_full * W, perm_bits, dtype=np.int64)
            ).astype(np.int64).reshape(n_full, W)
            windows = np.zeros((n_full, W))
            np.put_along_axis(windows, order, sorted_vals, axis=1)
            out[: n_full * W] = windows.reshape(-1)
        if rem:
            k = min(self.n_coeffs, max(4, rem // 4))
            ctail = coeffs[-(rem if rem <= k else k):].astype(np.float64)
            if rem > k:
                basis, _ = self._design(rem)
                fit = basis @ ctail
            else:
                fit = ctail
            sorted_vals = fit + q[n_full * W :] * (2.0 * eb)
            tail_bits = max(1, int(np.ceil(np.log2(max(rem, 2)))))
            offset_bits = n_full * W * perm_bits
            offset_bits += (-offset_bits) % 8  # sections byte aligned
            order = unpack_varlen(
                perm_bytes,
                np.full(rem, tail_bits, dtype=np.int64),
                bit_offset=offset_bits,
            ).astype(np.int64)
            tail = np.zeros(rem)
            tail[order] = sorted_vals
            out[n_full * W :] = tail
        return out.reshape(shape).astype(dtype)
