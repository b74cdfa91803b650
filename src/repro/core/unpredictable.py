"""Binary-representation analysis for unpredictable values (SZ-1.1, [9]).

Values that miss every quantization interval are stored individually, but
not at full width: given the absolute error bound ``eb``, only enough
leading mantissa bits are kept that the truncation error stays below
``eb``.  The required bit count is a pure function of the value's IEEE
exponent and ``eb``, so it need not be stored — the decoder recomputes it.

Per-value layout (three bit-packed sections, vectorized both ways):

=======  ========================================================
flag(2)  0: ``|v| <= eb`` — reconstruct 0.0, nothing else stored
         1: normal — sign(1) + raw exponent (8/11), then ``t``
            leading mantissa bits where
            ``t = clip(e_unbiased - floor(log2 eb) + 1, 0, MANT)``
         2: raw — NaN/Inf (or decoder-unsupported), full IEEE bits
=======  ========================================================

Truncating the mantissa to ``t`` bits leaves an error strictly below
``2^(e - t) <= 2^(floor(log2 eb) - 1) < eb`` (the ``+1`` also covers the
subnormal case where the effective exponent is ``1 - bias``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.encoding.bitio import pack_varlen, unpack_varlen

__all__ = ["encode_unpredictable", "decode_unpredictable", "truncate_to_bound"]

_FLAG_ZERO = 0
_FLAG_NORMAL = 1
_FLAG_RAW = 2


@dataclass(frozen=True)
class _Layout:
    uint: np.dtype
    total_bits: int
    exp_bits: int
    mant_bits: int
    bias: int


_LAYOUTS = {
    np.dtype(np.float32): _Layout(np.dtype(np.uint32), 32, 8, 23, 127),
    np.dtype(np.float64): _Layout(np.dtype(np.uint64), 64, 11, 52, 1023),
}


def _layout(dtype: np.dtype) -> _Layout:
    try:
        return _LAYOUTS[np.dtype(dtype)]
    except KeyError:
        raise ValueError(f"unsupported float dtype: {dtype}") from None


def _split_fields(bits: np.ndarray, lo: _Layout):
    sign = (bits >> np.uint64(lo.total_bits - 1)).astype(np.uint64) & np.uint64(1)
    exp = (bits.astype(np.uint64) >> np.uint64(lo.mant_bits)) & np.uint64(
        (1 << lo.exp_bits) - 1
    )
    mant = bits.astype(np.uint64) & np.uint64((1 << lo.mant_bits) - 1)
    return sign, exp, mant


def _required_bits(exp_raw: np.ndarray, eb: float, lo: _Layout) -> np.ndarray:
    """Mantissa bits to keep so truncation error < eb (vectorized)."""
    eb_floor = math.floor(math.log2(eb))
    e_unb = np.where(
        exp_raw == 0, 1 - lo.bias, exp_raw.astype(np.int64) - lo.bias
    )
    return np.clip(e_unb - eb_floor + 1, 0, lo.mant_bits).astype(np.int64)


def _classify(values: np.ndarray, eb: float, lo: _Layout):
    bits = values.view(lo.uint).astype(np.uint64)
    sign, exp, mant = _split_fields(bits, lo)
    is_raw = ~np.isfinite(values)
    is_zero = (~is_raw) & _is_zero(values, eb)
    is_normal = ~(is_raw | is_zero)
    return bits, sign, exp, mant, is_zero, is_normal, is_raw


def _is_zero(values: np.ndarray, eb: float | np.ndarray) -> np.ndarray:
    """``|v| <= eb``, compared in float64.

    The bound is never rounded to the value dtype: float32 rounds some
    bounds up (1e-3, 0.3), and a value between the bound and its
    rounding would then decode as 0.0 with an error above the bound.
    This holds whether ``eb`` is one bound or one per value and
    whatever its own type.
    """
    return np.abs(values).astype(np.float64, copy=False) <= np.asarray(
        eb, dtype=np.float64
    )


def _eb_floor(eb: float | np.ndarray) -> int | np.ndarray:
    """``floor(log2(eb))`` for one bound or per element of a bound array.

    Always through ``math.log2``, as the decoder computes it, so that no
    bit count depends on NumPy's own rounding of the logarithm.
    """
    if np.ndim(eb) == 0:
        if eb <= 0:
            raise ValueError("error bound must be positive")
        return math.floor(math.log2(eb))
    bounds, inverse = np.unique(eb, return_inverse=True)
    if bounds.size and not bounds[0] > 0:
        raise ValueError("error bound must be positive")
    floors = [math.floor(math.log2(b)) for b in bounds.tolist()]
    return np.array(floors, dtype=np.int64)[inverse]


def truncate_to_bound(values: np.ndarray, eb: float | np.ndarray) -> np.ndarray:
    """Reconstructions the decoder will produce, without building a payload.

    The wavefront compressor calls this inline so subsequent predictions
    see exactly the values a decompressor will see.  ``eb`` is one bound,
    or one per value (the members of a kernel batch keep their own).
    The dropped mantissa bits are cleared in the native unsigned word.
    """
    values = np.asarray(values)
    lo = _layout(values.dtype)
    floor = _eb_floor(eb)
    bits = values.view(lo.uint)
    exp = (bits >> lo.mant_bits).astype(np.int64) & ((1 << lo.exp_bits) - 1)
    # Mantissa bits to drop: mant_bits - t, with t from _required_bits
    # (a subnormal's exponent field 0 counts as 1).
    drop = np.clip(
        floor + lo.mant_bits - 1 - (np.maximum(exp, 1) - lo.bias),
        0, lo.mant_bits,
    ).astype(lo.uint)
    out = ((bits >> drop) << drop).view(values.dtype)
    out[_is_zero(values, eb)] = 0
    raw = ~np.isfinite(values)
    out[raw] = values[raw]
    return out


def encode_unpredictable(values: np.ndarray, eb: float) -> bytes:
    """Encode unpredictable values into their payload.

    :func:`decode_unpredictable` returns :func:`truncate_to_bound` of the
    input, bit for bit.
    """
    values = np.ascontiguousarray(values)
    lo = _layout(values.dtype)
    if eb <= 0:
        raise ValueError("error bound must be positive")
    n = values.size
    if n == 0:
        return b""
    bits, sign, exp, mant, is_zero, is_normal, is_raw = _classify(values, eb, lo)
    flags = np.full(n, _FLAG_ZERO, dtype=np.uint64)
    flags[is_normal] = _FLAG_NORMAL
    flags[is_raw] = _FLAG_RAW

    sections: list[np.ndarray] = []
    # All three sections pack values that fit their widths by
    # construction (flags < 4, sign|exp fields, right-shifted mantissa
    # prefixes), so the masking pass is skipped.
    flag_buf, _ = pack_varlen(flags, np.full(n, 2, dtype=np.int64), masked=True)
    sections.append(flag_buf)

    if is_normal.any():
        t = _required_bits(exp[is_normal], eb, lo)
        head = (sign[is_normal] << np.uint64(lo.exp_bits)) | exp[is_normal]
        head_buf, _ = pack_varlen(
            head,
            np.full(
                int(is_normal.sum(dtype=np.int64)),
                1 + lo.exp_bits,
                dtype=np.int64,
            ),
            masked=True,
        )
        sections.append(head_buf)
        mant_prefix = mant[is_normal] >> (lo.mant_bits - t).astype(np.uint64)
        mant_buf, _ = pack_varlen(mant_prefix, t, masked=True)
        sections.append(mant_buf)
    if is_raw.any():
        raw_buf, _ = pack_varlen(
            bits[is_raw],
            np.full(
                int(is_raw.sum(dtype=np.int64)), lo.total_bits, dtype=np.int64
            ),
        )
        sections.append(raw_buf)

    return b"".join(s.tobytes() for s in sections)


def decode_unpredictable(
    payload: bytes | memoryview, count: int, eb: float, dtype: np.dtype
) -> np.ndarray:
    """Decode ``count`` values stored by :func:`encode_unpredictable`."""
    dtype = np.dtype(dtype)
    lo = _layout(dtype)
    if count == 0:
        return np.zeros(0, dtype=dtype)
    buf = np.frombuffer(payload, dtype=np.uint8)
    flags = unpack_varlen(buf, np.full(count, 2, dtype=np.int64))
    offset = count * 2
    offset += (-offset) % 8  # sections are byte aligned

    out_bits = np.zeros(count, dtype=np.uint64)
    is_normal = flags == _FLAG_NORMAL
    is_raw = flags == _FLAG_RAW
    n_normal = int(is_normal.sum(dtype=np.int64))
    if n_normal:
        head = unpack_varlen(
            buf,
            np.full(n_normal, 1 + lo.exp_bits, dtype=np.int64),
            bit_offset=offset,
        )
        offset += n_normal * (1 + lo.exp_bits)
        offset += (-offset) % 8  # each pack_varlen section is byte aligned
        sign = head >> np.uint64(lo.exp_bits)
        exp = head & np.uint64((1 << lo.exp_bits) - 1)
        t = _required_bits(exp, eb, lo)
        mant_prefix = unpack_varlen(buf, t, bit_offset=offset)
        offset += int(t.sum(dtype=np.int64))
        offset += (-offset) % 8
        out_bits[is_normal] = (
            (sign << np.uint64(lo.total_bits - 1))
            | (exp << np.uint64(lo.mant_bits))
            | (mant_prefix << (lo.mant_bits - t).astype(np.uint64))
        )
    n_raw = int(is_raw.sum(dtype=np.int64))
    if n_raw:
        raws = unpack_varlen(
            buf,
            np.full(n_raw, lo.total_bits, dtype=np.int64),
            bit_offset=offset,
        )
        out_bits[is_raw] = raws
    return out_bits.astype(lo.uint.type).view(dtype)
