"""Error-bound modes: the contract between the user's accuracy request
and the absolute bound the quantizer actually enforces.

The paper's quantizer (Section IV-A) guarantees ``|x - x'| <= eb`` for a
single global *absolute* bound.  Real workloads ask for accuracy in
other currencies; this module converts each of them into that primitive
(the SZ3 "error-bound mode as a composable stage" design):

``abs``
    ``|x_i - x'_i| <= bound``.  The quantizer's native guarantee.
``rel``
    Value-range-relative: ``|x_i - x'_i| <= bound * (max - min)``.
    Resolved once against the finite value range, then enforced as an
    absolute bound.
``pw_rel``
    Pointwise relative: ``|x_i - x'_i| <= bound * |x_i|`` for every
    finite non-zero value.  Implemented by logarithmic preconditioning:
    ``log|x|`` is compressed as a float64 field with the absolute bound
    ``log1p(bound - eps)`` (``eps`` the input dtype's machine epsilon,
    margin for the final cast), so the multiplicative guarantee
    ``x'/x in [1/(1+b), 1+b]`` falls out of the additive one.  Signs
    are stored losslessly in a bit plane; zeros (including ``-0.0``),
    non-finite values and subnormals are carried verbatim through a
    per-element flag plane plus raw IEEE bits.  A compress-time
    verify-and-repair pass re-flags any value the margin did not cover,
    making the guarantee unconditional.
``psnr``
    Quality-targeted: the decompressed field must satisfy
    ``PSNR >= bound`` dB.  The target converts to an absolute bound via
    the uniform-quantization noise model (``rmse ~ eb / sqrt(3)``),
    the result is verified post-hoc against the actual reconstruction,
    and on a miss the bound falls back to ``R * 10^(-bound/20)`` —
    which guarantees the target because ``rmse <= max|error| <= eb``.

:class:`ErrorBound` normalizes every spelling (including the combined
``abs``+``rel`` pair, where the tighter bound wins) into one value
object; :func:`ErrorBound.resolve` raises a clear error — instead of
returning ``eb = 0`` — when only a relative bound is given for a
constant field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.encoding.bitio import pack_varlen, unpack_varlen

__all__ = [
    "MODES",
    "MODE_CODES",
    "CODE_MODES",
    "MODED_MODES",
    "ErrorBound",
    "finite_range",
    "PW_FLAG_NORMAL",
    "PW_FLAG_ZERO",
    "PW_FLAG_RAW",
    "pw_log_bound",
    "pw_precondition",
    "pw_apply_repairs",
    "pw_encode_side",
    "pw_decode_side",
    "pw_postcondition",
    "psnr_to_abs_bound",
    "psnr_fallback_bound",
]

MODES = ("abs", "rel", "pw_rel", "psnr")

MODE_CODES = {"abs": 0, "rel": 1, "pw_rel": 2, "psnr": 3}
"""On-disk mode byte, shared by the v2 SZRP header and the tiled v3
header/index — one table so the two container families can never
disagree about what a code means."""
CODE_MODES = {v: k for k, v in MODE_CODES.items()}
MODED_MODES = ("pw_rel", "psnr")
"""Modes that need a mode-tagged container layout to reconstruct."""

_UINT = {np.dtype(np.float32): np.dtype(np.uint32),
         np.dtype(np.float64): np.dtype(np.uint64)}


@dataclass(frozen=True)
class ErrorBound:
    """One normalized error-bound request.

    ``abs``/``rel`` may also carry both an absolute and a range-relative
    bound, where the tighter effective bound wins (mode ``rel`` with an
    ``abs_bound`` cap); ``pw_rel`` and ``psnr`` carry a single mode
    parameter.

    >>> ErrorBound.from_args("rel", 1e-4).resolve(10.0)
    0.001
    >>> ErrorBound.from_args(abs_bound=1e-4, rel_bound=1e-4).resolve(10.0)
    0.0001
    """

    mode: str
    abs_bound: float | None = None
    rel_bound: float | None = None
    pw_bound: float | None = None
    psnr_target: float | None = None

    @classmethod
    def from_args(
        cls,
        mode: str | None = None,
        bound: float | None = None,
        abs_bound: float | None = None,
        rel_bound: float | None = None,
    ) -> "ErrorBound":
        """Normalize a ``mode``/``bound`` request into an :class:`ErrorBound`.

        With an explicit ``mode``, ``bound`` carries the mode parameter.
        ``mode=None`` takes ``abs_bound`` and/or ``rel_bound`` instead —
        the only spelling of the combined pair, where the tighter
        effective bound wins.
        """
        if mode is None:
            if bound is not None:
                raise ValueError("bound requires an explicit mode")
            if abs_bound is None and rel_bound is None:
                raise ValueError("provide abs_bound and/or rel_bound")
            if abs_bound is not None and abs_bound <= 0:
                raise ValueError("abs_bound must be positive")
            if rel_bound is not None and rel_bound <= 0:
                raise ValueError("rel_bound must be positive")
            pair_mode = "rel" if rel_bound is not None else "abs"
            return cls(pair_mode, abs_bound=abs_bound, rel_bound=rel_bound)
        if mode not in MODES:
            raise ValueError(f"unknown error-bound mode {mode!r}; use one of {MODES}")
        if abs_bound is not None or rel_bound is not None:
            raise ValueError(
                "mode/bound and abs_bound/rel_bound are mutually exclusive"
            )
        if bound is None:
            raise ValueError(f"mode {mode!r} requires bound")
        bound = float(bound)
        if mode == "abs":
            if bound <= 0:
                raise ValueError("abs bound must be positive")
            return cls("abs", abs_bound=bound)
        if mode == "rel":
            if bound <= 0:
                raise ValueError("rel bound must be positive")
            return cls("rel", rel_bound=bound)
        if mode == "pw_rel":
            if not 0.0 < bound < 1.0:
                raise ValueError("pw_rel bound must be in (0, 1)")
            return cls("pw_rel", pw_bound=bound)
        if not math.isfinite(bound) or bound <= 0:
            raise ValueError("psnr target must be a positive finite dB value")
        return cls("psnr", psnr_target=bound)

    @property
    def param(self) -> float:
        """The single mode parameter (for container headers / stats)."""
        # from_args guarantees the field matching `mode` is always set.
        if self.mode == "pw_rel":
            assert self.pw_bound is not None
            return float(self.pw_bound)
        if self.mode == "psnr":
            assert self.psnr_target is not None
            return float(self.psnr_target)
        if self.mode == "rel":
            assert self.rel_bound is not None
            return float(self.rel_bound)
        assert self.abs_bound is not None
        return float(self.abs_bound)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe spelling of this bound; inverse of :meth:`from_dict`.

        The combined pair (``rel`` with an ``abs`` cap, where the
        tighter effective bound wins) has no single-parameter spelling,
        so it serializes with an extra ``abs_bound`` key.
        """
        if self.mode == "rel" and self.abs_bound is not None:
            assert self.rel_bound is not None  # from_args invariant
            return {
                "mode": "rel",
                "bound": float(self.rel_bound),
                "abs_bound": float(self.abs_bound),
            }
        return {"mode": self.mode, "bound": self.param}

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "ErrorBound":
        """Rebuild an :class:`ErrorBound` from :meth:`to_dict` output.

        Every value is re-validated through :meth:`from_args`, so a
        hand-written or tampered dict fails with the same errors as the
        keyword surface.  A key :meth:`to_dict` never writes raises
        rather than being dropped: ``abs_bound`` is valid only as the
        cap of a ``rel`` bound.
        """
        if not isinstance(spec, dict):
            raise ValueError(f"error-bound spec must be a dict, got {spec!r}")
        unknown = set(spec) - {"mode", "bound", "abs_bound"}
        if unknown:
            raise ValueError(f"unknown error-bound keys: {sorted(unknown)}")
        bound = cls.from_args(spec.get("mode"), spec.get("bound"))
        if spec.get("abs_bound") is None:
            return bound
        if bound.mode != "rel":
            raise ValueError(
                "abs_bound is valid only with mode 'rel' (the combined "
                f"abs+rel pair), not with mode {bound.mode!r}"
            )
        return cls.from_args(
            abs_bound=spec["abs_bound"], rel_bound=bound.rel_bound
        )

    def resolve(self, value_range: float) -> float:
        """Effective absolute bound for the ``abs``/``rel`` modes.

        Raises a clear :class:`ValueError` (rather than returning
        ``eb = 0``) when only a relative bound is given and the field's
        finite value range is zero — a relative bound is meaningless on
        a constant field.
        """
        if self.mode not in ("abs", "rel"):
            raise ValueError(f"mode {self.mode!r} has no direct absolute bound")
        candidates: list[float] = []
        if self.abs_bound is not None:
            candidates.append(float(self.abs_bound))
        if self.rel_bound is not None:
            candidates.append(float(self.rel_bound) * float(value_range))
        eb = min(candidates)
        if eb == 0.0:
            raise ValueError(
                "relative error bound resolves to zero: the field's finite "
                "value range is 0 (constant data); pass mode='abs' instead"
            )
        return eb


def finite_range(data: np.ndarray) -> float:
    """Finite value range ``max - min`` (0.0 when nothing is finite).

    The subtraction runs in the array dtype, so float32 ranges round
    exactly as every existing container records them.  Only a float32
    field whose finite range exceeds FLT_MAX overflows there; that one
    difference is redone in float64.
    """
    data = np.asarray(data)
    # Fast path: min/max without the isfinite boolean-index copy.  Both
    # reductions propagate NaN and Inf, so finite extremes prove the
    # masked computation would pick the same two values.
    hi, lo = data.max(), data.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        finite = data[np.isfinite(data)]
        if finite.size == 0:
            return 0.0
        hi, lo = finite.max(), finite.min()
    with np.errstate(over="ignore"):
        spread = float(hi - lo)
    return spread if math.isfinite(spread) else float(hi) - float(lo)


# ---------------------------------------------------------------------------
# pw_rel: logarithmic preconditioning
# ---------------------------------------------------------------------------

PW_FLAG_NORMAL = 0  # finite, non-zero, normal magnitude: log-compressed
PW_FLAG_ZERO = 1  # exact zero: reconstructed as +/-0.0 from the sign plane
PW_FLAG_RAW = 2  # NaN/Inf/subnormal/repaired: full IEEE bits stored


def pw_log_bound(pw_bound: float, dtype: np.dtype) -> float:
    """Absolute bound in the log domain for a pointwise-relative bound.

    ``|log|x| - log|x'|| <= log1p(b)`` implies ``|x - x'| <= b |x|``;
    the margin ``eps`` (one machine epsilon of the *output* dtype)
    absorbs the final cast back to ``dtype`` and the float64 ``log`` /
    ``exp`` round-off.  The compress-time verify-and-repair pass covers
    anything the margin analysis misses.
    """
    eps = float(np.finfo(np.dtype(dtype)).eps)
    effective = float(pw_bound) - eps
    if effective <= 0.0:
        raise ValueError(
            f"pw_rel bound {pw_bound:g} is at or below the machine epsilon "
            f"({eps:g}) of {np.dtype(dtype)}; it cannot be guaranteed"
        )
    return float(np.log1p(effective))


def pw_precondition(
    data: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``data`` into ``(log64 field, flags, signbits)``.

    The log field is always float64 (float32 ``log`` round-off would eat
    tight bounds); special positions carry the mean finite log so they
    do not distort prediction.  Subnormals go to the raw plane: their
    log is finite but the relative cast error of the reconstruction is
    not bounded by ``eps``.
    """
    x64 = data.astype(np.float64)
    finite = np.isfinite(x64)
    abs_x = np.abs(x64)
    tiny = float(np.finfo(data.dtype).tiny)
    is_zero = finite & (x64 == 0.0)
    is_raw = (~finite) | (finite & (x64 != 0.0) & (abs_x < tiny))
    normal = ~(is_zero | is_raw)
    flags = np.full(data.shape, PW_FLAG_NORMAL, dtype=np.uint8)
    flags[is_zero] = PW_FLAG_ZERO
    flags[is_raw] = PW_FLAG_RAW
    logs = np.zeros(data.shape, dtype=np.float64)
    if normal.any():
        logs[normal] = np.log(abs_x[normal])
        fill = float(logs[normal].mean())
    else:
        fill = 0.0
    logs[~normal] = fill
    return logs, flags, np.signbit(x64)


def pw_apply_repairs(
    data: np.ndarray,
    recon_logs: np.ndarray,
    flags: np.ndarray,
    signs: np.ndarray,
    pw_bound: float,
) -> int:
    """Re-flag as raw every value the log round-trip failed to bound.

    ``recon_logs`` is the exact float64 log field a decompressor will
    materialize; re-running the reconstruction here makes the pointwise
    guarantee unconditional — a violated value simply ships its IEEE
    bits.  Returns the number of repairs (0 in the overwhelming case).
    """
    normal = flags == PW_FLAG_NORMAL
    if not normal.any():
        return 0
    x64 = data.astype(np.float64)
    recon = _pw_reconstruct(recon_logs, signs, data.dtype)
    viol = normal & ~(
        np.abs(recon.astype(np.float64) - x64) <= float(pw_bound) * np.abs(x64)
    )
    n = int(viol.sum(dtype=np.int64))
    if n:
        flags[viol] = PW_FLAG_RAW
    return n


def _pw_reconstruct(
    recon_logs: np.ndarray, signs: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """Signed magnitudes from decoded logs, rounded through ``dtype``."""
    with np.errstate(over="ignore"):
        mags = np.exp(recon_logs.astype(np.float64))
    return np.where(signs, -mags, mags).astype(dtype)


def pw_encode_side(
    data: np.ndarray, flags: np.ndarray, signs: np.ndarray
) -> bytes:
    """Pack the pw_rel side channel: flag plane, sign plane, raw bits.

    Three byte-aligned bit-packed sections — 2 bits/element of flags,
    1 bit/element of signs, and the full IEEE words of the raw-flagged
    elements.  Cost: 3 bits per element plus ``itemsize`` bytes per
    special value.
    """
    flags_flat = flags.ravel().astype(np.uint64)
    signs_flat = signs.ravel().astype(np.uint64)
    n = flags_flat.size
    sections: list[np.ndarray] = []
    buf, _ = pack_varlen(flags_flat, np.full(n, 2, dtype=np.int64))
    sections.append(buf)
    buf, _ = pack_varlen(signs_flat, np.full(n, 1, dtype=np.int64))
    sections.append(buf)
    raw_mask = flags.ravel() == PW_FLAG_RAW
    n_raw = int(raw_mask.sum(dtype=np.int64))
    if n_raw:
        uint = _UINT[np.dtype(data.dtype)]
        bits = np.ascontiguousarray(data).ravel().view(uint)[raw_mask]
        buf, _ = pack_varlen(
            bits.astype(np.uint64),
            np.full(n_raw, uint.itemsize * 8, dtype=np.int64),
        )
        sections.append(buf)
    return b"".join(s.tobytes() for s in sections)


def pw_decode_side(
    payload: bytes | memoryview, n: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`pw_encode_side`: ``(flags, signs, raw values)``."""
    dtype = np.dtype(dtype)
    buf = np.frombuffer(payload, dtype=np.uint8)
    flags = unpack_varlen(buf, np.full(n, 2, dtype=np.int64)).astype(np.uint8)
    if np.any(flags > PW_FLAG_RAW):
        raise ValueError("corrupt pw_rel side payload: bad flag")
    offset = 2 * n + (-2 * n) % 8
    signs = unpack_varlen(
        buf, np.full(n, 1, dtype=np.int64), bit_offset=offset
    ).astype(bool)
    offset += n + (-n) % 8
    n_raw = int((flags == PW_FLAG_RAW).sum(dtype=np.int64))
    uint = _UINT[dtype]
    if n_raw:
        raw_bits = unpack_varlen(
            buf,
            np.full(n_raw, uint.itemsize * 8, dtype=np.int64),
            bit_offset=offset,
        )
        raws = raw_bits.astype(uint.type).view(dtype)
    else:
        raws = np.zeros(0, dtype=dtype)
    return flags, signs, raws


def pw_postcondition(
    recon_logs: np.ndarray, payload: bytes | memoryview, dtype: np.dtype
) -> np.ndarray:
    """Rebuild the original-domain array from decoded logs + side channel."""
    dtype = np.dtype(dtype)
    flags, signs, raws = pw_decode_side(payload, recon_logs.size, dtype)
    flags = flags.reshape(recon_logs.shape)
    signs = signs.reshape(recon_logs.shape)
    out = _pw_reconstruct(recon_logs, signs, dtype)
    zero = flags == PW_FLAG_ZERO
    if zero.any():
        out[zero] = np.where(signs[zero], dtype.type(-0.0), dtype.type(0.0))
    raw = flags == PW_FLAG_RAW
    if raw.any():
        out[raw] = raws
    return out


# ---------------------------------------------------------------------------
# psnr: quality-targeted absolute bound
# ---------------------------------------------------------------------------


def psnr_to_abs_bound(target_db: float, value_range: float) -> float:
    """Absolute bound predicted to hit ``target_db`` (noise model).

    Quantization errors are roughly uniform on ``[-eb, eb]``, so
    ``rmse ~ eb / sqrt(3)``; inverting ``PSNR = 20 log10(R / rmse)``
    gives ``eb = sqrt(3) R 10^(-PSNR/20)``.  Optimistic by design — the
    caller verifies against the actual reconstruction.
    """
    return math.sqrt(3.0) * float(value_range) * 10.0 ** (-float(target_db) / 20.0)


def psnr_fallback_bound(target_db: float, value_range: float) -> float:
    """Absolute bound that *guarantees* ``PSNR >= target_db``.

    ``rmse <= max|error| <= eb``, so ``eb = R 10^(-target/20)`` meets
    the target unconditionally; the tiny shave covers float round-off
    in this very conversion.
    """
    return (
        float(value_range) * 10.0 ** (-float(target_db) / 20.0) * (1.0 - 1e-12)
    )
