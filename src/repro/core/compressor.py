"""SZ-1.4 public compression API (paper Algorithm 1, Fig. 5).

Pipeline: error-bound resolution (``repro.core.bounds``) → multilayer
prediction (Section III) → error-controlled quantization (Section IV-A)
→ canonical Huffman variable-length encoding (Section IV-A) →
container.  Unpredictable values are stored via binary-representation
analysis.

Four error-bound modes are supported (see :mod:`repro.core.bounds`):
``abs`` (``|e_i| <= b``), ``rel`` (``|e_i| <= b * range``, and with the
combined abs+rel pair of :class:`~repro.core.bounds.ErrorBound` the
tighter bound wins),
``pw_rel`` (``|e_i| <= b * |x_i|`` via logarithmic preconditioning) and
``psnr`` (decompressed PSNR ``>= b`` dB, verified post-hoc).

>>> import numpy as np
>>> from repro.core import compress, decompress
>>> data = np.sin(np.linspace(0, 20, 10000)).reshape(100, 100).astype(np.float32)
>>> blob = compress(data, mode="rel", bound=1e-4)
>>> out = decompress(blob)
>>> bool(np.max(np.abs(out - data)) <= 1e-4 * (data.max() - data.min()))
True
>>> pw = decompress(compress(data, mode="pw_rel", bound=1e-3))
>>> nz = data != 0
>>> bool(np.max(np.abs((pw[nz] - data[nz]) / data[nz])) <= 1e-3)
True
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, cast

import numpy as np

from repro.core.bounds import (
    finite_range,
    psnr_fallback_bound,
    psnr_to_abs_bound,
    pw_apply_repairs,
    pw_encode_side,
    pw_log_bound,
    pw_postcondition,
    pw_precondition,
)
from repro.core.lossless_post import is_wrapped, unwrap, wrap
from repro.core.quantizer import interval_radius
from repro.core.stream import (
    FLAG_CONSTANT,
    Header,
    read_container,
    write_container,
)
from repro.core.unpredictable import decode_unpredictable, encode_unpredictable
from repro.core.wavefront import (
    WavefrontPlan,
    WavefrontResult,
    wavefront_compress,
    wavefront_decompress,
)
from repro.encoding.coders import (
    EntropyPayload,
    coder_for_flags,
    get_entropy_coder,
)
from repro.encoding.huffman import symbol_histogram
from repro.obs.tracer import Collector, active_collector, span

if TYPE_CHECKING:
    from repro.api.config import SZConfig

__all__ = [
    "CompressionStats",
    "compress",
    "compress_array",
    "compress_with_stats",
    "container_info",
    "decompress",
]

_MAX_INTERVAL_BITS = 16
#: Read only by the benchmark in ``perfbench/``; no plan is cached.
_PLAN_CACHE_MAX = 32
_PASS_VALUES_MAX = 1 << 22
"""Values one kernel pass may hold: a larger same-shape batch runs in
several passes, so a pass's temporaries stay the size of one large
array's.  A single array above the cap still runs whole."""


@dataclass
class CompressionStats:
    """Diagnostics from one compression run."""

    eb_abs: float
    value_range: float
    layers: int
    interval_bits: int
    hit_rate: float
    n_unpredictable: int
    original_bytes: int
    compressed_bytes: int
    elapsed_seconds: float
    code_histogram: np.ndarray | None = field(repr=False, default=None)
    adaptive_attempts: int = 1
    itemsize: int = 4
    mode: str = "abs"
    mode_param: float = 0.0
    mode_attempts: int = 1
    """Bound-resolution retries: >1 when the psnr noise model missed and
    the verified fallback bound was used, or when pw_rel repaired values."""

    @property
    def n_values(self) -> int:
        return self.original_bytes // self.itemsize

    @property
    def compression_factor(self) -> float:
        return self.original_bytes / max(1, self.compressed_bytes)

    @property
    def bit_rate(self) -> float:
        """Amortized bits per value (paper Eq. 6)."""
        return 8.0 * self.compressed_bytes / max(1, self.n_values)


_BIT_UINTS = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _constant_ok(data: np.ndarray, mode: str) -> bool:
    """May a zero-range field take the single-value constant shortcut?

    ``pw_rel`` promises bit-exact zeros (``+0.0`` vs ``-0.0`` included),
    so it only shortcuts when every element shares one bit pattern —
    a mixed ``[0.0, -0.0]`` field must flow through the sign plane.
    The other modes compare numerically, where ``0.0 == -0.0``.
    """
    if mode != "pw_rel":
        return True
    bits = np.ascontiguousarray(data).view(_BIT_UINTS[np.dtype(data.dtype)])
    return bool((bits == bits.flat[0]).all())


def _emit_container(
    result: WavefrontResult,
    m: int,
    eb: float,
    header_dtype: np.dtype,
    shape: tuple[int, ...],
    value_range: float,
    layers: int,
    block_size: int,
    entropy_coder: str,
    mode: str = "abs",
    mode_param: float = 0.0,
    side_payload: bytes = b"",
    code_hist: np.ndarray | None = None,
) -> bytes:
    """Entropy-code a wavefront result and wrap it in a container.

    ``header_dtype`` is the *user-facing* dtype: for ``pw_rel`` the body
    encodes the float64 log field while the header advertises the
    original dtype (the mode tag tells the decoder the inner domain).
    ``code_hist``, when provided, is the precomputed code histogram
    (``symbol_histogram`` over the full alphabet) — callers that also need it
    for diagnostics pass it in so the pass over the codes runs once.
    """
    with span("unpredictable", bytes=result.unpredictable.nbytes):
        unpred_payload = encode_unpredictable(result.unpredictable, eb)
    coder = get_entropy_coder(entropy_coder)
    with span("entropy", bytes=result.codes.nbytes):
        payload = coder.encode(
            result.codes,
            interval_bits=m,
            block_size=block_size,
            code_hist=code_hist,
        )
    header = Header(
        header_dtype, shape, m, layers, eb, value_range,
        result.unpredictable.size, flags=payload.flags,
        mode=mode, mode_param=mode_param, side_payload=side_payload,
    )
    return write_container(
        header, payload.codec, payload.stream, unpred_payload,
        arith_payload=payload.raw,
    )


def _psnr_of(data: np.ndarray, recon: np.ndarray, value_range: float) -> float:
    """PSNR (dB) of a reconstruction over the finite pairs (Metric 2)."""
    a = data.astype(np.float64)
    b = recon.astype(np.float64)
    mask = np.isfinite(a) & np.isfinite(b)
    if not mask.any():
        return float("inf")
    rmse = float(np.sqrt(np.mean((a[mask] - b[mask]) ** 2)))
    if rmse == 0.0:
        return float("inf")
    return float(20.0 * np.log10(value_range / rmse))


def compress_array(
    data: np.ndarray, config: "SZConfig"
) -> tuple[bytes, CompressionStats]:
    """The compression engine: ``(data, SZConfig) -> (blob, stats)``.

    Every public entry point — :func:`compress`,
    :func:`compress_with_stats`, :class:`repro.api.Codec` — lands here,
    and the tiled writers run the same engine over batches of tiles
    (:func:`compress_members`); a whole array is a batch of one.
    ``config`` is an already-validated :class:`repro.api.SZConfig`.
    ``tile_shape`` and ``workers`` only steer the tiled writers; this
    whole-array path ignores them and runs in one process.

    With a :class:`repro.obs.Collector` active, the whole run records
    under a ``compress`` span and the run diagnostics feed the metrics
    registry; the emitted bytes are identical either way (telemetry only
    reads ``stats``, it never touches the encode path).
    """
    data = np.asarray(data)

    def run() -> tuple[bytes, CompressionStats]:
        (finish,) = compress_members([data], config)
        return finish()

    return observed(data, config, run)


def observed(
    data: np.ndarray,
    config: "SZConfig",
    run: Callable[[], tuple[bytes, CompressionStats]],
) -> tuple[bytes, CompressionStats]:
    """``run()`` under a ``compress`` span, its stats fed to the metrics.

    ``run`` compresses ``data`` (one array, or one finisher of
    :func:`compress_members`).
    """
    collector = active_collector()
    if collector is None:
        return run()
    with collector.span(
        "compress",
        mode=config.error_bound.mode,
        dtype=str(data.dtype),
        shape=tuple(int(s) for s in data.shape),
        bytes=int(data.nbytes),
    ):
        blob, stats = run()
    _record_compress_metrics(collector, stats)
    return blob, stats


def _record_compress_metrics(
    collector: Collector, stats: CompressionStats
) -> None:
    """Fold one run's :class:`CompressionStats` into the active metrics."""
    collector.add("compress/calls")
    collector.observe("compress/factor", stats.compression_factor)
    collector.add("quantize/values", float(stats.n_values))
    collector.add("quantize/outliers", float(stats.n_unpredictable))
    if stats.adaptive_attempts > 1:
        collector.add("adaptive/retries", float(stats.adaptive_attempts - 1))
    if stats.mode == "pw_rel":
        collector.add("pw_rel/repairs", float(stats.mode_attempts - 1))
    elif stats.mode == "psnr":
        collector.add("psnr/retries", float(stats.mode_attempts - 1))


def compress_members(
    arrays: Sequence[np.ndarray], config: "SZConfig"
) -> Iterator[Callable[[], tuple[bytes, CompressionStats]]]:
    """Compress same-shape arrays through shared wavefront kernel passes.

    Yields one *finisher* per array, in order: calling it entropy-codes
    that array and returns ``(blob, stats)``, byte-identical to
    ``compress_array(array, config)``.  Up to :data:`_PASS_VALUES_MAX`
    values run through each kernel pass, so call each finisher before
    asking for the next; a pass's results are then all that is held.

    Only the kernel is shared.  Each array keeps its own value range,
    constant shortcut, ``pw_rel`` precondition, repair and side channel,
    bound (``rel``/``psnr`` differ per array), ``psnr`` verification,
    adaptive interval retries, entropy coding and container; a retry
    reruns only the arrays that need it.
    """
    per_pass = max(1, _PASS_VALUES_MAX // max(1, int(np.size(arrays[0]))))
    for lo in range(0, len(arrays), per_pass):
        members = [_Member(a, config) for a in arrays[lo:lo + per_pass]]
        _quantize_members([mb for mb in members if not mb.constant], config)
        for mb in members:
            yield partial(_finish, mb, config)


class _Member:
    """One array on its way through :func:`compress_members`.

    A ``constant`` array skips the kernel.  ``field`` is what the kernel
    quantizes: the data, or its ``pw_rel`` log field.  ``ebs`` lists the
    bounds to try in turn (``psnr`` falls back to tighter ones) and
    ``mode_attempts`` counts those tried; ``m`` and ``attempts`` follow
    the adaptive interval count under the current bound.  ``seconds``
    sums the array's own work and its share of each kernel pass.
    """

    __slots__ = (
        "data", "value_range", "constant", "field", "flags", "signs", "ebs",
        "mode_attempts", "m", "attempts", "result", "seconds",
    )

    def __init__(self, data: np.ndarray, config: "SZConfig") -> None:
        t0 = time.perf_counter()
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"only float32/float64 supported, got {data.dtype}")
        if data.ndim < 1:
            raise ValueError("scalar input not supported")
        if data.size == 0:
            raise ValueError("empty input not supported")
        self.data = data = np.ascontiguousarray(data)
        self.value_range = value_range = finite_range(data)
        self.field = data
        self.flags: np.ndarray | None = None
        self.signs: np.ndarray | None = None
        self.ebs: list[float] = []
        self.mode_attempts = 1
        self.m = config.interval_bits
        self.attempts = 0
        self.result: WavefrontResult | None = None
        spec = config.error_bound
        self.constant = (
            value_range == 0.0
            and bool(np.isfinite(data).all())
            and _constant_ok(data, spec.mode)
        )
        if self.constant:
            pass  # one value describes it: see _constant_container
        elif spec.mode == "pw_rel":
            assert spec.pw_bound is not None  # from_args invariant for pw_rel
            self.ebs = [pw_log_bound(spec.pw_bound, data.dtype)]
            self.field, self.flags, self.signs = pw_precondition(data)
        elif spec.mode == "psnr":
            assert spec.psnr_target is not None  # from_args invariant
            if value_range == 0.0:
                # Only reachable when non-finite values block the
                # constant shortcut: PSNR normalizes by the value range,
                # so a target on a zero-range field is as meaningless as
                # a relative bound on one.
                raise ValueError(
                    "psnr target cannot be resolved: the field's finite "
                    "value range is 0 (constant data with NaN/Inf); pass "
                    "mode='abs' instead"
                )
            # The noise model's bound first; if the reconstruction
            # misses the target, the fallback R * 10^(-target/20) is
            # guaranteed to reach it (rmse <= max|error| <= eb).  Further
            # halvings are pure paranoia.
            fallback = psnr_fallback_bound(spec.psnr_target, value_range)
            self.ebs = [
                psnr_to_abs_bound(spec.psnr_target, value_range),
                fallback, fallback / 2.0, fallback / 4.0,
            ]
        else:
            self.ebs = [spec.resolve(value_range)]
        self.seconds = time.perf_counter() - t0

    @property
    def eb(self) -> float:
        return self.ebs[self.mode_attempts - 1]

    def retry(self, config: "SZConfig") -> bool:
        """Ready another kernel pass if the result falls short.

        Adaptive interval growth comes first (the paper's Section IV-B
        advice, automated); then a ``psnr`` miss moves to the next bound
        with the configured interval count.
        """
        t0 = time.perf_counter()
        result = self.result
        assert result is not None
        again = False
        if (
            config.adaptive
            and result.hit_rate < config.theta
            and self.m < _MAX_INTERVAL_BITS
        ):
            self.m = min(_MAX_INTERVAL_BITS, self.m + 2)
            again = True
        elif config.error_bound.mode == "psnr":
            target = config.error_bound.psnr_target
            assert target is not None
            psnr = _psnr_of(self.data, result.decompressed, self.value_range)
            if not psnr >= target:
                if self.mode_attempts == len(self.ebs):  # pragma: no cover
                    raise RuntimeError(
                        f"could not reach the PSNR target {target} dB"
                    )
                self.mode_attempts += 1
                self.m = config.interval_bits
                self.attempts = 0
                again = True
        self.seconds += time.perf_counter() - t0
        return again


def _quantize_members(members: list[_Member], config: "SZConfig") -> None:
    """Run the kernel over ``members`` until none needs a retry.

    Each pass takes every pending member with the same interval count,
    one bound per member unless all share one.
    """
    if not members:
        return
    plan = WavefrontPlan(members[0].data.shape, config.layers)
    # The pw_rel repair and the psnr check read the reconstruction; an
    # abs/rel container holds only codes and unpredictable values.
    keep_recon = config.error_bound.mode in ("pw_rel", "psnr")
    pending = members
    while pending:
        for m in sorted({mb.m for mb in pending}):
            group = [mb for mb in pending if mb.m == m]
            fields = [mb.field for mb in group]
            ebs = [mb.eb for mb in group]
            t0 = time.perf_counter()
            # A stack returns one result per member.
            results = cast(list[WavefrontResult], wavefront_compress(
                fields[0][None] if len(fields) == 1 else np.stack(fields),
                ebs[0] if ebs.count(ebs[0]) == len(ebs) else np.array(ebs),
                plan,
                interval_radius(m),
                keep_recon=keep_recon,
            ))
            share = (time.perf_counter() - t0) / len(group)
            for mb, result in zip(group, results):
                mb.result = result
                mb.attempts += 1
                mb.seconds += share
        pending = [mb for mb in pending if mb.retry(config)]


def _finish(mb: _Member, config: "SZConfig") -> tuple[bytes, CompressionStats]:
    """Entropy-code one quantized member into its container."""
    t0 = time.perf_counter()
    data, spec, layers = mb.data, config.error_bound, config.layers
    if mb.constant:
        blob, stats = _constant_container(data, config)
        stats.elapsed_seconds += mb.seconds
        return blob, stats
    result = mb.result
    assert result is not None
    m, eb = mb.m, mb.eb
    code_hist = symbol_histogram(result.codes, 2 * interval_radius(m))
    mode_attempts = mb.mode_attempts
    side = b""
    if spec.mode == "pw_rel":
        assert mb.flags is not None and mb.signs is not None
        # result.decompressed is the exact float64 log field a
        # decompressor materializes; any value the margin analysis
        # failed to cover is re-flagged raw here, making the pointwise
        # guarantee unconditional.
        repairs = pw_apply_repairs(
            data, result.decompressed, mb.flags, mb.signs, spec.param
        )
        side = pw_encode_side(data, mb.flags, mb.signs)
        mode_attempts = 1 + repairs
    moded = spec.mode in ("pw_rel", "psnr")  # abs/rel write untagged
    blob = _emit_container(
        result, m, eb, data.dtype, data.shape, mb.value_range, layers,
        config.block_size, config.entropy_coder,
        mode=spec.mode if moded else "abs",
        mode_param=spec.param if moded else 0.0,
        side_payload=side, code_hist=code_hist,
    )
    if config.lossless_post:
        with span("lossless_post", bytes=len(blob)):
            blob = wrap(blob)
    stats = CompressionStats(
        eb_abs=eb,
        value_range=mb.value_range,
        layers=layers,
        interval_bits=m,
        hit_rate=result.hit_rate,
        n_unpredictable=result.unpredictable.size,
        original_bytes=data.nbytes,
        compressed_bytes=len(blob),
        elapsed_seconds=mb.seconds + time.perf_counter() - t0,
        code_histogram=code_hist,
        adaptive_attempts=mb.attempts,
        mode=spec.mode,
        mode_param=spec.param,
        mode_attempts=mode_attempts,
    )
    stats.itemsize = data.dtype.itemsize
    return blob, stats


def _constant_container(
    data: np.ndarray, config: "SZConfig"
) -> tuple[bytes, CompressionStats]:
    """A zero-range field: a single value describes the array exactly.

    Every mode's guarantee holds trivially.  The recorded eb keeps the
    legacy value (the abs bound if one was given, else 0.0) so abs/rel
    output stays byte-identical across versions; pw_rel and psnr
    requests keep their mode tag so info() reports them.
    """
    t0 = time.perf_counter()
    spec, layers = config.error_bound, config.layers
    eb = (
        float(spec.abs_bound)
        if spec.mode == "abs" and spec.abs_bound is not None
        else 0.0
    )
    header = Header(
        data.dtype, data.shape, config.interval_bits, layers, eb, 0.0, 0,
        flags=FLAG_CONSTANT, mode=spec.mode, mode_param=spec.param,
    )
    blob = write_container(header, None, None, b"", float(data.flat[0]))
    stats = CompressionStats(
        eb_abs=eb, value_range=0.0, layers=layers,
        interval_bits=config.interval_bits, hit_rate=1.0, n_unpredictable=0,
        original_bytes=data.nbytes, compressed_bytes=len(blob),
        elapsed_seconds=time.perf_counter() - t0,
        code_histogram=np.zeros(1, dtype=np.int64),
        mode=spec.mode, mode_param=spec.param,
    )
    stats.itemsize = data.dtype.itemsize
    return blob, stats


def compress_with_stats(
    data: np.ndarray, *, config: "SZConfig | None" = None, **kwargs: Any
) -> tuple[bytes, CompressionStats]:
    """Compress ``data`` and return ``(container bytes, diagnostics)``.

    Keyword shim over :func:`compress_array` /
    :class:`repro.api.SZConfig`: pass ``config=`` directly, or the
    keywords below (which are packed into an ``SZConfig`` for you).

    Parameters
    ----------
    data
        1-, 2- or 3-dimensional (any-d supported) float32/float64 array.
    config
        An :class:`repro.api.SZConfig`; mutually exclusive with every
        other keyword, even one passed at its default value.
    mode, bound
        Error-bound mode (``abs``, ``rel``, ``pw_rel`` or ``psnr``) and
        its parameter: an absolute bound, a range-relative fraction, a
        pointwise-relative fraction in (0, 1), or a target PSNR in dB.
        See :mod:`repro.core.bounds` for the guarantees.  The combined
        absolute + range-relative pair (the tighter bound wins) has no
        keyword spelling: pass ``config=SZConfig(ErrorBound.from_args(
        abs_bound=..., rel_bound=...))``.
    layers
        Prediction layers ``n`` (paper default 1; best layer is
        data-dependent, see Table II).
    interval_bits
        ``m``: the encoder uses ``2^m - 1`` quantization intervals.
    adaptive, theta
        Retry with more intervals while the hitting rate is below
        ``theta`` (automated form of the paper's Section IV-B advice).
    block_size
        Huffman chunk size (parallel-decode granularity).
    entropy_coder
        ``"huffman"`` (the paper's variable-length encoder, default) or
        ``"arithmetic"`` — an out-of-paper extension using the adaptive
        range coder (slower; removes Huffman's integer-bit rounding loss).
    lossless_post
        Run the finished container through stdlib ``zlib`` (SZ's
        optional gzip pipe); kept only when it actually shrinks.
    """
    from repro.api.config import config_from

    return compress_array(data, config_from(config, kwargs))


def compress(
    data: np.ndarray, *, config: "SZConfig | None" = None, **kwargs: Any
) -> bytes:
    """Compress ``data``; see :func:`compress_with_stats` for parameters."""
    blob, _ = compress_with_stats(data, config=config, **kwargs)
    return blob


def _as_byte_view(buf: Any) -> bytes | memoryview:
    """View any buffer-protocol object as flat bytes without copying.

    ``bytes`` passes through untouched; everything else (``bytearray``,
    ``memoryview``, ``mmap``, a NumPy array) becomes a flat ``uint8``
    memoryview of the same memory — slicing a memoryview is zero-copy,
    which is what keeps the whole decode path allocation-free on the
    input side.
    """
    if isinstance(buf, bytes):
        return buf
    view = memoryview(buf)
    if view.ndim != 1 or view.format != "B":
        view = view.cast("B")
    return view


def _fill_out(result: np.ndarray, out: Any) -> np.ndarray:
    """Place ``result`` into the caller's ``out`` buffer; return the view.

    ``out`` may be a writable ndarray (any shape of the right size and
    dtype) or any writable buffer-protocol object of the right byte
    length — the numcodecs ``decode(buf, out=chunk)`` reuse pattern.
    """
    if isinstance(out, np.ndarray):
        dst = out
        if dst.dtype != result.dtype:
            raise ValueError(
                f"out has dtype {dst.dtype}, container decodes to "
                f"{result.dtype}"
            )
    else:
        dst = np.frombuffer(out, dtype=result.dtype)
    if dst.size != result.size:
        raise ValueError(
            f"out holds {dst.size} values, container decodes to "
            f"{result.size}"
        )
    if dst.shape != result.shape:
        reshaped = dst.reshape(result.shape)
        if not np.shares_memory(reshaped, dst):
            # reshape of a non-contiguous buffer silently copies; filling
            # the copy would leave the caller's buffer untouched.
            raise ValueError(
                "out buffer is non-contiguous and cannot be viewed in the "
                "decoded shape; pass a contiguous buffer or one of the "
                "decoded shape"
            )
        dst = reshaped
    dst[...] = result
    return dst


def decompress(blob: Any, out: Any = None) -> np.ndarray:
    """Decompress an SZ-1.4 (repro) container back to the full array.

    Accepts plain containers, ``lossless_post``-wrapped containers, and
    both entropy-coder variants — the container is self-describing.
    ``blob`` may be any object exporting the buffer protocol (``bytes``,
    ``bytearray``, ``memoryview``, ``mmap``); non-``bytes`` buffers are
    read in place, never copied.  With ``out`` the decoded values are
    written into the caller's buffer and the filled view is returned.

    With a :class:`repro.obs.Collector` active the run records under a
    ``decompress`` span; the decoded values are identical either way.
    """
    collector = active_collector()
    if collector is None:
        return _decompress_impl(blob, out)
    with collector.span("decompress", bytes=len(_as_byte_view(blob))):
        result = _decompress_impl(blob, out)
    collector.add("decompress/calls")
    return result


def _decompress_impl(blob: Any, out: Any = None) -> np.ndarray:
    blob = _as_byte_view(blob)
    with span("lossless_unwrap", bytes=len(blob)):
        blob = unwrap(blob)
    header, codec, stream, unpred_payload, constant, arith = read_container(blob)
    if header.is_constant:
        result = np.full(header.shape, constant, dtype=header.dtype)
        return result if out is None else _fill_out(result, out)
    expected = int(np.prod(header.shape, dtype=np.int64))
    # pw_rel bodies encode the float64 log field; every other mode's body
    # lives directly in the advertised dtype.
    inner_dtype = (
        np.dtype(np.float64) if header.mode == "pw_rel" else header.dtype
    )
    try:
        # read_container returns a codec+stream pair (or an opaque
        # payload) for every non-constant container; the header flag
        # bits select the registered coder that parses it.
        coder = coder_for_flags(header.flags)
        payload = EntropyPayload(
            coder.coder_id, header.flags,
            codec=codec, stream=stream, raw=arith,
        )
        nbytes = (
            int(stream.payload.nbytes) if stream is not None
            else len(arith or b"")
        )
        with span("entropy", bytes=nbytes):
            codes = coder.decode(
                payload, expected=expected,
                interval_bits=header.interval_bits,
            )
        if codes.size != expected:
            raise ValueError(
                f"corrupt container: {codes.size} codes for {expected} points"
            )
        with span("unpredictable", bytes=len(unpred_payload)):
            unpred_recon = decode_unpredictable(
                unpred_payload, header.unpred_count, header.eb_abs, inner_dtype
            )
        plan = WavefrontPlan(header.shape, header.layers)
        radius = interval_radius(header.interval_bits)
        result = wavefront_decompress(
            codes, unpred_recon, plan, header.eb_abs, radius, inner_dtype
        )
        if header.mode == "pw_rel":
            result = pw_postcondition(
                result, header.side_payload, header.dtype
            )
        return result if out is None else _fill_out(result, out)
    except (EOFError, IndexError) as exc:
        # A corrupted (but length-preserving) payload must fail with the
        # same clean ValueError contract as a truncated container.
        raise ValueError(f"corrupt SZ-1.4 container: {exc}") from exc


def container_info(blob: Any) -> dict[str, Any]:
    """Inspect a container without decompressing it.

    Returns a dict with shape, dtype, bounds, layer/interval settings,
    unpredictable count and the entropy/post-pass variants in use.
    Accepts any buffer-protocol object, like :func:`decompress`.
    """
    blob = _as_byte_view(blob)
    wrapped = is_wrapped(blob)
    header = read_container(unwrap(blob))[0]
    return {
        "shape": header.shape,
        "dtype": str(np.dtype(header.dtype)),
        "mode": header.mode,
        "mode_param": header.mode_param,
        "eb_abs": header.eb_abs,
        "value_range": header.value_range,
        "layers": header.layers,
        "interval_bits": header.interval_bits,
        "n_unpredictable": header.unpred_count,
        "constant": header.is_constant,
        "entropy_coder": coder_for_flags(header.flags).coder_id,
        "lossless_post": wrapped,
        "compressed_bytes": len(blob),
    }
