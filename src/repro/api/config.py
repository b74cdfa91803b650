"""`SZConfig` — the one reified configuration object of the pipeline.

Every knob the compressor understands is declared here exactly once:
the error-bound request (a validated :class:`~repro.core.bounds.ErrorBound`),
the prediction/quantization parameters, the entropy-coder selection, the
optional lossless post-pass, and the tiled-container geometry.  All
public entry points (:func:`repro.compress`, the tiled writers, the CLI,
the benchmark runner and :class:`repro.api.Codec`) take either an
``SZConfig`` or the keywords of :meth:`SZConfig.from_kwargs`, never
both (:func:`config_from`) — sweeping, serializing or inspecting a
configuration means handling one frozen value object instead of twelve
keywords.

Validation happens at construction time: a bad mode, a non-positive
bound, an out-of-range ``interval_bits`` or an unknown entropy coder
raises immediately instead of deep inside the pipeline (or inside a
worker process of a tiled job).

>>> cfg = SZConfig.from_kwargs(mode="rel", bound=1e-4, layers=2)
>>> cfg.replace(bound=1e-3).error_bound.rel_bound
0.001
>>> SZConfig.from_json(cfg.to_json()) == cfg
True
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.bounds import ErrorBound
from repro.core.predictor import MAX_LAYERS
from repro.encoding.coders import DEFAULT_ENTROPY_CODER, available_coders

__all__ = ["SZConfig", "config_from"]

_MAX_INTERVAL_BITS = 16  # adaptive retry ceiling; mirrors the compressor
DEFAULT_THETA = 0.99  # hitting rate the adaptive retry must reach


def _coerce_error_bound(value: Any) -> ErrorBound:
    """Accept an ErrorBound, a ``(mode, bound)`` pair, or a spec dict."""
    if isinstance(value, ErrorBound):
        return value
    if isinstance(value, dict):
        return ErrorBound.from_dict(value)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return ErrorBound.from_args(value[0], value[1])
    raise ValueError(
        "error_bound must be an ErrorBound, a (mode, bound) pair or a "
        f"spec dict, got {value!r}"
    )


def _coerce_tile_shape(value: Any) -> int | tuple[int, ...] | None:
    """Normalize a tile-shape request; an int stays an int.

    A bare int means cubic tiles of that extent along *every* axis of
    whatever array is eventually encoded (the codebase-wide ``--tile 64``
    convention), so it cannot be expanded to a tuple here — the
    dimensionality is not known until encode time.
    """
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if int(value) != value or value < 1:
            raise ValueError("tile_shape extents must be positive integers")
        return int(value)
    try:
        shape = tuple(int(t) for t in value)
    except TypeError:
        raise ValueError(
            f"tile_shape must be an int, a tuple of ints or None, "
            f"got {value!r}"
        ) from None
    if not shape or any(t < 1 for t in shape):
        raise ValueError("tile_shape extents must be positive")
    return shape


@dataclass(frozen=True)
class SZConfig:
    """Frozen, validated configuration of one SZ-1.4 compression setup.

    Parameters
    ----------
    error_bound
        The accuracy request: an :class:`~repro.core.bounds.ErrorBound`,
        a ``(mode, bound)`` pair such as ``("rel", 1e-4)``, or a spec
        dict (``{"mode": "rel", "bound": 1e-4}``).
    layers
        Prediction layers ``n``, from 1 to
        :data:`~repro.core.predictor.MAX_LAYERS` (4) (paper Section III;
        best value is data-dependent, see Table II).
    interval_bits
        ``m``: the quantizer uses ``2^m - 1`` intervals.
    adaptive, theta
        Retry with more intervals while the hitting rate is below
        ``theta`` (automates the paper's Section IV-B advice).
    block_size
        Huffman chunk size — the parallel-decode granularity.
    entropy_coder
        ``"huffman"`` (the paper's coder) or ``"arithmetic"``.
    lossless_post
        Pipe the finished container through stdlib ``zlib`` (gzip's
        default level); kept only when it shrinks.
    tile_shape
        Default tile extents for the tiled container paths: a per-axis
        tuple, a bare int (cubic tiles along every axis of the array
        being encoded), or ``None`` for a near-isotropic ~64k-value
        tile picked at write time.
    workers
        Process-pool width for tiled compression.
    sample_fraction, sample_seed, sample_block
        Defaults for the :mod:`repro.tuning` estimator: the fraction of
        the data sampled per estimate, the deterministic sampling seed
        (a fixed seed makes estimates reproducible), and the target
        element count of one sample block (``None`` picks a
        near-isotropic ~4k-value block).  None of these affect the
        compressed bytes — they only steer ``Codec.estimate`` /
        ``repro-sz estimate`` / ``repro-sz tune``.
    """

    error_bound: ErrorBound
    layers: int = 1
    interval_bits: int = 8
    adaptive: bool = False
    theta: float = DEFAULT_THETA
    block_size: int = 4096
    entropy_coder: str = DEFAULT_ENTROPY_CODER
    lossless_post: bool = False
    tile_shape: int | tuple[int, ...] | None = field(default=None)
    workers: int = 1
    sample_fraction: float = 0.02
    sample_seed: int = 0
    sample_block: int | None = None

    def __post_init__(self) -> None:
        set_ = object.__setattr__  # frozen dataclass: bypass for coercion
        set_(self, "error_bound", _coerce_error_bound(self.error_bound))
        set_(self, "tile_shape", _coerce_tile_shape(self.tile_shape))
        set_(self, "layers", int(self.layers))
        set_(self, "interval_bits", int(self.interval_bits))
        set_(self, "block_size", int(self.block_size))
        set_(self, "workers", int(self.workers))
        set_(self, "sample_fraction", float(self.sample_fraction))
        set_(self, "sample_seed", int(self.sample_seed))
        set_(
            self,
            "sample_block",
            None if self.sample_block is None else int(self.sample_block),
        )
        set_(self, "theta", float(self.theta))
        set_(self, "adaptive", bool(self.adaptive))
        set_(self, "lossless_post", bool(self.lossless_post))
        if not 1 <= self.layers <= MAX_LAYERS:
            raise ValueError(
                f"layers must be in [1, {MAX_LAYERS}], got {self.layers}"
            )
        if not 1 <= self.interval_bits <= _MAX_INTERVAL_BITS:
            raise ValueError(
                f"interval_bits must be in [1, {_MAX_INTERVAL_BITS}], "
                f"got {self.interval_bits}"
            )
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")
        if self.block_size < 1:
            raise ValueError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        if self.entropy_coder not in available_coders():
            raise ValueError(
                f"unknown entropy coder {self.entropy_coder!r}; "
                f"use one of {available_coders()}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.sample_seed < 0:
            raise ValueError(
                f"sample_seed must be >= 0, got {self.sample_seed}"
            )
        if self.sample_block is not None and self.sample_block < 1:
            raise ValueError(
                f"sample_block must be >= 1 or None, got {self.sample_block}"
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_kwargs(
        cls, mode: str | None = None, bound: float | None = None, **knobs: Any
    ) -> "SZConfig":
        """Build a config from the keyword surface of the entry points.

        ``mode`` (``abs``, ``rel``, ``pw_rel`` or ``psnr``) and its
        ``bound`` are required; ``knobs`` are any of the other fields.
        The combined abs+rel pair has no keyword spelling: pass
        ``SZConfig(ErrorBound.from_args(abs_bound=..., rel_bound=...))``.

        >>> SZConfig.from_kwargs(mode="abs", bound=1e-3, layers=2).layers
        2
        """
        cls._reject_unknown(knobs)
        if mode is None:
            raise ValueError(
                "an error bound needs mode= (one of abs, rel, pw_rel, psnr) "
                "and bound="
            )
        return cls(error_bound=ErrorBound.from_args(mode, bound), **knobs)

    @classmethod
    def _reject_unknown(cls, knobs: dict[str, Any]) -> None:
        """A typo'd (or removed) knob must raise, not silently vanish."""
        fields = {f.name for f in dataclasses.fields(cls)} - {"error_bound"}
        unknown = set(knobs) - fields
        if unknown:
            raise ValueError(
                f"unknown config keys: {sorted(unknown)}; "
                f"valid keys are {sorted(fields | {'mode', 'bound'})}"
            )

    def replace(self, **changes: Any) -> "SZConfig":
        """A copy with ``changes`` applied — the sweep primitive.

        Besides the dataclass fields, the error bound can be swept
        directly: ``replace(bound=1e-3)`` keeps the current mode,
        ``replace(mode="psnr", bound=60.0)`` switches it.
        """
        if "mode" in changes or "bound" in changes:
            if "error_bound" in changes:
                raise ValueError(
                    "pass either error_bound or mode/bound to replace(), "
                    "not both"
                )
            if (
                self.error_bound.mode == "rel"
                and self.error_bound.abs_bound is not None
            ):
                # A single bound value cannot faithfully rebuild the
                # combined abs+rel pair; silently dropping the abs cap
                # would loosen the guarantee mid-sweep.
                raise ValueError(
                    "this config holds a combined abs+rel bound; pass a "
                    "full error_bound= (ErrorBound.from_args(abs_bound=..., "
                    "rel_bound=...)) instead of mode/bound"
                )
            mode = changes.pop("mode", self.error_bound.mode)
            bound = changes.pop("bound", None)
            if bound is None:
                bound = self.error_bound.param
            changes["error_bound"] = ErrorBound.from_args(mode, bound)
        return dataclasses.replace(self, **changes)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; inverse of :meth:`from_dict`.

        The error bound is flattened into the top level (``mode`` +
        ``bound``, plus ``abs_bound`` for the combined abs+rel pair) so
        the result reads like the keyword surface.
        """
        out: dict[str, Any] = dict(self.error_bound.to_dict())
        out.update(
            layers=self.layers,
            interval_bits=self.interval_bits,
            adaptive=self.adaptive,
            theta=self.theta,
            block_size=self.block_size,
            entropy_coder=self.entropy_coder,
            lossless_post=self.lossless_post,
            tile_shape=(
                list(self.tile_shape)
                if isinstance(self.tile_shape, tuple)
                else self.tile_shape
            ),
            workers=self.workers,
            sample_fraction=self.sample_fraction,
            sample_seed=self.sample_seed,
            sample_block=self.sample_block,
        )
        return out

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "SZConfig":
        """Rebuild from :meth:`to_dict` output (full re-validation).

        Unknown keys raise — a typo'd knob must not silently vanish.
        A numcodecs-style ``id`` key is tolerated and checked.
        """
        if not isinstance(spec, dict):
            raise ValueError(f"config spec must be a dict, got {spec!r}")
        spec = dict(spec)
        codec_id = spec.pop("id", None)
        if codec_id is not None and codec_id != "sz14-repro":
            raise ValueError(f"config is for codec {codec_id!r}, not sz14-repro")
        bound_spec = {
            k: spec.pop(k) for k in ("mode", "bound", "abs_bound") if k in spec
        }
        cls._reject_unknown(spec)
        return cls(error_bound=ErrorBound.from_dict(bound_spec), **spec)

    def to_json(self) -> str:
        """Canonical (sorted-key) JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SZConfig":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # -- pipeline plumbing -------------------------------------------------

    @property
    def mode(self) -> str:
        """The error-bound mode (``abs``/``rel``/``pw_rel``/``psnr``)."""
        return self.error_bound.mode

    @property
    def bound(self) -> float:
        """The single error-bound parameter of :attr:`mode`."""
        return self.error_bound.param


def config_from(config: SZConfig | None, kwargs: dict[str, Any]) -> SZConfig:
    """The one ``config=`` *or* keywords rule of every entry point.

    ``config`` is an :class:`SZConfig` (or ``None``); ``kwargs`` are the
    caller's remaining keywords, which :meth:`SZConfig.from_kwargs`
    turns into a config when ``config`` is ``None``.  Any keyword next
    to a config raises — even one equal to its default, which would
    otherwise be silently ignored — so a sweep derives its variants
    with ``config.replace(...)`` instead.
    """
    if config is None:
        return SZConfig.from_kwargs(**kwargs)
    if kwargs:
        raise ValueError(
            f"config= is mutually exclusive with keywords {sorted(kwargs)}; "
            "derive a variant with config.replace(...) instead"
        )
    if not isinstance(config, SZConfig):
        raise ValueError(f"config must be an SZConfig, got {config!r}")
    return config
