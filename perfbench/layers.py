"""Per-layer self time, measured from outside the program.

The traced run wraps each layer's public function under the name its
caller looks it up by -- ``repro.core.compressor.wavefront_compress``,
``repro.chunked.streams.decompress`` and so on -- so the program's own
files stay untouched.  Every wrapped call is a span; a span's *self*
time is its duration minus the durations of the wrapped calls made
inside it, so no second of an operation is counted twice.  Spans with
no layer (the operation itself and the glue between layers) make up the
unattributed remainder.

The tracer also counts each layer's calls, so the run can check that
every layer an operation must pass through was reached.  A target that
a later version of the program renames or moves is reported by
:meth:`LayerTracer.install`, and the run counts it as an error.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

#: Layer names, in report order.
LAYERS = (
    "wavefront.quantize",
    "wavefront.dequantize",
    "wavefront.plan",
    "entropy.encode",
    "entropy.decode",
    "unpredictable.encode",
    "unpredictable.decode",
    "bounds.pw",
    "container.write",
    "container.read",
    "chunked.open",
    "chunked.fetch",
    "chunked.write",
)

_COMPRESSOR = "repro.core.compressor"
_STREAMS = "repro.chunked.streams"
_CODERS = "repro.encoding.coders"

#: ``(module, attribute path, layer)`` of every call site the run wraps.
#: Layer ``None`` marks glue, wrapped only so that its own time is not
#: charged to the layer that calls it.
TARGETS: tuple[tuple[str, str, str | None], ...] = (
    (_COMPRESSOR, "wavefront_compress", "wavefront.quantize"),
    (_COMPRESSOR, "wavefront_decompress", "wavefront.dequantize"),
    (_COMPRESSOR, "WavefrontPlan", "wavefront.plan"),
    (_CODERS, "HuffmanEntropyCoder.encode", "entropy.encode"),
    (_CODERS, "HuffmanEntropyCoder.decode", "entropy.decode"),
    (_COMPRESSOR, "encode_unpredictable", "unpredictable.encode"),
    (_COMPRESSOR, "decode_unpredictable", "unpredictable.decode"),
    (_COMPRESSOR, "pw_precondition", "bounds.pw"),
    (_COMPRESSOR, "pw_apply_repairs", "bounds.pw"),
    (_COMPRESSOR, "pw_encode_side", "bounds.pw"),
    (_COMPRESSOR, "pw_postcondition", "bounds.pw"),
    (_COMPRESSOR, "write_container", "container.write"),
    (_COMPRESSOR, "read_container", "container.read"),
    (_STREAMS, "TiledReader.__init__", "chunked.open"),
    (_STREAMS, "TiledReader.read_tile_bytes", "chunked.fetch"),
    (_STREAMS, "TiledWriter.write_tiles", "chunked.write"),
    # The per-tile codec entry points the chunked layer calls.
    (_STREAMS, "compress_array", None),
    (_STREAMS, "decompress", None),
)


def _plan_arg(args: tuple, kwargs: dict) -> Any:
    return kwargs["plan"] if "plan" in kwargs else args[2]


def _plan_steps(plan: Any) -> int:
    """Sequential kernel steps: hyperplanes for N-d, points for 1-D."""
    shape = tuple(plan.shape)
    return len(plan.groups) if len(shape) >= 2 else int(shape[0])


def _resolve(module: str, path: str) -> tuple[Any, str, Any]:
    """``(owner, name, function)`` of one target; raises if it is gone."""
    owner: Any = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


class LayerTracer:
    """Accumulates self time and calls per layer over nested calls."""

    def __init__(self) -> None:
        self.self_s: dict[str | None, float] = defaultdict(float)
        self.calls: dict[str | None, int] = defaultdict(int)
        self.steps = 0
        self.values_decoded = 0
        self.plans: list[dict[str, Any]] = []
        self._stack: list[list[float]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def call(self, layer: str | None, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` as one span charged to ``layer``."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[layer] += duration - frame[0]
            if self._stack:
                self._stack[-1][0] += duration

    def _wrap(self, layer: str | None, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = tracer.call(layer, fn, *args, **kwargs)
            tracer._count(layer, args, kwargs, result)
            return result

        # updated=() keeps a wrapped class's attributes off the function.
        return functools.update_wrapper(wrapper, fn, updated=())

    def _count(self, layer: str | None, args: tuple, kwargs: dict,
               result: Any) -> None:
        self.calls[layer] += 1
        if layer == "wavefront.quantize":
            self.steps += _plan_steps(_plan_arg(args, kwargs))
        elif layer == "wavefront.dequantize":
            self.steps += _plan_steps(_plan_arg(args, kwargs))
            self.values_decoded += int(result.size)
        elif layer == "wavefront.plan":
            self.plans.append({
                "shape": list(result.shape),
                "gather_table_bytes": int(result.table_bytes),
                "per_plane_fallback": result.gather_tables is None,
            })

    # -- installation ------------------------------------------------------

    def install(self) -> list[str]:
        """Swap every target for its wrapper; return the targets not found."""
        missing = []
        for module, path, layer in TARGETS:
            try:
                owner, name, original = _resolve(module, path)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module}.{path}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))
        return missing

    def uninstall(self) -> None:
        """Restore every original function."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Forget everything measured so far."""
        self.self_s.clear()
        self.calls.clear()
        self.steps = self.values_decoded = 0
        self.plans.clear()

    def layer_seconds(self) -> dict[str, float]:
        return {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
