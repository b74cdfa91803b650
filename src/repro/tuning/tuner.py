"""Auto-tuner: search ``mode``/``bound`` to hit a target ratio or quality.

Loosening the error bound raises the compression ratio and lowers the
PSNR, so hitting a target is a one-dimensional root-finding problem,
and every probe is a cheap sampled :func:`repro.tuning.estimate`
instead of a full compression.  The search brackets the target
geometrically in log-bound space, then bisects; all trials share one
deterministic sample (same fraction/seed), which keeps the whole run
reproducible.  The sampled ratio is only nearly monotone in the bound:
a looser bound can price the sampled codes slightly higher, and on a
smooth 3-D field the estimate fell by up to 0.65% below its value at a
tighter bound (``tests/test_tuning.py::MONOTONE_SLACK``).  Such a dip
can misplace a bisection step by that much, well inside the default
``rtol`` of 5%.

Every trial is logged as a :class:`Trial` carrying the candidate
``SZConfig`` (``config.to_json()`` ready) and its prediction; the final
:class:`TuneResult` optionally carries the *actual* compressed ratio
when ``verify=True`` spends one real compression at the chosen config.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs.tracer import metric_add, metric_observe, span
from repro.tuning.estimator import Estimate, estimate

__all__ = ["Trial", "TuneResult", "autotune", "config_from_container"]

#: Hard bound-search limits per mode: ``rel``/``pw_rel`` are fractions
#: (pw_rel must stay inside (0, 1)); ``abs`` and ``psnr`` widen on the
#: data's scale at runtime.
_BOUND_LIMITS = {
    "rel": (1e-12, 0.5),
    "pw_rel": (1e-9, 0.5),
    "abs": (1e-300, 1e300),
    "psnr": (1e-3, 1e6),
}
_EXPAND_FACTOR = 8.0  # geometric bracket growth per probe


@dataclass(frozen=True)
class Trial:
    """One tuner probe: a candidate config and what it predicted."""

    config: Any
    estimate: Estimate
    target_kind: str
    target_value: float

    @property
    def predicted(self) -> float:
        """The predicted value of the targeted metric."""
        if self.target_kind == "ratio":
            return self.estimate.ratio
        assert self.estimate.psnr is not None
        return self.estimate.psnr

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "config_json": self.config.to_json(),
            "target_kind": self.target_kind,
            "target_value": float(self.target_value),
            "predicted": float(self.predicted),
            "predicted_ratio": float(self.estimate.ratio),
            "predicted_psnr": (
                None
                if self.estimate.psnr is None
                else float(self.estimate.psnr)
            ),
            "bound": float(self.config.bound),
        }


@dataclass
class TuneResult:
    """Outcome of one :func:`autotune` run."""

    config: Any
    estimate: Estimate
    target_kind: str
    target_value: float
    trials: list[Trial] = field(default_factory=list)
    converged: bool = False
    rtol: float = 0.05
    seconds: float = 0.0
    actual_ratio: float | None = None
    actual_psnr: float | None = None

    @property
    def predicted(self) -> float:
        if self.target_kind == "ratio":
            return self.estimate.ratio
        assert self.estimate.psnr is not None
        return self.estimate.psnr

    @property
    def relative_miss(self) -> float:
        """``|predicted / target - 1|`` of the chosen config."""
        return abs(self.predicted / self.target_value - 1.0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "config_json": self.config.to_json(),
            "target_kind": self.target_kind,
            "target_value": float(self.target_value),
            "predicted": float(self.predicted),
            "converged": bool(self.converged),
            "rtol": float(self.rtol),
            "n_trials": len(self.trials),
            "seconds": float(self.seconds),
            "estimate": self.estimate.to_dict(),
            "actual_ratio": (
                None if self.actual_ratio is None else float(self.actual_ratio)
            ),
            "actual_psnr": (
                None if self.actual_psnr is None else float(self.actual_psnr)
            ),
            "trials": [t.to_dict() for t in self.trials],
        }


def config_from_container(source: Any) -> Any:
    """Seed config recovered from a tiled container's header.

    The mode/bound a container was written with is the natural starting
    point for tuning it toward a different target; v3 headers carry the
    mode byte and parameter directly, legacy v2 headers name the mode
    through which bound fields are set.
    """
    from repro.api.config import SZConfig
    from repro.chunked.streams import TiledReader

    with TiledReader(source) as reader:
        h = reader.header
    if h.version >= 3:
        return SZConfig.from_kwargs(mode=h.mode, bound=h.mode_param)
    if h.rel_bound is not None and h.abs_bound is not None:
        return SZConfig(
            error_bound={
                "mode": "rel",
                "bound": h.rel_bound,
                "abs_bound": h.abs_bound,
            }
        )
    if h.rel_bound is not None:
        return SZConfig.from_kwargs(mode="rel", bound=h.rel_bound)
    return SZConfig.from_kwargs(mode="abs", bound=h.abs_bound)


def _direction(mode: str, target_kind: str) -> int:
    """Sign of d(metric)/d(bound) for the monotone search.

    Loosening an ``abs``/``rel``/``pw_rel`` bound raises the ratio and
    lowers the PSNR; a ``psnr``-mode bound *is* a quality target, so
    the signs flip.
    """
    if mode == "psnr":
        return -1 if target_kind == "ratio" else 1
    return 1 if target_kind == "ratio" else -1


def autotune(
    source: Any,
    *,
    target_ratio: float | None = None,
    target_psnr: float | None = None,
    config: Any = None,
    fraction: float | None = None,
    seed: int | None = None,
    block_values: int | None = None,
    rtol: float = 0.05,
    max_trials: int = 24,
    verify: bool = False,
) -> TuneResult:
    """Search the error bound until the predicted metric hits the target.

    Parameters
    ----------
    source
        Anything :func:`repro.tuning.estimate` accepts: an array, a
        ``.npy`` path, or a container (tiled containers also seed the
        starting config from their header when ``config=None``).
    target_ratio, target_psnr
        Exactly one must be given: the compression factor, or the
        quality (dB), to hit.
    config
        Starting :class:`repro.api.SZConfig`; its mode is kept and only
        the bound is swept via ``config.replace(bound=...)``.  Defaults
        to the container's own config for tiled sources, else
        ``mode="rel", bound=1e-4``.
    rtol
        Convergence tolerance: stop when the predicted metric is within
        ``rtol`` (relative) of the target.
    max_trials
        Probe budget (bracketing + bisection).
    verify
        Spend one real compression at the chosen config and record the
        actual ratio/PSNR in the result.

    Every probe re-estimates on the *same* deterministic sample, so the
    search sees one nearly monotone curve and two runs with the same
    inputs produce identical trials.
    """
    if (target_ratio is None) == (target_psnr is None):
        raise ValueError("pass exactly one of target_ratio= / target_psnr=")
    target_kind = "ratio" if target_ratio is not None else "psnr"
    target = float(
        target_ratio if target_ratio is not None else target_psnr  # type: ignore[arg-type]
    )
    if target <= 0 or not math.isfinite(target):
        raise ValueError(f"target must be positive and finite, got {target}")
    if config is None:
        config = _default_config(source)
    spec = config.error_bound
    if spec.mode == "rel" and spec.abs_bound is not None:
        raise ValueError(
            "cannot tune a combined abs+rel bound (replace(bound=...) is "
            "ambiguous); start from a single-parameter config"
        )
    if spec.mode == "psnr" and target_kind == "psnr":
        # The bound *is* the quality target: nothing to search.
        chosen = config.replace(bound=target)
        return _finalize(
            source, chosen, target_kind, target, [], True, rtol,
            time.perf_counter(), verify, fraction, seed, block_values,
        )

    t0 = time.perf_counter()
    with span(
        "tune", target=target_kind, value=target, mode=spec.mode
    ):
        result = _search(
            source, config, target_kind, target, fraction, seed,
            block_values, rtol, max_trials, t0, verify,
        )
    metric_add("tune/calls")
    metric_add("tune/trials", float(len(result.trials)))
    metric_observe("tune/relative_miss", result.relative_miss)
    return result


def _default_config(source: Any) -> Any:
    from repro.tuning.estimator import _is_container_source

    if _is_container_source(source):
        return config_from_container(source)
    from repro.api.config import SZConfig

    return SZConfig.from_kwargs(mode="rel", bound=1e-4)


def _search(
    source: Any,
    config: Any,
    target_kind: str,
    target: float,
    fraction: float | None,
    seed: int | None,
    block_values: int | None,
    rtol: float,
    max_trials: int,
    t0: float,
    verify: bool,
) -> TuneResult:
    mode = config.error_bound.mode
    direction = _direction(mode, target_kind)
    trials: list[Trial] = []

    def probe(bound: float) -> Trial:
        cand = config.replace(bound=bound)
        est = estimate(
            source, cand, fraction=fraction, seed=seed,
            block_values=block_values,
        )
        trial = Trial(cand, est, target_kind, target)
        trials.append(trial)
        return trial

    def miss(trial: Trial) -> float:
        return abs(trial.predicted / target - 1.0)

    lo_lim, hi_lim = _BOUND_LIMITS[mode]
    cur = best = probe(min(max(float(config.bound), lo_lim), hi_lim))
    if miss(best) <= rtol:
        return _finalize_trials(
            source, best, trials, True, rtol, t0, verify,
        )

    # Bracket: walk the bound geometrically toward the target until the
    # predicted metric crosses it (near-monotonicity makes this sound).
    # ``below_b``/``above_b`` hold bounds whose prediction is below /
    # above the target — with direction -1 the below-bound is the
    # numerically larger one, which the log-space bisection handles.
    below_b: float | None = None
    above_b: float | None = None
    b = float(cur.config.bound)
    while len(trials) < max_trials and (below_b is None or above_b is None):
        if cur.predicted < target:
            below_b = b
        else:
            above_b = b
        if below_b is not None and above_b is not None:
            break
        grow = (cur.predicted < target) == (direction > 0)
        nb = b * _EXPAND_FACTOR if grow else b / _EXPAND_FACTOR
        nb = min(max(nb, lo_lim), hi_lim)
        if nb == b:
            break  # pinned at a mode limit: the target is unreachable
        b = nb
        cur = probe(b)
        if miss(cur) < miss(best):
            best = cur
        if miss(best) <= rtol:
            return _finalize_trials(
                source, best, trials, True, rtol, t0, verify,
            )

    # Bisect in log-bound space until within tolerance or out of budget.
    while (
        below_b is not None
        and above_b is not None
        and len(trials) < max_trials
        and miss(best) > rtol
    ):
        mid = math.exp((math.log(below_b) + math.log(above_b)) / 2.0)
        if mid in (below_b, above_b):
            break  # float resolution exhausted
        cur = probe(mid)
        if miss(cur) < miss(best):
            best = cur
        if cur.predicted < target:
            below_b = mid
        else:
            above_b = mid
    return _finalize_trials(
        source, best, trials, miss(best) <= rtol, rtol, t0, verify,
    )


def _finalize_trials(
    source: Any,
    best: Trial,
    trials: list[Trial],
    converged: bool,
    rtol: float,
    t0: float,
    verify: bool,
) -> TuneResult:
    result = TuneResult(
        config=best.config,
        estimate=best.estimate,
        target_kind=best.target_kind,
        target_value=best.target_value,
        trials=trials,
        converged=converged,
        rtol=rtol,
        seconds=time.perf_counter() - t0,
    )
    if verify:
        _verify(source, result)
        result.seconds = time.perf_counter() - t0
    return result


def _finalize(
    source: Any,
    chosen: Any,
    target_kind: str,
    target: float,
    trials: list[Trial],
    converged: bool,
    rtol: float,
    t0: float,
    verify: bool,
    fraction: float | None,
    seed: int | None,
    block_values: int | None,
) -> TuneResult:
    est = estimate(
        source, chosen, fraction=fraction, seed=seed,
        block_values=block_values,
    )
    trial = Trial(chosen, est, target_kind, target)
    return _finalize_trials(
        source, trial, trials + [trial], converged, rtol, t0, verify
    )


def _verify(source: Any, result: TuneResult) -> None:
    """One real compression at the chosen config → actual ratio/PSNR."""
    from repro.core.bounds import finite_range
    from repro.core.compressor import _psnr_of, compress_array, decompress

    data = _materialize(source)
    blob, _ = compress_array(data, result.config)
    result.actual_ratio = data.nbytes / max(1, len(blob))
    recon = decompress(blob)
    result.actual_psnr = _psnr_of(data, recon, finite_range(data))


def _materialize(source: Any) -> np.ndarray:
    """Load ``source`` fully into memory (verify path only)."""
    from repro.chunked.format import is_tiled
    from repro.chunked.streams import TiledReader

    if isinstance(source, np.ndarray):
        return np.ascontiguousarray(source)
    if isinstance(source, (bytes, bytearray, memoryview)):
        if is_tiled(source):
            with TiledReader(source) as reader:
                return reader.read_all()
        from repro.core.compressor import decompress

        return decompress(source)
    with open(source, "rb") as fh:
        magic = fh.read(6)
    if magic[:4] == b"SZRT":
        with TiledReader(source) as reader:
            return reader.read_all()
    if magic[:6] == b"\x93NUMPY":
        return np.ascontiguousarray(np.load(source))
    from pathlib import Path

    from repro.core.compressor import decompress

    return decompress(Path(source).read_bytes())
