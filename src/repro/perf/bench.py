"""Benchmark runner: sweep the compressor and emit ``BENCH_micro.json``.

Runs ``{dtype} x {dims} x {mode}`` compression/decompression cases at a
chosen size scale, aggregates medians over repeats, and writes a
schema-versioned JSON report with machine info, git revision, end-to-end
throughput and a per-stage breakdown.  Every timed repeat runs under a
:class:`repro.obs.Collector` (the active one, e.g. ``--trace``'s, or a
fresh one), and the breakdown is read from the spans that repeat added:
a stage path joins the span names below the operation's ``compress`` /
``decompress`` root with ``/`` (``entropy/huffman_encode``), and its
seconds include its child spans.  The committed ``BENCH_*.json`` files
form the repo's performance trajectory; the CI gate
(:mod:`repro.perf.gate`) runs the tiny sweep of a change and of its
base, alternately on one machine, and compares them.

Usage::

    python -m repro.perf.bench --scale tiny --out BENCH_micro.json
    repro-sz bench --scale small --repeats 5

The sweep is deterministic: fields are seeded synthetics, so two runs on
the same revision produce structurally identical reports (timings aside)
— pinned by ``tests/test_perf.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import time
from collections.abc import Sequence
from statistics import median
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.obs.tracer import Collector, SpanRecord, active_collector

if TYPE_CHECKING:
    from repro.api import SZConfig

__all__ = [
    "SCHEMA",
    "SCALES",
    "bench_report",
    "main",
    "synth_field",
    "validate_report",
]

SCHEMA = "repro-bench/1"

#: per-scale shapes, indexed by dimensionality
SCALES: dict[str, dict[int, tuple[int, ...]]] = {
    "tiny": {1: (4096,), 2: (48, 64), 3: (16, 24, 32)},
    "small": {1: (65536,), 2: (384, 512), 3: (64, 96, 96)},
    "large": {1: (1 << 20,), 2: (1536, 2048), 3: (128, 192, 256)},
}

_DTYPES = {"float32": np.float32, "float64": np.float64}
_DEFAULT_MODES = ("abs", "rel")
_ALL_MODES = ("abs", "rel", "pw_rel", "psnr")
_DEFAULT_KINDS = ("sweep",)
_ALL_KINDS = ("sweep", "estimate")

#: one stage path's ``{calls, seconds, bytes, mb_per_s}`` record
Stage = dict[str, float]


def _stage(calls: float, seconds: float, nbytes: float) -> Stage:
    mb = nbytes / seconds / 1e6 if seconds > 0 and nbytes > 0 else 0.0
    return {"calls": calls, "seconds": seconds, "bytes": nbytes, "mb_per_s": mb}


def _stage_table(spans: Sequence[SpanRecord], first: int = 0) -> dict[str, Stage]:
    """Per-path ``{calls, seconds, bytes, mb_per_s}`` of ``spans[first:]``.

    A span whose parent precedes ``first`` is an operation's root and
    records nothing itself; a span below it records under the
    slash-joined names from the root's child down.  Spans are stored in
    start order, so every parent path is known before its children.
    """
    paths: dict[int, str] = {}
    totals: dict[str, tuple[int, float, int]] = {}
    for index in range(first, len(spans)):
        rec = spans[index]
        if rec.parent < first:
            paths[index] = ""
            continue
        above = paths[rec.parent]
        path = paths[index] = f"{above}/{rec.name}" if above else rec.name
        calls, seconds, nbytes = totals.get(path, (0, 0.0, 0))
        totals[path] = (
            calls + 1,
            seconds + rec.duration,
            nbytes + int(rec.attrs.get("bytes", 0)),
        )
    return {path: _stage(*totals[path]) for path in sorted(totals)}


def _median_stages(tables: Sequence[dict[str, Stage]]) -> dict[str, Stage]:
    """Per-path medians across repeats, over the repeats that saw a path.

    ``calls`` and ``bytes`` take the median too; a deterministic
    workload repeats them exactly.
    """
    out: dict[str, Stage] = {}
    for path in sorted({path for table in tables for path in table}):
        recs = [table[path] for table in tables if path in table]
        out[path] = _stage(
            int(median([r["calls"] for r in recs])),
            median([r["seconds"] for r in recs]),
            int(median([r["bytes"] for r in recs])),
        )
    return out


def synth_field(shape: tuple[int, ...], dtype: str, seed: int = 0) -> np.ndarray:
    """Deterministic smooth-plus-noise field mimicking simulation output."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0.0, 4.0 * np.pi, s) for s in shape]
    mesh = np.meshgrid(*axes, indexing="ij") if len(shape) > 1 else [axes[0]]
    field = np.zeros(shape, dtype=np.float64)
    for k, m in enumerate(mesh):
        field += np.sin(m * (1.0 + 0.25 * k))
    field += 0.01 * rng.standard_normal(shape)
    return field.astype(_DTYPES[dtype])


def _mode_config(mode: str) -> "SZConfig":
    """The :class:`repro.api.SZConfig` realizing one sweep mode."""
    from repro.api import SZConfig

    bound = {"abs": 1e-3, "rel": 1e-4, "pw_rel": 1e-3, "psnr": 84.0}[mode]
    return SZConfig.from_kwargs(mode=mode, bound=bound)


def _git_rev() -> str:
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    return "unknown"


def _machine_info() -> dict[str, str | int]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def _run_case(
    name: str,
    dtype: str,
    shape: tuple[int, ...],
    mode: str,
    repeats: int,
) -> dict[str, Any]:
    from repro.api import Codec

    field = synth_field(shape, dtype, seed=len(shape))
    codec = Codec(_mode_config(mode))
    # warm-up: plan caches, first-touch allocations.  Run it under a
    # private collector — the codec metrics (outlier counts, Huffman
    # table shape, compression factor) are deterministic for a seeded
    # field, so they ride along in the report without touching the
    # timed repeats below.
    with Collector() as obs:
        blob = codec.encode(field)
        codec.decode(blob)
    obs_metrics = {
        "counters": dict(sorted(obs.counters.items())),
        "observations": {
            k: dict(v) for k, v in sorted(obs.observations.items())
        },
        "histograms": {k: list(v) for k, v in sorted(obs.histograms.items())},
    }

    c_times: list[float] = []
    d_times: list[float] = []
    c_tables: list[dict[str, Stage]] = []
    d_tables: list[dict[str, Stage]] = []
    # The timed repeats record into the active collector, so a --trace
    # run report holds exactly the spans the stage table is read from.
    collector = active_collector() or Collector()
    with collector:
        for _ in range(repeats):
            first = len(collector.spans)
            t0 = time.perf_counter()
            blob = codec.encode(field)
            c_times.append(time.perf_counter() - t0)
            c_tables.append(_stage_table(collector.spans, first))
            first = len(collector.spans)
            t0 = time.perf_counter()
            out = codec.decode(blob)
            d_times.append(time.perf_counter() - t0)
            d_tables.append(_stage_table(collector.spans, first))
    if out.shape != field.shape:
        raise RuntimeError(f"bench case {name}: round-trip shape mismatch")
    c_sec = median(c_times)
    d_sec = median(d_times)
    return {
        "name": name,
        "dtype": dtype,
        "ndim": len(shape),
        "shape": list(shape),
        "mode": mode,
        "n_bytes": int(field.nbytes),
        "compressed_bytes": len(blob),
        "compression_factor": field.nbytes / max(1, len(blob)),
        "compress": {
            "seconds": c_sec,
            "mb_per_s": field.nbytes / c_sec / 1e6 if c_sec > 0 else 0.0,
            "stages": _median_stages(c_tables),
        },
        "decompress": {
            "seconds": d_sec,
            "mb_per_s": field.nbytes / d_sec / 1e6 if d_sec > 0 else 0.0,
            "stages": _median_stages(d_tables),
        },
        "obs": obs_metrics,
    }


def _run_estimate_case(
    name: str,
    dtype: str,
    shape: tuple[int, ...],
    mode: str,
    repeats: int,
) -> dict[str, Any]:
    """Sampled estimation vs. full compression on one bench field.

    Records the accuracy (predicted ratio vs. the true ratio of a real
    compression) and the wall-clock speedup of :func:`repro.tuning.
    estimate` — the numbers the README's estimation section quotes and
    the CI smoke asserts on.
    """
    from repro.core.compressor import compress_array
    from repro.tuning import estimate

    field = synth_field(shape, dtype, seed=len(shape))
    config = _mode_config(mode)
    # warm-up both paths: plan caches, first-touch allocations.
    blob, _ = compress_array(field, config)
    est = estimate(field, config)
    c_times: list[float] = []
    e_times: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        blob, _ = compress_array(field, config)
        c_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        est = estimate(field, config)
        e_times.append(time.perf_counter() - t0)
    actual = field.nbytes / max(1, len(blob))
    c_sec = median(c_times)
    e_sec = median(e_times)
    return {
        "name": name,
        "dtype": dtype,
        "ndim": len(shape),
        "shape": list(shape),
        "mode": mode,
        "n_bytes": int(field.nbytes),
        "actual_ratio": actual,
        "predicted_ratio": est.ratio,
        "predicted_ratio_low": est.ratio_low,
        "predicted_ratio_high": est.ratio_high,
        "rel_err": est.ratio / actual - 1.0,
        "sample_fraction": est.sample_fraction,
        "n_blocks": est.n_blocks,
        "compress_seconds": c_sec,
        "estimate_seconds": e_sec,
        "speedup": c_sec / max(e_sec, 1e-12),
    }


def bench_report(
    scale: str = "tiny",
    repeats: int = 3,
    modes: tuple[str, ...] = _DEFAULT_MODES,
    dtypes: tuple[str, ...] = ("float32", "float64"),
    dims: tuple[int, ...] = (1, 2, 3),
    only: tuple[str, ...] | None = None,
    kinds: tuple[str, ...] = _DEFAULT_KINDS,
) -> dict[str, Any]:
    """Run the sweep and return the report dict (see :data:`SCHEMA`).

    ``kinds`` selects the case families: ``"sweep"`` is the classic
    compress/decompress stage breakdown; ``"estimate"`` adds 3-D
    estimator accuracy/speedup cases under ``estimate_cases``.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    for m in modes:
        if m not in _ALL_MODES:
            raise ValueError(f"unknown mode {m!r}; choose from {_ALL_MODES}")
    for kind in kinds:
        if kind not in _ALL_KINDS:
            raise ValueError(f"unknown kind {kind!r}; choose from {_ALL_KINDS}")
    if not kinds:
        raise ValueError("kinds must name at least one case family")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cases: list[dict[str, Any]] = []
    if "sweep" in kinds:
        for dtype in dtypes:
            for ndim in dims:
                for mode in modes:
                    name = (
                        f"{ndim}d-{'f32' if dtype == 'float32' else 'f64'}"
                        f"-{mode}"
                    )
                    if only is not None and name not in only:
                        continue
                    shape = SCALES[scale][ndim]
                    cases.append(
                        _run_case(name, dtype, shape, mode, repeats)
                    )
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "git_rev": _git_rev(),
        "machine": _machine_info(),
        "scale": scale,
        "repeats": repeats,
        "cases": cases,
    }
    if "estimate" in kinds:
        # The estimator's value shows on the 3-D fields (the paper's
        # target workload); f32 keeps the family small and comparable.
        report["estimate_cases"] = [
            _run_estimate_case(
                f"3d-f32-{mode}-estimate", "float32", SCALES[scale][3],
                mode, repeats,
            )
            for mode in modes
        ]
    validate_report(report)
    return report


_REQUIRED_TOP = (
    "schema",
    "created_unix",
    "git_rev",
    "machine",
    "scale",
    "repeats",
    "cases",
)
_REQUIRED_CASE = (
    "name",
    "dtype",
    "ndim",
    "shape",
    "mode",
    "n_bytes",
    "compressed_bytes",
    "compression_factor",
    "compress",
    "decompress",
)
_REQUIRED_SIDE = ("seconds", "mb_per_s", "stages")
_REQUIRED_STAGE = ("calls", "seconds", "bytes", "mb_per_s")
_REQUIRED_ESTIMATE_CASE = (
    "name",
    "dtype",
    "ndim",
    "shape",
    "mode",
    "actual_ratio",
    "predicted_ratio",
    "rel_err",
    "compress_seconds",
    "estimate_seconds",
    "speedup",
)


def validate_report(report: dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``report`` is not a valid bench report."""
    if not isinstance(report, dict):
        raise ValueError("bench report must be a JSON object")
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported bench schema {report.get('schema')!r}; want {SCHEMA!r}"
        )
    for key in _REQUIRED_TOP:
        if key not in report:
            raise ValueError(f"bench report missing required key {key!r}")
    if not isinstance(report["cases"], list):
        raise ValueError("bench report cases must be a list")
    # ``estimate_cases`` is an optional family (reports predating it and
    # estimate-only runs both validate); when present it must be
    # well-formed, and at least one family must be non-empty.
    est_cases = report.get("estimate_cases", [])
    if not isinstance(est_cases, list):
        raise ValueError("bench report estimate_cases must be a list")
    for case in est_cases:
        for key in _REQUIRED_ESTIMATE_CASE:
            if key not in case:
                raise ValueError(
                    f"estimate case {case.get('name', '?')!r} "
                    f"missing key {key!r}"
                )
    if not report["cases"] and not est_cases:
        raise ValueError("bench report has no cases")
    for case in report["cases"]:
        for key in _REQUIRED_CASE:
            if key not in case:
                raise ValueError(
                    f"bench case {case.get('name', '?')!r} missing key {key!r}"
                )
        for side in ("compress", "decompress"):
            for key in _REQUIRED_SIDE:
                if key not in case[side]:
                    raise ValueError(
                        f"case {case['name']!r} {side} missing key {key!r}"
                    )
            for path, rec in case[side]["stages"].items():
                for key in _REQUIRED_STAGE:
                    if key not in rec:
                        raise ValueError(
                            f"case {case['name']!r} stage {path!r} "
                            f"missing key {key!r}"
                        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="micro-benchmark the compressor and write BENCH_micro.json",
    )
    parser.add_argument(
        "--scale",
        default=os.environ.get("REPRO_BENCH_SCALE", "small"),
        choices=sorted(SCALES),
        help="sweep size (env REPRO_BENCH_SCALE overrides the default)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--modes",
        default=",".join(_DEFAULT_MODES),
        help=f"comma-separated subset of {_ALL_MODES}",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated case names to run (e.g. 3d-f32-rel)",
    )
    parser.add_argument(
        "--cases",
        default=",".join(_DEFAULT_KINDS),
        help=f"comma-separated case families from {_ALL_KINDS}: "
             "'sweep' is the stage-breakdown matrix, 'estimate' the "
             "sampled-estimator accuracy/speedup cases",
    )
    parser.add_argument("--out", default="BENCH_micro.json")
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="also write the timed repeats' spans and metrics as a "
             "repro-obs/1 run report; the stage table reads the same "
             "spans, so tracing adds no overhead of its own",
    )
    args = parser.parse_args(argv)
    collector = None
    if args.trace:
        collector = Collector()
        collector.__enter__()
    try:
        report = bench_report(
            scale=args.scale,
            repeats=args.repeats,
            modes=tuple(m for m in args.modes.split(",") if m),
            only=tuple(args.only.split(",")) if args.only else None,
            kinds=tuple(k for k in args.cases.split(",") if k),
        )
    finally:
        if collector is not None:
            collector.__exit__(None, None, None)
    if collector is not None:
        from repro.obs import write_run_report

        write_run_report(collector, args.trace)
        print(f"trace: {len(collector.spans)} spans -> {args.trace}")
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for case in report["cases"]:
        print(
            f"{case['name']:14s} compress {case['compress']['mb_per_s']:8.2f} MB/s"
            f"  decompress {case['decompress']['mb_per_s']:8.2f} MB/s"
            f"  CF {case['compression_factor']:6.2f}"
        )
    for case in report.get("estimate_cases", []):
        print(
            f"{case['name']:20s} actual CF {case['actual_ratio']:7.2f}"
            f"  predicted {case['predicted_ratio']:7.2f}"
            f"  err {case['rel_err']:+7.2%}"
            f"  speedup {case['speedup']:6.1f}x"
        )
    n_cases = len(report["cases"]) + len(report.get("estimate_cases", []))
    print(f"wrote {args.out} ({n_cases} cases, scale {args.scale})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
