"""Command-line interface: ``repro-sz``.

Subcommands
-----------
``list``
    Show registered experiments.
``run EXPERIMENT [--scale tiny|small|paper]``
    Run one experiment (or ``all``) and print its table.
``compress IN.npy OUT.sz [--mode abs|rel|pw_rel|psnr --bound X]
[--rel 1e-4] [--abs EB] [--layers N] [--bits M]
[--tile T0,T1,... --workers N]``
    Compress a NumPy array file.  ``--mode``/``--bound`` select an
    error-bound mode: ``abs`` (absolute), ``rel`` (value-range
    relative), ``pw_rel`` (pointwise relative, ``|e_i| <= bound |x_i|``)
    or ``psnr`` (target PSNR in dB).  ``--rel``/``--abs`` give a
    range-relative and/or absolute bound instead; with both, the
    tighter bound wins.  ``--tile`` writes a
    block-indexed tiled container, streamed slab-by-slab so the input
    may exceed RAM.
``decompress IN.sz OUT.npy [--region 0:10,5:20]``
    Decompress a container back to ``.npy``; ``--region`` extracts a
    hyperslab (reading only the intersecting tiles of a v2 container).
``info FILE.sz [--json]``
    Pretty-print container metadata for v1 and tiled v2 containers;
    ``--json`` emits a machine-readable report including the
    reconstructed :class:`repro.api.SZConfig` (``SZConfig.to_dict()``).
``estimate SOURCE [--mode M --bound X] [--fraction F --seed S]``
    Predict the compression ratio (with a confidence interval) and the
    expected quality for a configuration *without* compressing the
    whole input (see :mod:`repro.tuning`).  ``SOURCE`` is a ``.npy``
    file or a container; on a tiled container with no ``--mode`` the
    footer index answers exactly, without decompressing anything.
``tune SOURCE (--target-ratio R | --target-psnr DB) [--rtol T]``
    Search the error-bound knob for the configuration whose *predicted*
    outcome hits the target, via monotone bisection over sample-based
    estimates; prints every trial.  On a container the search starts
    from the recorded mode/bound.  ``--verify`` compresses once with
    the winning config and reports the actual ratio/PSNR.
``bench [--scale tiny|small|large] [--out BENCH_micro.json]``
    Run the perf micro-benchmark sweep (see :mod:`repro.perf.bench`)
    and write the schema-versioned stage-breakdown report.
    ``--cases sweep,estimate`` adds estimator-vs-full-compression
    speedup/accuracy cases to the report.
``trace FILE [--chrome OUT.json]``
    Summarize telemetry.  On a ``--trace`` run report (``repro-obs/1``
    JSON): print the span/metric summary, optionally converting to a
    Chrome trace-event file loadable in ``chrome://tracing`` /
    Perfetto.  On a tiled container: print the footer-index tile
    distribution (hit-rate/mode-share histograms) without
    decompressing anything.

``compress``/``decompress``/``bench`` accept ``--trace OUT.json`` to
record the run under a :class:`repro.obs.Collector` and write the
schema-versioned run report (the compressed bytes are identical with
and without tracing).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro import __version__
from repro.api import SZConfig
from repro.core import ErrorBound, compress_with_stats, decompress
from repro.experiments import EXPERIMENTS, run_experiment

__all__ = ["main"]


def _json_safe(value):
    """Recursively coerce container-info values into JSON-native types."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _config_from_info(info: dict) -> dict | None:
    """Best-effort ``SZConfig.to_dict()`` reconstructed from a header.

    Containers record the error-bound request and the prediction/
    quantization settings but not every encoder knob (e.g. the Huffman
    ``block_size`` lives in the stream, not the header), so the result
    carries defaults there; ``None`` when no valid config can be built.

    Constant containers record the *requested* mode and bound in the
    header (``mode``/``mode_param``) while their resolved ``eb_abs`` is
    0, so the reconstruction prefers the recorded request over the
    (useless) resolved bound — this is what lets ``repro-sz tune`` and
    :func:`repro.tuning.autotune` seed a search from any existing file.
    """
    try:
        mode = info.get("mode", "abs")
        if mode in ("pw_rel", "psnr"):
            spec = {"mode": mode, "bound": info["mode_param"]}
        elif info.get("rel_bound") is not None:
            spec = {"mode": "rel", "bound": info["rel_bound"]}
            if info.get("abs_bound") is not None:
                spec["abs_bound"] = info["abs_bound"]
        elif info.get("abs_bound") is not None:
            spec = {"mode": "abs", "bound": info["abs_bound"]}
        elif info.get("mode_param"):
            spec = {"mode": mode, "bound": info["mode_param"]}
        else:
            spec = {"mode": "abs", "bound": info["eb_abs"]}
        knobs = {}
        for key in ("layers", "interval_bits", "entropy_coder",
                    "lossless_post", "tile_shape"):
            if info.get(key) is not None:
                knobs[key] = info[key]
        return SZConfig.from_dict({**spec, **knobs}).to_dict()
    except (KeyError, ValueError):
        return None


def _cmd_list(_args) -> int:
    for name, exp in EXPERIMENTS.items():
        print(f"{name:8s} {exp.paper_artifact:12s} {exp.description}")
    return 0


def _cmd_run(args) -> int:
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.perf_counter()
        table = run_experiment(name, scale=args.scale)
        elapsed = time.perf_counter() - t0
        print(table)
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    return 0


def _parse_tile(spec: str, ndim: int) -> tuple[int, ...]:
    try:
        parts = [int(p) for p in spec.split(",") if p]
    except ValueError:
        raise SystemExit(
            f"bad --tile {spec!r}: use comma-separated integers"
        ) from None
    if len(parts) == 1:
        parts = parts * ndim
    if len(parts) != ndim:
        raise SystemExit(
            f"--tile has {len(parts)} axes but the array has {ndim}"
        )
    if any(p < 1 for p in parts):
        raise SystemExit("--tile extents must be positive")
    return tuple(parts)


def _parse_region(spec: str) -> tuple:
    """Parse ``"0:10,5:,3"`` into a tuple of slices/ints."""
    items: list = []
    for part in spec.split(","):
        part = part.strip()
        try:
            if ":" in part:
                bounds = part.split(":")
                if len(bounds) != 2:
                    raise ValueError
                start = int(bounds[0]) if bounds[0] else None
                stop = int(bounds[1]) if bounds[1] else None
                items.append(slice(start, stop))
            elif part:
                items.append(int(part))
            else:
                items.append(slice(None))
        except ValueError:
            raise SystemExit(
                f"bad region axis {part!r}: use start:stop or an integer"
            ) from None
    return tuple(items)


def _traced(args):
    """Run the command body under a collector when ``--trace`` was given.

    Returns a ``(run, finish)`` pair: call the body inside ``run`` (a
    context manager) and ``finish()`` afterwards to write the run
    report.  With no ``--trace`` both are no-ops.
    """
    from contextlib import nullcontext

    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return nullcontext(), lambda: None
    from repro.obs import Collector, write_run_report

    collector = Collector()

    def finish() -> None:
        write_run_report(collector, trace_path)
        print(f"trace: {len(collector.spans)} spans -> {trace_path}")

    return collector, finish


def _cmd_compress(args) -> int:
    if args.mode is not None and args.bound is None:
        raise SystemExit(f"--mode {args.mode} requires --bound")
    if args.bound is not None and args.mode is None:
        raise SystemExit("--bound requires --mode")
    if args.mode is not None and (
        args.abs_bound is not None or args.rel_bound is not None
    ):
        raise SystemExit("--mode/--bound and --abs/--rel are mutually exclusive")
    config = SZConfig(
        ErrorBound.from_args(
            args.mode, args.bound, args.abs_bound, args.rel_bound
        ),
        layers=args.layers,
        interval_bits=args.bits,
        adaptive=args.adaptive,
        workers=args.workers,
    )
    run, finish = _traced(args)
    with run:
        rc = _compress_body(args, config)
    finish()
    return rc


def _compress_body(args, config) -> int:
    if args.tile is not None:
        from repro.chunked import compress_file_tiled

        shape = np.load(args.input, mmap_mode="r").shape
        summary = compress_file_tiled(
            args.input,
            args.output,
            tile_shape=_parse_tile(args.tile, len(shape)),
            config=config,
        )
        print(
            f"{args.input}: {summary['original_bytes']} -> "
            f"{summary['compressed_bytes']} bytes "
            f"(CF {summary['compression_factor']:.2f}, "
            f"{summary['n_tiles']} tiles of {summary['tile_shape']})"
        )
        return 0
    data = np.load(args.input)
    blob, stats = compress_with_stats(data, config=config)
    with open(args.output, "wb") as fh:
        fh.write(blob)
    print(
        f"{args.input}: {stats.original_bytes} -> {stats.compressed_bytes} bytes "
        f"(mode {stats.mode}, CF {stats.compression_factor:.2f}, "
        f"{stats.bit_rate:.2f} bits/value, hit rate {stats.hit_rate:.1%})"
    )
    return 0


def _cmd_decompress(args) -> int:
    run, finish = _traced(args)
    with run:
        rc = _decompress_body(args)
    finish()
    return rc


def _decompress_body(args) -> int:
    from repro.chunked import decompress_region, is_tiled

    with open(args.input, "rb") as fh:
        head = fh.read(4)
    if args.region is not None:
        region = _parse_region(args.region)
        if is_tiled(head):
            data = decompress_region(args.input, region)
        else:
            with open(args.input, "rb") as fh:
                data = decompress(fh.read())[region]
        np.save(args.output, data)
        print(
            f"{args.input}[{args.region}]: restored {data.shape} "
            f"{data.dtype} -> {args.output}"
        )
        return 0
    if is_tiled(head):
        from repro.chunked import decompress_tiled

        data = decompress_tiled(args.input)
    else:
        with open(args.input, "rb") as fh:
            data = decompress(fh.read())
    np.save(args.output, data)
    print(f"{args.input}: restored {data.shape} {data.dtype} -> {args.output}")
    return 0


def _cmd_info(args) -> int:
    from repro.chunked import container_info_any
    from repro.metrics import tile_ratio_stats

    info = container_info_any(args.input)
    if args.json:
        report = _json_safe(dict(info))
        report["file"] = args.input
        report["config"] = _config_from_info(info)
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    tile_bytes = info.pop("tile_bytes", None)
    tile_values = info.pop("tile_values", None)
    hit_rates = info.pop("tile_hit_rates", None)
    info.pop("tile_compression_factors", None)
    summary = info.pop("tile_summary", None)
    for key, value in info.items():
        print(f"{key:18s} {value}")
    if tile_bytes:
        stats = tile_ratio_stats(
            tile_bytes, tile_values, np.dtype(info["dtype"]).itemsize
        )
        print(
            f"{'tile CF':18s} mean {stats['cf_mean']:.2f}  "
            f"std {stats['cf_std']:.2f}  min {stats['cf_min']:.2f}  "
            f"max {stats['cf_max']:.2f}"
        )
        print(
            f"{'tile hit rate':18s} mean {np.mean(hit_rates):.1%}  "
            f"min {np.min(hit_rates):.1%}"
        )
    if summary and summary.get("n_tiles"):
        print(f"{'hit-rate hist':18s} {summary['hit_rate_hist']}")
        print(f"{'mode-share hist':18s} {summary['mode_share_hist']}")
    return 0


def _print_footer_summary(path: str) -> int:
    """Tile-distribution summary straight from a tiled container's footer."""
    from repro.chunked.format import footer_features
    from repro.chunked.streams import TiledReader

    with TiledReader(path) as reader:
        info = reader.info()
        feats = footer_features(reader.entries, itemsize=reader.dtype.itemsize)
    summary = info["tile_summary"]
    print(f"{path}: {info['format']}, {summary['n_tiles']} tiles")
    for key in ("n_values", "n_unpredictable", "payload_bytes"):
        print(f"{key:18s} {summary[key]}")
    for key in ("hit_rate", "mode_share", "nonzero_bins"):
        d = summary[key]
        print(
            f"{key:18s} min {d['min']:.4g}  mean {d['mean']:.4g}  "
            f"max {d['max']:.4g}"
        )
    cf = feats["compression_factor"]
    print(
        f"{'tile CF':18s} min {cf.min():.4g}  "
        f"mean {cf.sum(dtype=np.float64) / max(1, cf.size):.4g}  "
        f"max {cf.max():.4g}"
    )
    print(f"{'hit-rate hist':18s} {summary['hit_rate_hist']}")
    print(f"{'mode-share hist':18s} {summary['mode_share_hist']}")
    return 0


def _tuning_config(args) -> "SZConfig | None":
    """Build the optional explicit config for ``estimate``/``tune``.

    ``None`` when the user gave no ``--mode``/``--bound`` — the tuning
    layer then reads the config out of a container header, or the
    caller falls back to the default relative bound for raw arrays.
    """
    if (args.mode is None) != (args.bound is None):
        raise SystemExit("--mode and --bound go together")
    if args.mode is None:
        return None
    return SZConfig.from_kwargs(mode=args.mode, bound=args.bound)


def _cmd_estimate(args) -> int:
    from repro.tuning import estimate

    config = _tuning_config(args)
    if config is None:
        with open(args.input, "rb") as fh:
            if fh.read(4) != b"SZRT":
                # Raw arrays (and v1 containers) need a configuration to
                # estimate under; mirror `compress`'s default bound.
                config = SZConfig.from_kwargs(mode="rel", bound=1e-4)
    run, finish = _traced(args)
    with run:
        est = estimate(
            args.input, config, fraction=args.fraction, seed=args.seed
        )
    finish()
    if args.json:
        json.dump(_json_safe(est.to_dict()), sys.stdout, indent=2,
                  sort_keys=True)
        print()
        return 0
    ratio = f"{est.ratio:.3f} [{est.ratio_low:.3f}, {est.ratio_high:.3f}]"
    print(f"{args.input}: mode {est.mode}, bound {est.bound:g} "
          f"({est.method})")
    print(f"{'predicted ratio':18s} {ratio}")
    print(f"{'bit rate':18s} {est.bit_rate:.3f} bits/value")
    print(f"{'predicted bytes':18s} {est.predicted_bytes} "
          f"(of {est.original_bytes})")
    if est.psnr is not None:
        print(f"{'expected psnr':18s} {est.psnr:.2f} dB")
    if est.max_abs_error is not None:
        print(f"{'max abs error':18s} {est.max_abs_error:.3g}")
    if est.max_pw_rel_error is not None:
        print(f"{'max pw-rel error':18s} {est.max_pw_rel_error:.3g}")
    print(f"{'sampled':18s} {est.n_values_sampled}/{est.n_values_total} "
          f"values in {est.n_blocks} blocks "
          f"({est.sample_fraction:.2%}, seed {est.seed}) "
          f"in {est.seconds:.3f}s")
    return 0


def _cmd_tune(args) -> int:
    from repro.tuning import autotune

    run, finish = _traced(args)
    with run:
        result = autotune(
            args.input,
            target_ratio=args.target_ratio,
            target_psnr=args.target_psnr,
            config=_tuning_config(args),
            fraction=args.fraction,
            seed=args.seed,
            rtol=args.rtol,
            max_trials=args.max_trials,
            verify=args.verify,
        )
    finish()
    if args.json:
        json.dump(_json_safe(result.to_dict()), sys.stdout, indent=2,
                  sort_keys=True)
        print()
        return 0 if result.converged else 1
    for i, trial in enumerate(result.trials):
        eb = trial.config.error_bound
        print(f"trial {i:2d}  {eb.mode}={eb.param:<12.6g} "
              f"predicted {trial.target_kind.replace('_', ' ')} "
              f"{trial.predicted:.4g}")
    eb = result.config.error_bound
    status = "converged" if result.converged else "NOT converged"
    print(f"{status} in {len(result.trials)} trials ({result.seconds:.3f}s): "
          f"--mode {eb.mode} --bound {eb.param:g}")
    print(f"{'target':18s} {result.target_kind} = {result.target_value:g}")
    print(f"{'predicted':18s} {result.predicted:.4g} "
          f"(miss {result.relative_miss:+.2%}, rtol {result.rtol:.0%})")
    if result.actual_ratio is not None:
        print(f"{'actual ratio':18s} {result.actual_ratio:.4g}")
    if result.actual_psnr is not None:
        print(f"{'actual psnr':18s} {result.actual_psnr:.2f} dB")
    return 0 if result.converged else 1


def _cmd_trace(args) -> int:
    from repro.chunked import is_tiled
    from repro.obs import chrome_trace, summarize_run_report, validate_run_report

    with open(args.input, "rb") as fh:
        head = fh.read(4)
    if is_tiled(head):
        if args.chrome:
            raise SystemExit(
                "--chrome needs a run report (JSON written by --trace), "
                "not a container"
            )
        return _print_footer_summary(args.input)
    try:
        with open(args.input) as fh:
            report = json.load(fh)
        validate_run_report(report)
    except (ValueError, UnicodeDecodeError) as exc:
        raise SystemExit(f"{args.input}: not a run report: {exc}") from None
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(chrome_trace(report), fh, indent=2)
            fh.write("\n")
        print(f"chrome trace: {args.chrome}")
    print(summarize_run_report(report))
    return 0


def _cmd_bench(args) -> int:
    from repro.perf.bench import main as bench_main

    argv = ["--scale", args.scale, "--repeats", str(args.repeats),
            "--out", args.out]
    if args.only:
        argv += ["--only", args.only]
    if args.modes:
        argv += ["--modes", args.modes]
    if args.cases:
        argv += ["--cases", args.cases]
    if args.trace:
        argv += ["--trace", args.trace]
    return bench_main(argv)


def _cmd_ablation(args) -> int:
    from repro.experiments.ablation import ABLATIONS

    names = list(ABLATIONS) if args.study == "all" else [args.study]
    for name in names:
        print(ABLATIONS[name](scale=args.scale))
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sz",
        description="SZ-1.4 reproduction: error-bounded lossy compression",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro-sz {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run an experiment")
    p_run.add_argument("experiment", choices=list(EXPERIMENTS) + ["all"])
    p_run.add_argument("--scale", default="small",
                       choices=["tiny", "small", "paper"])
    p_run.set_defaults(func=_cmd_run)

    p_c = sub.add_parser("compress", help="compress a .npy array")
    p_c.add_argument("input")
    p_c.add_argument("output")
    p_c.add_argument(
        "--rel", dest="rel_bound", type=float, default=None,
        help="value-range-relative bound (default 1e-4 when no bound is "
             "given); with --abs the tighter bound wins",
    )
    p_c.add_argument(
        "--abs", dest="abs_bound", type=float, default=None,
        help="absolute bound; with --rel the tighter bound wins",
    )
    p_c.add_argument(
        "--mode", default=None, choices=["abs", "rel", "pw_rel", "psnr"],
        help="error-bound mode; pw_rel bounds |e_i| <= bound*|x_i|, "
             "psnr targets a PSNR in dB (requires --bound)",
    )
    p_c.add_argument(
        "--bound", type=float, default=None,
        help="mode parameter for --mode",
    )
    p_c.add_argument("--layers", type=int, default=1)
    p_c.add_argument("--bits", type=int, default=8)
    p_c.add_argument("--adaptive", action="store_true")
    p_c.add_argument(
        "--tile", default=None, metavar="T0[,T1,...]",
        help="write a tiled (v2) container with these tile extents "
             "(one int = cubic tiles)",
    )
    p_c.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for tiled compression",
    )
    p_c.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="record spans/metrics and write a repro-obs/1 run report",
    )
    p_c.set_defaults(func=_cmd_compress)

    p_d = sub.add_parser("decompress", help="decompress a container")
    p_d.add_argument("input")
    p_d.add_argument("output")
    p_d.add_argument(
        "--region", default=None, metavar="S0,S1,...",
        help="extract a hyperslab, e.g. '0:10,5:20,3'; on tiled "
             "containers only the intersecting tiles are read",
    )
    p_d.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="record spans/metrics and write a repro-obs/1 run report",
    )
    p_d.set_defaults(func=_cmd_decompress)

    p_e = sub.add_parser(
        "estimate",
        help="predict ratio/quality from a sample, without compressing",
    )
    p_e.add_argument("input", help=".npy file or container")
    p_e.add_argument(
        "--mode", default=None, choices=["abs", "rel", "pw_rel", "psnr"],
        help="error-bound mode to estimate under (requires --bound); "
             "defaults to a tiled container's own config, else rel 1e-4",
    )
    p_e.add_argument("--bound", type=float, default=None,
                     help="mode parameter for --mode")
    p_e.add_argument(
        "--fraction", type=float, default=None,
        help="sampled fraction of the input (default: config's "
             "sample_fraction, 0.02)",
    )
    p_e.add_argument("--seed", type=int, default=None,
                     help="sampling seed (default: config's sample_seed)")
    p_e.add_argument("--json", action="store_true",
                     help="emit the full Estimate record as JSON")
    p_e.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="record spans/metrics and write a repro-obs/1 run report",
    )
    p_e.set_defaults(func=_cmd_estimate)

    p_u = sub.add_parser(
        "tune",
        help="search the error bound for a target ratio or PSNR",
    )
    p_u.add_argument("input", help=".npy file or container")
    group = p_u.add_mutually_exclusive_group(required=True)
    group.add_argument("--target-ratio", type=float, default=None,
                       help="compression factor to hit")
    group.add_argument("--target-psnr", type=float, default=None,
                       help="quality (dB) to hit")
    p_u.add_argument(
        "--mode", default=None, choices=["abs", "rel", "pw_rel", "psnr"],
        help="mode whose bound is swept (requires --bound); defaults to "
             "a tiled container's own config, else rel 1e-4",
    )
    p_u.add_argument("--bound", type=float, default=None,
                     help="starting bound for --mode")
    p_u.add_argument("--fraction", type=float, default=None,
                     help="sampled fraction per trial")
    p_u.add_argument("--seed", type=int, default=None, help="sampling seed")
    p_u.add_argument("--rtol", type=float, default=0.05,
                     help="relative convergence tolerance (default 0.05)")
    p_u.add_argument("--max-trials", type=int, default=24,
                     help="probe budget (default 24)")
    p_u.add_argument(
        "--verify", action="store_true",
        help="compress once with the winning config and report the "
             "actual ratio/PSNR",
    )
    p_u.add_argument("--json", action="store_true",
                     help="emit the full TuneResult (all trials) as JSON")
    p_u.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="record spans/metrics and write a repro-obs/1 run report",
    )
    p_u.set_defaults(func=_cmd_tune)

    p_i = sub.add_parser("info", help="inspect a container (v1 or tiled v2)")
    p_i.add_argument("input")
    p_i.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report (includes the "
             "reconstructed SZConfig)",
    )
    p_i.set_defaults(func=_cmd_info)

    p_b = sub.add_parser(
        "bench", help="run the perf micro-benchmark sweep"
    )
    p_b.add_argument("--scale", default="small",
                     choices=["tiny", "small", "large"])
    p_b.add_argument("--repeats", type=int, default=3)
    p_b.add_argument("--only", default=None,
                     help="comma-separated case names (e.g. 3d-f32-rel)")
    p_b.add_argument("--modes", default=None,
                     help="comma-separated modes (abs,rel,pw_rel,psnr)")
    p_b.add_argument(
        "--cases", default=None,
        help="comma-separated case kinds: sweep, estimate "
             "(default sweep; estimate adds sampled-estimator "
             "speedup/accuracy cases)",
    )
    p_b.add_argument("--out", default="BENCH_micro.json")
    p_b.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="also write the timed repeats' spans/metrics as a repro-obs/1 "
             "run report (the stage table reads the same spans, so "
             "tracing adds no overhead of its own)",
    )
    p_b.set_defaults(func=_cmd_bench)

    p_t = sub.add_parser(
        "trace",
        help="summarize a --trace run report or a tiled container's footer",
    )
    p_t.add_argument("input", help="run-report JSON or tiled container")
    p_t.add_argument(
        "--chrome", default=None, metavar="OUT.json",
        help="also convert the run report to a Chrome trace-event file "
             "(chrome://tracing / Perfetto)",
    )
    p_t.set_defaults(func=_cmd_trace)

    p_a = sub.add_parser("ablation", help="run a design-choice ablation")
    from repro.experiments.ablation import ABLATIONS

    p_a.add_argument("study", choices=list(ABLATIONS) + ["all"])
    p_a.add_argument("--scale", default="small",
                     choices=["tiny", "small", "paper"])
    p_a.set_defaults(func=_cmd_ablation)

    args = parser.parse_args(argv)
    if (
        args.command == "compress"
        and args.rel_bound is None
        and args.abs_bound is None
        and args.mode is None
        and args.bound is None
    ):
        args.rel_bound = 1e-4
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
