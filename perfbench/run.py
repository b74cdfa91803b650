"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload hurricane3d --seed 1 --seconds 20 --trace 0

Run from a full checkout.  The run generates the workload's input from
``--seed`` (``inputs.py``), stages it as ``.npy`` under ``.perfbench/``,
and measures the program in fresh single-threaded processes
(``child.py``), one after another:

1. ``reference``: set-up, then the checks that need the original data.
   It records the ratio, the PSNR and the checksums every later output
   must match.
2. With ``--trace 0``: a process that only sets up, then the measured
   process, which sets up and runs ``--seconds`` of steady state.
   ``setup_s`` is the median of the three processes' set-up times; every
   other timing comes from the measured process.
   With ``--trace 1``: one process that reports the per-layer split.

Each metric's name and unit come from ``BENCHMARK.json``.  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the ``perfbench context`` line records the
machine, the sample counts and the workload's working set against the
program's caches.  The staged files are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hurricane3d", "series1d", "xray-roi")
DEADLINE_S = 170.0
MB = 1e6


def machine() -> dict[str, Any]:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_child(args: argparse.Namespace, work: Path, deadline: float,
              role: str, seconds: float) -> dict[str, Any]:
    """Run ``child.py`` in ``role``; return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--work", str(work),
        "--seed", str(args.seed), "--seconds", str(seconds), "--role", role,
    ]
    env = dict(
        os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
    )
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(main: dict[str, Any], reference: dict[str, Any],
               setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one run."""
    times = main["times"]
    reads = times.get(main["read_kind"], [])
    return {
        "compress_mb_s": main["nbytes"] / MB / percentile(times.get("compress", []), 50),
        "decompress_mb_s": main["read_nbytes"] / MB / percentile(reads, 50),
        "region_read_ms_p50": 1e3 * percentile(reads, 50),
        "region_read_ms_p90": 1e3 * percentile(reads, 90),
        "ratio": reference["ratio"] or math.nan,
        "psnr_db": reference["psnr_db"] or math.nan,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a full checkout (src/repro and "
              "BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        import numpy as np
        from inputs import GENERATORS

        t0 = time.perf_counter()
        data = GENERATORS[args.workload](args.seed)
        np.save(work / "input.npy", data)
        input_info = {"shape": list(data.shape), "dtype": str(data.dtype),
                      "generate_s": time.perf_counter() - t0}
        del data
        results = [run_child(args, work, deadline, "reference", 0.0)]
        if args.trace:
            results.append(run_child(args, work, deadline, "trace", args.seconds))
        else:
            results.append(run_child(args, work, deadline, "main", 0.0))
            results.append(run_child(args, work, deadline, "main", args.seconds))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    last = results[-1]
    errors = [e for r in results for e in r["errors"]]
    context: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(), "input": input_info, "cache": last.get("cache"),
    }
    if args.trace:
        values = last["metrics"]
        wanted = spec["per_layer"]
        context.update({k: last[k] for k in ("plans", "calls", "traced_ops")})
    else:
        setups = [r["setup_s"] for r in results]
        values = end_to_end(last, results[0]["reference"], setups)
        wanted = spec["end_to_end"]
        context.update({
            "setup_samples_s": setups,
            "samples": {k: len(v) for k, v in last["times"].items()},
        })
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], math.nan)
        if not math.isfinite(value):
            errors.append(f"{m['name']} has no measurement")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    context["errors"] = errors

    print("perfbench context " + json.dumps(context))
    for name, m in metrics.items():
        print(f"perfbench {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        # Problems that belong to no single operation (a metric with no
        # samples, a layer never reached) also make the run incorrect.
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
