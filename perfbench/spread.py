"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 perfbench/spread.py --runs 10 [--seed 1] [--workloads xray-roi ...]

Runs the benchmark ``--runs`` times per workload -- on seeds 1 to
``--runs``, as the benchmark is judged, or all on ``--seed``, which
leaves the host's noise alone -- and prints a Markdown table per
workload: each end-to-end metric's quartiles
(``statistics.quantiles(values, n=4)``), its spread
``(Q3 - Q1) / median`` and its bound from ``BENCHMARK.json``.  With
``--repeat`` it then reruns the first seed, which must give exactly the
same ``ratio`` and ``psnr_db``, and runs the held-out seed 1000, which
must run with no failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 1000


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(spec: dict[str, Any], results: list[dict[str, Any]]) -> list[str]:
    rows = [
        "| metric | unit | Q1 | median | Q3 | spread | bound | spread < bound/3 |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        rows.append(
            f"| {m['name']} | {m['unit']} | {q1:.4g} | {med:.4g} | {q3:.4g} "
            f"| {spread:.2%} | {m['bound']:.0%} "
            f"| {'yes' if spread < m['bound'] / 3 else 'NO'} |"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="run every time on this seed")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--repeat", action="store_true",
                        help="also rerun the first seed and the held-out seed")
    args = parser.parse_args(argv)
    if args.seed is None:
        seeds = list(range(1, args.runs + 1))
        label = f"seeds 1-{args.runs}"
    else:
        seeds = [args.seed] * args.runs
        label = f"seed {args.seed} every time"

    ok = True
    for workload in args.workloads:
        t0 = time.monotonic()
        results = [run_once(workload, seed, args.seconds) for seed in seeds]
        wall = (time.monotonic() - t0) / args.runs
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        ok &= all(r["correct"] for r in results)
        print(f"\n### {workload}: {args.runs} runs, {label}, "
              f"--seconds {args.seconds}, {wall:.0f} s wall per run; "
              f"{failed} of {attempted} operations failed\n")
        print("\n".join(table(spec, results)))
        if args.repeat:
            again = run_once(workload, seeds[0], args.seconds)
            same = all(
                again["metrics"][k]["value"] == results[0]["metrics"][k]["value"]
                for k in ("ratio", "psnr_db")
            )
            held = run_once(workload, HELD_OUT_SEED, args.seconds)
            ok &= same and held["correct"]
            print(f"\nseed {seeds[0]} rerun: ratio and psnr_db "
                  f"{'identical' if same else 'DIFFER'}; held-out seed "
                  f"{HELD_OUT_SEED}: {held['failed']} of {held['attempted']} "
                  f"operations failed, ratio "
                  f"{held['metrics']['ratio']['value']:.4g}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
