"""CI perf-regression gate: the change against its base, on one runner.

Runs the tiny bench sweep of the base tree (``PYTHONPATH=BASE_SRC``) and
of the tree this module is imported from, each in a fresh process, for
:data:`ROUNDS` rounds that alternate which side goes first.  Fails
(exit 1) when, for any case, the median over rounds of the paired
change/base ratio of the compress time, the decompress time or a stage
path exceeds the tolerance.  Each round runs both sides back to back, so
a slow spell on a shared host slows both halves of a pair and cancels
in its ratio.

Usage::

    git worktree add ../base "$(git merge-base HEAD origin/main)"
    python -m repro.perf.gate ../base/src \
        --require-stage 3d-f32-rel:decompress:entropy/huffman_decode

Metrics whose base median is under ``--floor`` seconds (default 5 ms)
are skipped: at that scale scheduler noise dominates any ratio.  The
per-round reports are written to ``perf_gate/`` in the working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Any

from repro.perf.bench import validate_report

__all__ = [
    "compare_rounds",
    "missing_required_stages",
    "stage_coverage_notes",
    "main",
]

DEFAULT_TOLERANCE = 1.5
DEFAULT_FLOOR_SECONDS = 5e-3
"""Metrics faster than this in the base are skipped: below ~5 ms,
scheduler noise on shared CI runners swings ratios past any reasonable
tolerance (observed 1.8x between back-to-back identical runs)."""

ROUNDS = 21
"""Sweeps per side.  Some tiny stages run in a fast or a slow mode per
process, up to 1.8x apart, so the median needs many pairs for an
unchanged tree to pass: with 5 rounds, 1 of 10 runs on a 2-CPU host
failed one."""
SWEEP_ARGS = ("--scale", "tiny", "--repeats", "5")
REPORT_DIR = Path("perf_gate")
CHANGE_SRC = Path(__file__).resolve().parents[2]


def _seconds(report: dict[str, Any]) -> dict[tuple[str, str], float]:
    """``(case, metric) -> seconds`` for every side total and stage path."""
    out: dict[tuple[str, str], float] = {}
    for case in report["cases"]:
        for side in ("compress", "decompress"):
            out[case["name"], side] = float(case[side]["seconds"])
            for path, rec in case[side]["stages"].items():
                out[case["name"], f"{side}:{path}"] = float(rec["seconds"])
    return out


def compare_rounds(
    base: list[dict[str, Any]],
    change: list[dict[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
    floor_seconds: float = DEFAULT_FLOOR_SECONDS,
) -> list[dict[str, Any]]:
    """Return the list of regressions (empty = gate passes).

    ``base[r]`` and ``change[r]`` are the bench reports of round ``r``.
    Each regression dict has ``case``, ``metric`` (``compress``,
    ``decompress`` or ``side:stage/path``), the per-side medians
    ``base_seconds`` and ``change_seconds``, and ``ratio``, the median of
    the per-round change/base ratios.  A base case that a change round
    lacks, and a metric at or above the floor that a change round lacks,
    are regressions with an infinite ratio, so lost instrumentation
    cannot pass.
    """
    if not base or len(base) != len(change):
        raise ValueError("need the same positive number of base and change rounds")
    for report in (*base, *change):
        validate_report(report)
    base_sec = [_seconds(r) for r in base]
    change_sec = [_seconds(r) for r in change]
    regressions: list[dict[str, Any]] = []

    def flag(
        case: str, metric: str, base_s: float, change_s: float, ratio: float
    ) -> None:
        regressions.append(
            {
                "case": case,
                "metric": metric,
                "base_seconds": base_s,
                "change_seconds": change_s,
                "ratio": ratio,
            }
        )

    base_cases = {c["name"] for r in base for c in r["cases"]}
    lost = {
        name for r in change for name in base_cases - {c["name"] for c in r["cases"]}
    }
    for case in sorted(lost):
        flag(case, "missing", 0.0, 0.0, float("inf"))
    for key in sorted({key for b in base_sec for key in b}):
        case, metric = key
        base_s = median(b[key] for b in base_sec if key in b)
        if case in lost or base_s < floor_seconds:
            continue
        if any(key not in c for c in change_sec):
            flag(case, f"{metric} (missing)", base_s, 0.0, float("inf"))
            continue
        change_s = median(c[key] for c in change_sec)
        ratios = [
            c[key] / b[key] for b, c in zip(base_sec, change_sec) if b.get(key)
        ]
        ratio = median(ratios) if ratios else 0.0
        if ratio > tolerance:
            flag(case, metric, base_s, change_s, ratio)
    return regressions


def stage_coverage_notes(
    base: dict[str, Any], change: dict[str, Any]
) -> list[str]:
    """Human-readable notes on absent/empty per-stage data.

    An empty ``stages`` map is structurally valid (a subprocess-heavy
    case whose stage records never reached the parent looks exactly like
    this), and the per-stage checks of :func:`compare_rounds` then pass
    vacuously — nothing to compare, nothing to flag.  These notes make
    that state explicit so a gate run says *why* a side contributed no
    stage checks instead of silently covering zero stages.
    """
    notes: list[str] = []
    change_cases = {c["name"]: c for c in change.get("cases", [])}
    for base_case in base.get("cases", []):
        name = base_case["name"]
        new_case = change_cases.get(name)
        for side in ("compress", "decompress"):
            base_empty = not base_case[side]["stages"]
            new_empty = new_case is not None and not new_case[side]["stages"]
            if base_empty and new_empty:
                notes.append(
                    f"{name} {side}: no stage data in base or change "
                    "— only end-to-end seconds were compared"
                )
            elif base_empty:
                notes.append(
                    f"{name} {side}: base has no stage data — "
                    "per-stage checks skipped"
                )
            elif new_empty:
                notes.append(
                    f"{name} {side}: change has no stage data — "
                    "stage instrumentation may have been lost"
                )
    base_names = {c["name"] for c in base.get("cases", [])}
    for new_case in change.get("cases", []):
        if new_case["name"] not in base_names:
            notes.append(
                f"{new_case['name']}: not in base — uncovered by the gate"
            )
    return notes


def missing_required_stages(
    report: dict[str, Any], requirements: list[str]
) -> list[str]:
    """Requirements (``case:side:stage/path``) absent from ``report``.

    The ratio checks cover only what the base records and skip stages
    under the floor, so a stage that matters (say
    ``entropy/huffman_decode``) is pinned against each change report
    itself, whatever the base holds.
    """
    cases = {c["name"]: c for c in report.get("cases", [])}
    missing: list[str] = []
    for spec in requirements:
        parts = spec.split(":", 2)
        if len(parts) != 3 or parts[1] not in ("compress", "decompress"):
            raise ValueError(
                f"bad --require-stage spec {spec!r}; "
                "expected case:compress|decompress:stage/path"
            )
        case_name, side, stage_path = parts
        case = cases.get(case_name)
        if case is None or stage_path not in case[side]["stages"]:
            missing.append(spec)
    return missing


def _sweep(src: Path, out: Path) -> dict[str, Any]:
    """Run the tiny bench sweep of the tree at ``src`` in a fresh process."""
    subprocess.run(
        [sys.executable, "-m", "repro.perf.bench", *SWEEP_ARGS, "--out", str(out)],
        # Run outside any checkout: ``-m`` puts the working directory
        # first on sys.path, where a ``repro`` package would shadow src.
        cwd=out.parent,
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL,
        check=True,
    )
    with open(out) as fh:
        report: dict[str, Any] = json.load(fh)
    return report


def _run_rounds(
    base_src: Path,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """:data:`ROUNDS` alternating sweeps of each side into :data:`REPORT_DIR`."""
    out_dir = REPORT_DIR.resolve()
    out_dir.mkdir(exist_ok=True)
    sides = {"base": base_src, "change": CHANGE_SRC}
    reports: dict[str, list[dict[str, Any]]] = {"base": [], "change": []}
    for r in range(ROUNDS):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for side in order:
            reports[side].append(_sweep(sides[side], out_dir / f"{side}-{r}.json"))
    return reports["base"], reports["change"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.gate",
        description="fail when this tree's bench sweep regresses against "
                    "a base tree's, run alternately on this machine",
    )
    parser.add_argument(
        "base_src",
        metavar="BASE_SRC",
        type=Path,
        help="the base tree's src/ directory (the one holding repro/)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="max allowed median change/base ratio per metric (default 1.5)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=DEFAULT_FLOOR_SECONDS,
        help="skip metrics below this many base seconds "
             "(noise floor, default 5 ms)",
    )
    parser.add_argument(
        "--require-stage",
        action="append",
        default=[],
        metavar="CASE:SIDE:STAGE",
        help="fail unless every change report records this stage, e.g. "
             "3d-f32-rel:decompress:entropy/huffman_decode (repeatable)",
    )
    args = parser.parse_args(argv)
    base_src = args.base_src.resolve()
    if not (base_src / "repro" / "__init__.py").is_file():
        parser.error(f"{args.base_src} holds no repro package")
    specs = args.require_stage
    missing_required_stages({}, specs)  # a bad spec fails before the sweeps
    base, change = _run_rounds(base_src)
    print(
        f"perf gate: {len(base)} rounds against {base_src}, tolerance "
        f"{args.tolerance:.2f}x, floor {args.floor * 1e3:.1f} ms"
    )
    for note in stage_coverage_notes(base[0], change[0]):
        print(f"perf gate: note — {note}")
    missing = sorted(
        {spec for r in change for spec in missing_required_stages(r, specs)}
    )
    for spec in missing:
        print(f"perf gate: required stage absent from a change report — {spec}")
    regressions = compare_rounds(
        base, change, tolerance=args.tolerance, floor_seconds=args.floor
    )
    if not regressions and not missing:
        print("perf gate: OK — no metric regressed beyond tolerance")
        return 0
    if regressions:
        print(f"perf gate: {len(regressions)} regression(s):")
    for r in regressions:
        print(
            f"  {r['case']:14s} {r['metric']:40s} "
            f"{r['base_seconds']*1e3:9.2f} ms -> "
            f"{r['change_seconds']*1e3:9.2f} ms  ({r['ratio']:.2f}x)"
        )
    return 1


if __name__ == "__main__":
    sys.exit(main())
