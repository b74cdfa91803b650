"""Tests for the perf subsystem: span-derived stage table, bench schema, CI gate."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.obs import Collector, span
from repro.obs.tracer import active_collector
from repro.perf.bench import (
    SCALES,
    SCHEMA,
    _median_stages,
    _stage_table,
    bench_report,
    calibrate,
    synth_field,
    validate_report,
)
from repro.perf.gate import (
    compare_reports,
    missing_required_stages,
    stage_coverage_notes,
)

BASELINE = Path(__file__).parent.parent / "benchmarks" / "baselines" / "bench_baseline.json"


class TestStageTable:
    def test_records_time_bytes_calls(self):
        with Collector() as col:
            with span("compress"):
                with span("work", bytes=1000):
                    pass
                with span("work", bytes=500):
                    pass
        rec = _stage_table(col.spans)["work"]
        assert rec["calls"] == 2
        assert rec["bytes"] == 1500
        assert rec["seconds"] >= 0.0

    def test_nesting_builds_slash_paths(self):
        with Collector() as col:
            with span("compress"):
                with span("outer"):
                    with span("inner"):
                        pass
                    with span("inner"):
                        pass
        table = _stage_table(col.spans)
        assert set(table) == {"outer", "outer/inner"}  # the root is no stage
        assert table["outer/inner"]["calls"] == 2
        assert table["outer"]["calls"] == 1

    def test_nested_time_within_parent(self):
        with Collector() as col:
            with span("compress"):
                with span("outer"):
                    with span("inner", bytes=1):
                        x = float(np.sum(np.arange(1000.0)))
        assert x > 0
        table = _stage_table(col.spans)
        assert table["outer/inner"]["seconds"] <= table["outer"]["seconds"]

    def test_first_selects_one_operation(self):
        # Repeats share a collector; each reads only the spans it added,
        # under whatever span was open when it started.
        with Collector() as col, span("bench"):
            with span("compress"):
                with span("s", bytes=10):
                    pass
            first = len(col.spans)
            with span("compress"):
                with span("s", bytes=20):
                    pass
                with span("only-second"):
                    pass
        table = _stage_table(col.spans, first)
        assert set(table) == {"s", "only-second"}
        assert (table["s"]["calls"], table["s"]["bytes"]) == (1, 20)

    def test_activation_restores_previous(self):
        with Collector() as outer:
            assert active_collector() is outer
            with Collector() as inner:
                assert active_collector() is inner
                with span("s"):
                    pass
            assert active_collector() is outer
        assert active_collector() is None
        assert [s.name for s in inner.spans] == ["s"]
        assert outer.spans == []

    def test_mb_per_s(self):
        with Collector() as col, span("compress"):
            with span("s", bytes=10_000_000):
                pass
        rec = _stage_table(col.spans)["s"]
        assert rec["bytes"] == 10_000_000
        assert rec["mb_per_s"] >= 0.0

    def test_median_stages(self):
        tables = []
        for nb in (10, 20, 30):
            with Collector() as col, span("compress"):
                with span("s", bytes=nb):
                    pass
                if nb == 30:
                    with span("only-last"):
                        pass
            tables.append(_stage_table(col.spans))
        med = _median_stages(tables)
        assert med["s"]["bytes"] == 20
        assert med["s"]["calls"] == 1
        assert med["only-last"]["calls"] == 1  # over the repeats that saw it

    def test_exception_still_records(self):
        with Collector() as col:
            with span("compress"):
                with pytest.raises(RuntimeError):
                    with span("boom"):
                        raise RuntimeError("x")
        assert _stage_table(col.spans)["boom"]["calls"] == 1
        assert col._stack == []


class TestPipelineInstrumentation:
    def test_compress_decompress_emit_stages(self):
        from repro.core import compress, decompress

        field = synth_field(SCALES["tiny"][2], "float32", seed=1)
        with Collector() as col:
            blob = compress(field, mode="rel", bound=1e-3)
            first = len(col.spans)
            decompress(blob)
        # one root span per operation
        assert [s.name for s in col.spans if s.parent < 0] == [
            "compress", "decompress",
        ]
        ct = _stage_table(col.spans[:first])
        dt = _stage_table(col.spans, first)
        for key in ("quantize", "entropy", "entropy/huffman_encode",
                    "unpredictable", "container_write"):
            assert key in ct, f"missing compress stage {key}"
        for key in ("container_read", "entropy", "entropy/huffman_decode",
                    "dequantize", "unpredictable"):
            assert key in dt, f"missing decompress stage {key}"


class TestBenchStageTable:
    def test_stage_paths_and_calls_match_baseline(self):
        # The gate skips stages under its 5 ms floor, so a renamed or
        # dropped stage there would pass it; pin every path and count.
        def calls(case, side):
            return {p: rec["calls"] for p, rec in case[side]["stages"].items()}

        with open(BASELINE) as fh:
            baseline = {c["name"]: c for c in json.load(fh)["cases"]}
        report = bench_report(scale="tiny", repeats=1)
        assert sorted(c["name"] for c in report["cases"]) == sorted(baseline)
        for case in report["cases"]:
            for side in ("compress", "decompress"):
                want = calls(baseline[case["name"]], side)
                assert calls(case, side) == want, (case["name"], side)

    def test_trace_holds_the_timed_repeats(self):
        # The timed repeats record into the active collector: a --trace
        # report holds exactly the spans the stage table counts.
        with Collector() as col:
            report = bench_report(scale="tiny", repeats=2, only=("3d-f32-rel",))
        stages = report["cases"][0]["compress"]["stages"]
        quantize = [s for s in col.spans if s.name == "quantize"]
        assert len(quantize) == 2 * stages["quantize"]["calls"] > 0
        assert sum(s.parent < 0 for s in col.spans) == 4  # 2 x (enc, dec)


def _tiny_report(**kw):
    kw.setdefault("scale", "tiny")
    kw.setdefault("repeats", 1)
    kw.setdefault("only", ("1d-f32-abs", "2d-f32-rel"))
    return bench_report(**kw)


def _strip_volatile(report: dict) -> dict:
    out = json.loads(json.dumps(report))  # deep copy via round-trip
    out.pop("created_unix")
    out.pop("calibration_seconds")
    def scrub(stages):
        for rec in stages.values():
            rec.pop("seconds")
            rec.pop("mb_per_s")
    for case in out["cases"]:
        for side in ("compress", "decompress"):
            case[side].pop("seconds")
            case[side].pop("mb_per_s")
            scrub(case[side]["stages"])
    return out


class TestBenchReport:
    def test_schema_and_json_roundtrip(self):
        report = _tiny_report()
        validate_report(report)
        assert report["schema"] == SCHEMA
        back = json.loads(json.dumps(report))
        validate_report(back)
        assert back["cases"][0]["name"] == report["cases"][0]["name"]

    def test_required_keys_enforced(self):
        report = _tiny_report()
        broken = copy.deepcopy(report)
        del broken["calibration_seconds"]
        with pytest.raises(ValueError, match="calibration_seconds"):
            validate_report(broken)
        broken = copy.deepcopy(report)
        del broken["cases"][0]["compress"]["stages"]
        with pytest.raises(ValueError, match="stages"):
            validate_report(broken)
        with pytest.raises(ValueError, match="schema"):
            validate_report({"schema": "other/9"})

    def test_determinism_modulo_timings(self):
        a = _strip_volatile(_tiny_report())
        b = _strip_volatile(_tiny_report())
        assert a == b

    def test_case_shape_matches_scale(self):
        report = _tiny_report(only=("3d-f64-rel",))
        case = report["cases"][0]
        assert case["shape"] == list(SCALES["tiny"][3])
        assert case["dtype"] == "float64"
        assert case["mode"] == "rel"
        assert case["compressed_bytes"] < case["n_bytes"]

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError, match="scale"):
            bench_report(scale="galactic")
        with pytest.raises(ValueError, match="mode"):
            bench_report(scale="tiny", modes=("warp",))
        with pytest.raises(ValueError, match="repeats"):
            bench_report(scale="tiny", repeats=0)

    def test_calibration_positive(self):
        assert calibrate(repeats=1) > 0.0

    def test_synth_field_deterministic(self):
        a = synth_field((8, 9), "float32", seed=2)
        b = synth_field((8, 9), "float32", seed=2)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.float32


class TestPerfGate:
    @pytest.fixture(scope="class")
    def baseline(self):
        return _tiny_report()

    def test_identical_reports_pass(self, baseline):
        assert compare_reports(baseline, copy.deepcopy(baseline)) == []

    def test_slow_stage_fails(self, baseline):
        fresh = copy.deepcopy(baseline)
        case = fresh["cases"][0]
        case["compress"]["seconds"] *= 10.0
        for rec in case["compress"]["stages"].values():
            rec["seconds"] *= 10.0
        regressions = compare_reports(
            baseline, fresh, tolerance=1.5, floor_seconds=0.0
        )
        metrics = {r["metric"] for r in regressions}
        assert "compress" in metrics
        assert all(r["slowdown"] > 1.5 for r in regressions)

    def test_within_tolerance_passes(self, baseline):
        fresh = copy.deepcopy(baseline)
        for case in fresh["cases"]:
            case["compress"]["seconds"] *= 1.2
            case["decompress"]["seconds"] *= 1.2
        assert compare_reports(baseline, fresh, tolerance=1.5) == []

    def test_missing_case_fails(self, baseline):
        fresh = copy.deepcopy(baseline)
        fresh["cases"] = fresh["cases"][1:]
        regressions = compare_reports(baseline, fresh)
        assert any(r["metric"] == "missing" for r in regressions)

    def test_missing_stage_fails(self, baseline):
        # Removing instrumentation must not pass vacuously.
        fresh = copy.deepcopy(baseline)
        case = fresh["cases"][0]
        case["compress"]["stages"].pop("quantize")
        regressions = compare_reports(baseline, fresh, floor_seconds=0.0)
        assert any(
            "quantize (stage missing)" in r["metric"] for r in regressions
        )

    def test_calibration_normalizes_slow_machine(self, baseline):
        # Everything (workload and calibration) 3x slower: same machine
        # speed ratio, so nothing really regressed.
        fresh = copy.deepcopy(baseline)
        fresh["calibration_seconds"] *= 3.0
        for case in fresh["cases"]:
            for side in ("compress", "decompress"):
                case[side]["seconds"] *= 3.0
                for rec in case[side]["stages"].values():
                    rec["seconds"] *= 3.0
        assert compare_reports(baseline, fresh, tolerance=1.5) == []
        # ... but with normalization off the same reports fail.
        assert compare_reports(
            baseline, fresh, tolerance=1.5, normalize=False,
            floor_seconds=0.0,
        ) != []

    def test_noise_floor_skips_tiny_stages(self, baseline):
        fresh = copy.deepcopy(baseline)
        for case in fresh["cases"]:
            for side in ("compress", "decompress"):
                case[side]["seconds"] *= 100.0
                for rec in case[side]["stages"].values():
                    rec["seconds"] *= 100.0
        assert compare_reports(baseline, fresh, floor_seconds=1e9) == []

    def test_committed_baseline_is_valid(self):
        with open(BASELINE) as fh:
            report = json.load(fh)
        validate_report(report)
        # The CI gate pins these stages on the fresh report; the
        # committed baseline must carry them too or a refresh would
        # immediately lose the coverage the pin exists to protect.
        assert missing_required_stages(
            report,
            [
                "3d-f32-rel:decompress:entropy/huffman_decode",
                "3d-f32-rel:compress:entropy/huffman_encode",
            ],
        ) == []


class TestRequiredStages:
    @pytest.fixture(scope="class")
    def report(self):
        return _tiny_report()

    def test_present_stage_passes(self, report):
        case = report["cases"][0]["name"]
        stage = next(iter(report["cases"][0]["decompress"]["stages"]))
        spec = f"{case}:decompress:{stage}"
        assert missing_required_stages(report, [spec]) == []

    def test_absent_stage_or_case_is_reported(self, report):
        case = report["cases"][0]["name"]
        specs = [
            f"{case}:decompress:no/such/stage",
            "9d-f32-new:compress:quantize",
        ]
        assert missing_required_stages(report, specs) == specs

    def test_bad_spec_raises(self, report):
        with pytest.raises(ValueError, match="require-stage"):
            missing_required_stages(report, ["just-a-case-name"])
        with pytest.raises(ValueError, match="require-stage"):
            missing_required_stages(report, ["case:sideways:stage"])

    def test_cli_fails_on_missing_required_stage(self, report, tmp_path):
        from repro.perf.gate import main as gate_main

        base = tmp_path / "base.json"
        base.write_text(json.dumps(report))
        case = report["cases"][0]["name"]
        ok = gate_main(
            [
                str(base),
                str(base),
                "--require-stage",
                f"{case}:decompress:"
                + next(iter(report["cases"][0]["decompress"]["stages"])),
            ]
        )
        assert ok == 0
        bad = gate_main(
            [str(base), str(base), "--require-stage", f"{case}:decompress:gone"]
        )
        assert bad == 1


class TestStageCoverageNotes:
    @pytest.fixture(scope="class")
    def baseline(self):
        return _tiny_report()

    def test_clean_reports_produce_no_notes(self, baseline):
        assert stage_coverage_notes(baseline, copy.deepcopy(baseline)) == []

    def test_empty_fresh_stages_noted(self, baseline):
        fresh = copy.deepcopy(baseline)
        fresh["cases"][0]["compress"]["stages"] = {}
        notes = stage_coverage_notes(baseline, fresh)
        assert len(notes) == 1
        assert "instrumentation may have been lost" in notes[0]
        assert fresh["cases"][0]["name"] in notes[0]

    def test_empty_baseline_stages_noted(self, baseline):
        sparse = copy.deepcopy(baseline)
        sparse["cases"][0]["decompress"]["stages"] = {}
        notes = stage_coverage_notes(sparse, copy.deepcopy(baseline))
        assert len(notes) == 1
        assert "re-baseline" in notes[0]

    def test_empty_on_both_sides_noted(self, baseline):
        sparse = copy.deepcopy(baseline)
        sparse["cases"][0]["compress"]["stages"] = {}
        notes = stage_coverage_notes(sparse, copy.deepcopy(sparse))
        assert len(notes) == 1
        assert "only end-to-end seconds were compared" in notes[0]

    def test_extra_fresh_case_noted(self, baseline):
        fresh = copy.deepcopy(baseline)
        extra = copy.deepcopy(fresh["cases"][0])
        extra["name"] = "9d-f32-new"
        fresh["cases"].append(extra)
        notes = stage_coverage_notes(baseline, fresh)
        assert notes == ["9d-f32-new: not in baseline — uncovered by the gate"]

    def test_notes_do_not_fail_the_gate(self, baseline):
        # Notes are advisory: an empty stages map alone is not a
        # regression (compare_reports handles per-stage loss itself).
        fresh = copy.deepcopy(baseline)
        for case in fresh["cases"]:
            case["compress"]["stages"] = {}
            case["decompress"]["stages"] = {}
        sparse = copy.deepcopy(fresh)
        assert compare_reports(sparse, fresh) == []
        assert stage_coverage_notes(sparse, fresh) != []


class TestBenchObsMetrics:
    def test_cases_carry_deterministic_obs_metrics(self):
        a = _tiny_report(only=("1d-f32-abs",))
        b = _tiny_report(only=("1d-f32-abs",))
        obs = a["cases"][0]["obs"]
        assert obs["counters"]["compress/calls"] >= 1
        assert obs["counters"]["quantize/values"] > 0
        assert "compress/factor" in obs["observations"]
        assert sum(obs["histograms"]["huffman/code_lengths"]) > 0
        # seeded field -> identical telemetry across runs
        assert obs == b["cases"][0]["obs"]
