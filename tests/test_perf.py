"""Tests for the perf subsystem: span-derived stage table, bench schema, CI gate."""

from __future__ import annotations

import copy
import json
from pathlib import Path
from statistics import median

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
    synth_field,
    validate_report,
)
from repro.perf import gate
from repro.perf.gate import (
    compare_rounds,
    missing_required_stages,
    stage_coverage_notes,
)

BENCH_MICRO = Path(__file__).parent.parent / "BENCH_micro.json"


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
        # dropped stage there would pass it; pin every path and count
        # against the committed trajectory point (its calls do not
        # depend on the scale).  It carries ``calibration_seconds``, as
        # a base tree's reports may, and must still validate.
        def calls(case, side):
            return {p: rec["calls"] for p, rec in case[side]["stages"].items()}

        with open(BENCH_MICRO) as fh:
            micro = json.load(fh)
        validate_report(micro)
        baseline = {c["name"]: c for c in micro["cases"]}
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
        del broken["cases"][0]["compress"]["stages"]
        with pytest.raises(ValueError, match="stages"):
            validate_report(broken)
        with pytest.raises(ValueError, match="schema"):
            validate_report({"schema": "other/9"})

    def test_reports_with_calibration_still_validate(self):
        # Bench no longer writes ``calibration_seconds``; a base tree
        # from before that still does, and its reports stay readable.
        report = _tiny_report()
        assert "calibration_seconds" not in report
        validate_report({**report, "calibration_seconds": 0.25})

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

    def test_synth_field_deterministic(self):
        a = synth_field((8, 9), "float32", seed=2)
        b = synth_field((8, 9), "float32", seed=2)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.float32


def _timed(report: dict, seconds: float) -> dict:
    """A copy of ``report`` with every time set to ``seconds``."""
    out = copy.deepcopy(report)
    for case in out["cases"]:
        for side in ("compress", "decompress"):
            case[side]["seconds"] = seconds
            for rec in case[side]["stages"].values():
                rec["seconds"] = seconds
    return out


def _slowed(report: dict, factor: float, metric: str | None = None) -> dict:
    """A copy of ``report`` with the first case's ``metric`` (every
    metric of every case when ``None``) ``factor`` times slower."""
    out = copy.deepcopy(report)
    for case in out["cases"] if metric is None else out["cases"][:1]:
        for side in ("compress", "decompress"):
            if metric in (None, side):
                case[side]["seconds"] *= factor
            for path, rec in case[side]["stages"].items():
                if metric in (None, f"{side}:{path}"):
                    rec["seconds"] *= factor
    return out


class TestPerfGate:
    @pytest.fixture(scope="class")
    def base(self):
        # Every metric at 10 ms, above the 5 ms floor, in each of 5 rounds.
        report = _timed(_tiny_report(), 0.01)
        return [copy.deepcopy(report) for _ in range(5)]

    def test_identical_rounds_pass(self, base):
        assert compare_rounds(base, copy.deepcopy(base)) == []

    def test_slow_stage_fails(self, base):
        change = [_slowed(r, 1.6, "compress:quantize") for r in base]
        regressions = compare_rounds(base, change, tolerance=1.5)
        assert [(r["case"], r["metric"]) for r in regressions] == [
            (base[0]["cases"][0]["name"], "compress:quantize")
        ]
        assert regressions[0]["ratio"] == pytest.approx(1.6)
        assert regressions[0]["base_seconds"] == pytest.approx(0.01)
        assert regressions[0]["change_seconds"] == pytest.approx(0.016)

    def test_within_tolerance_passes(self, base):
        change = [_slowed(r, 1.2) for r in base]
        assert compare_rounds(base, change, tolerance=1.5) == []

    def test_one_slow_round_in_five_passes(self, base):
        # A slow spell on a shared host hits one round; the median of
        # the paired ratios ignores it.
        change = copy.deepcopy(base)
        change[2] = _slowed(change[2], 3.0)
        assert compare_rounds(base, change) == []
        change[0] = _slowed(change[0], 3.0)
        change[4] = _slowed(change[4], 3.0)
        assert compare_rounds(base, change) != []

    def test_slow_spells_on_both_sides_cancel(self, base):
        # Rounds 1-2 run on a host twice as slow for both sides; round 3
        # is slow for the change alone.  Every other pair reads 1.2x,
        # while the ratio of the per-side medians would read 2.4x.
        spells = [1.0, 2.0, 2.0, 1.0, 1.0]
        change_only = [1.0, 1.0, 1.0, 2.0, 1.0]
        slow_base = [_slowed(r, s) for r, s in zip(base, spells)]
        change = [
            _slowed(r, 1.2 * s * c) for r, s, c in zip(base, spells, change_only)
        ]
        assert median(
            r["cases"][0]["compress"]["seconds"] for r in change
        ) / median(
            r["cases"][0]["compress"]["seconds"] for r in slow_base
        ) == pytest.approx(2.4)
        assert compare_rounds(slow_base, change) == []
        assert compare_rounds(slow_base, change, tolerance=1.1) != []

    def test_case_only_in_change_is_not_compared(self, base):
        # A new case has nothing to regress against; the coverage notes
        # name it instead.
        change = copy.deepcopy(base)
        for r in change:
            extra = copy.deepcopy(r["cases"][0])
            extra["name"] = "9d-f32-new"
            r["cases"].append(extra)
        assert compare_rounds(base, change) == []

    def test_invalid_round_rejected(self, base):
        change = copy.deepcopy(base)
        del change[2]["cases"][0]["decompress"]["stages"]
        with pytest.raises(ValueError, match="stages"):
            compare_rounds(base, change)

    def test_missing_case_fails(self, base):
        change = copy.deepcopy(base)
        lost = change[3]["cases"].pop(0)["name"]
        regressions = compare_rounds(base, change)
        assert [(r["case"], r["metric"]) for r in regressions] == [
            (lost, "missing")
        ]

    def test_missing_stage_fails(self, base):
        # Removing instrumentation must not pass vacuously.
        change = copy.deepcopy(base)
        change[1]["cases"][0]["compress"]["stages"].pop("quantize")
        regressions = compare_rounds(base, change)
        assert [r["metric"] for r in regressions] == [
            "compress:quantize (missing)"
        ]
        assert regressions[0]["ratio"] == float("inf")

    def test_floor_skips_small_stages(self, base):
        fast = [_timed(r, 1e-3) for r in base]
        change = [_slowed(r, 100.0) for r in fast]
        assert compare_rounds(fast, change) == []
        for r in change:
            r["cases"][0]["compress"]["stages"].pop("quantize")
        assert compare_rounds(fast, change) == []
        assert compare_rounds(fast, change, floor_seconds=0.0) != []

    def test_round_counts_must_match(self, base):
        with pytest.raises(ValueError, match="rounds"):
            compare_rounds(base, base[:4])
        with pytest.raises(ValueError, match="rounds"):
            compare_rounds([], [])


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


class TestGateCLI:
    @pytest.fixture()
    def run(self, monkeypatch, tmp_path, capsys):
        """``gate.main`` over canned rounds instead of bench sweeps.

        Returns the exit code, the sweeps in the order they ran and the
        printed output.
        """
        base_src = tmp_path / "base"
        (base_src / "repro").mkdir(parents=True)
        (base_src / "repro" / "__init__.py").write_text("")
        monkeypatch.chdir(tmp_path)

        def run(base, change, *args):
            feeds = {"base": iter(base), "change": iter(change)}
            sweeps = []

            def sweep(src, out):
                side = "change" if src == gate.CHANGE_SRC else "base"
                assert out.parent == (tmp_path / "perf_gate").resolve()
                sweeps.append(out.name)
                return copy.deepcopy(next(feeds[side]))

            monkeypatch.setattr(gate, "_sweep", sweep)
            code = gate.main([str(base_src), *args])
            return code, sweeps, capsys.readouterr().out

        return run

    @pytest.fixture(scope="class")
    def base(self):
        report = _timed(_tiny_report(), 0.01)
        return [copy.deepcopy(report) for _ in range(gate.ROUNDS)]

    def test_unchanged_tree_passes_in_alternating_rounds(self, run, base):
        code, sweeps, out = run(base, copy.deepcopy(base))
        assert code == 0, out
        assert "OK" in out
        assert len(sweeps) == 2 * gate.ROUNDS
        assert sweeps[:6] == [
            "base-0.json", "change-0.json", "change-1.json", "base-1.json",
            "base-2.json", "change-2.json",
        ]

    def test_slowed_stage_is_named(self, run, base):
        change = [_slowed(r, 1.6, "decompress:entropy/huffman_decode") for r in base]
        code, _, out = run(base, change)
        assert code == 1
        assert "decompress:entropy/huffman_decode" in out
        assert "1.60x" in out

    def test_require_stage_checks_every_change_report(self, run, base):
        # Under the floor the ratio checks skip the stage; the
        # requirement still holds it in each round.
        fast = [_timed(r, 1e-3) for r in base]
        case = fast[0]["cases"][0]["name"]
        spec = f"{case}:decompress:entropy/huffman_decode"
        assert run(fast, copy.deepcopy(fast), "--require-stage", spec)[0] == 0
        change = copy.deepcopy(fast)
        change[3]["cases"][0]["decompress"]["stages"].pop("entropy/huffman_decode")
        code, _, out = run(fast, change, "--require-stage", spec)
        assert code == 1
        assert f"required stage absent from a change report — {spec}" in out

    def test_tolerance_and_floor_options(self, run, base):
        change = [_slowed(r, 1.6, "compress:quantize") for r in base]
        assert run(base, change)[0] == 1
        assert run(base, change, "--tolerance", "2.0")[0] == 0
        assert run(base, change, "--floor", "0.02")[0] == 0

    def test_bad_spec_fails_before_any_sweep(self, run):
        # No rounds are fed: a sweep would raise StopIteration instead.
        with pytest.raises(ValueError, match="require-stage"):
            run([], [], "--require-stage", "just-a-case-name")

    def test_base_src_must_hold_repro(self, tmp_path):
        with pytest.raises(SystemExit):
            gate.main([str(tmp_path)])


class TestSweep:
    def test_runs_the_given_tree(self, tmp_path):
        # The base side must time the base tree's bench, not this one's.
        fake = tmp_path / "fake"
        (fake / "repro" / "perf").mkdir(parents=True)
        (fake / "repro" / "__init__.py").write_text("")
        (fake / "repro" / "perf" / "__init__.py").write_text("")
        (fake / "repro" / "perf" / "bench.py").write_text(
            "import json, sys\n"
            "out = sys.argv[sys.argv.index('--out') + 1]\n"
            "with open(out, 'w') as fh:\n"
            "    json.dump({'tree': 'fake', 'args': sys.argv[1:]}, fh)\n"
        )
        out_dir = tmp_path / "perf_gate"
        out_dir.mkdir()
        out = out_dir / "base-0.json"
        report = gate._sweep(fake, out)
        assert report == {
            "tree": "fake", "args": [*gate.SWEEP_ARGS, "--out", str(out)],
        }

    def test_change_tree_report_validates(self, monkeypatch, tmp_path):
        # One repeat keeps this short; the gate itself runs five.
        monkeypatch.setattr(
            gate, "SWEEP_ARGS", ("--scale", "tiny", "--repeats", "1")
        )
        out = tmp_path / "change-0.json"
        report = gate._sweep(gate.CHANGE_SRC, out)
        validate_report(report)
        assert json.loads(out.read_text()) == report
        assert "calibration_seconds" not in report


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
        assert "base has no stage data" in notes[0]

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
        assert notes == ["9d-f32-new: not in base — uncovered by the gate"]

    def test_notes_do_not_fail_the_gate(self, baseline):
        # Notes are advisory: an empty stages map alone is not a
        # regression (compare_rounds handles per-stage loss itself).
        fresh = copy.deepcopy(baseline)
        for case in fresh["cases"]:
            case["compress"]["stages"] = {}
            case["decompress"]["stages"] = {}
        sparse = copy.deepcopy(fresh)
        assert compare_rounds([sparse], [fresh]) == []
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
