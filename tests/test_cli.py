"""Tests for the repro-sz command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SZConfig
from repro.chunked import compress_tiled
from repro.cli import main
from repro.core import ErrorBound, compress


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table2", "fig6", "fig10", "table8"):
            assert name in out


class TestRun:
    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "table3", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out and "ATM" in out

    def test_run_model_experiment(self, capsys):
        assert main(["run", "table7"]) == 0
        out = capsys.readouterr().out
        assert "1024" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])


class TestCompressDecompress:
    def test_roundtrip_via_files(self, tmp_path, capsys, smooth2d):
        src = tmp_path / "field.npy"
        comp = tmp_path / "field.sz"
        dst = tmp_path / "restored.npy"
        np.save(src, smooth2d)
        assert main(["compress", str(src), str(comp), "--rel", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "CF" in out
        assert main(["decompress", str(comp), str(dst)]) == 0
        restored = np.load(dst)
        eb = 1e-3 * float(smooth2d.max() - smooth2d.min())
        assert np.abs(restored - smooth2d).max() <= eb

    def test_abs_bound_and_options(self, tmp_path, smooth2d):
        src = tmp_path / "f.npy"
        comp = tmp_path / "f.sz"
        np.save(src, smooth2d)
        assert main([
            "compress", str(src), str(comp),
            "--abs", "0.01", "--layers", "2", "--bits", "10", "--adaptive",
        ]) == 0
        dst = tmp_path / "r.npy"
        assert main(["decompress", str(comp), str(dst)]) == 0
        assert np.abs(np.load(dst) - smooth2d).max() <= 0.01

    @pytest.mark.parametrize("tile", [None, "16,20"])
    @pytest.mark.parametrize("abs_b,rel_b", [("1e-3", "1e-2"), ("1.0", "1e-5")])
    def test_combined_abs_rel_pair_matches_library(
        self, tmp_path, smooth2d, tile, abs_b, rel_b
    ):
        # --abs with --rel is the CLI's spelling of the combined pair
        # (the tighter bound wins): it must write exactly the bytes of
        # the library's ErrorBound.from_args(abs_bound=, rel_bound=).
        src = tmp_path / "p.npy"
        comp = tmp_path / "p.sz"
        np.save(src, smooth2d)
        argv = ["compress", str(src), str(comp), "--abs", abs_b, "--rel", rel_b]
        if tile is not None:
            argv += ["--tile", tile]
        assert main(argv) == 0
        config = SZConfig(
            ErrorBound.from_args(abs_bound=float(abs_b), rel_bound=float(rel_b))
        )
        expected = (
            compress(smooth2d, config=config)
            if tile is None
            else compress_tiled(smooth2d, tile_shape=(16, 20), config=config)
        )
        assert comp.read_bytes() == expected

    def test_default_bound_applied(self, tmp_path, smooth2d):
        src = tmp_path / "g.npy"
        comp = tmp_path / "g.sz"
        np.save(src, smooth2d)
        assert main(["compress", str(src), str(comp)]) == 0  # default 1e-4
        dst = tmp_path / "h.npy"
        main(["decompress", str(comp), str(dst)])
        eb = 1e-4 * float(smooth2d.max() - smooth2d.min())
        assert np.abs(np.load(dst) - smooth2d).max() <= eb


class TestTiledCli:
    def test_tiled_roundtrip(self, tmp_path, capsys, smooth2d):
        src = tmp_path / "f.npy"
        comp = tmp_path / "f.szt"
        dst = tmp_path / "r.npy"
        np.save(src, smooth2d)
        assert main([
            "compress", str(src), str(comp),
            "--rel", "1e-3", "--tile", "16,20", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "tiles" in out
        assert main(["decompress", str(comp), str(dst)]) == 0
        restored = np.load(dst)
        eb = 1e-3 * float(smooth2d.max() - smooth2d.min())
        assert np.abs(restored - smooth2d).max() <= eb

    def test_region_extraction_tiled(self, tmp_path, smooth2d):
        src = tmp_path / "f.npy"
        comp = tmp_path / "f.szt"
        full = tmp_path / "full.npy"
        roi = tmp_path / "roi.npy"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp), "--rel", "1e-3",
              "--tile", "16"])
        main(["decompress", str(comp), str(full)])
        assert main([
            "decompress", str(comp), str(roi), "--region", "5:14,60:",
        ]) == 0
        np.testing.assert_array_equal(
            np.load(roi), np.load(full)[5:14, 60:]
        )

    def test_region_extraction_v1_fallback(self, tmp_path, smooth2d):
        src = tmp_path / "f.npy"
        comp = tmp_path / "f.sz"
        roi = tmp_path / "roi.npy"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp), "--rel", "1e-3"])
        assert main([
            "decompress", str(comp), str(roi), "--region", "5:14,60:",
        ]) == 0
        assert np.load(roi).shape == (9, 4)

    def test_bad_tile_spec(self, tmp_path, smooth2d):
        src = tmp_path / "f.npy"
        np.save(src, smooth2d)
        with pytest.raises(SystemExit, match="--tile"):
            main(["compress", str(src), str(tmp_path / "o.szt"),
                  "--rel", "1e-3", "--tile", "4x4"])

    def test_bad_region_spec(self, tmp_path, smooth2d):
        src = tmp_path / "f.npy"
        comp = tmp_path / "f.szt"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp), "--rel", "1e-3",
              "--tile", "16"])
        with pytest.raises(SystemExit, match="region"):
            main(["decompress", str(comp), str(tmp_path / "r.npy"),
                  "--region", "a:b"])

    def test_cubic_tile_single_int(self, tmp_path, capsys, smooth2d):
        src = tmp_path / "f.npy"
        comp = tmp_path / "f.szt"
        np.save(src, smooth2d)
        assert main(["compress", str(src), str(comp), "--rel", "1e-3",
                     "--tile", "24"]) == 0
        capsys.readouterr()
        assert main(["info", str(comp)]) == 0
        out = capsys.readouterr().out
        assert "(24, 24)" in out


class TestModeCli:
    def test_pw_rel_end_to_end(self, tmp_path, capsys, rng):
        data = (rng.standard_normal((30, 40)) *
                10.0 ** rng.integers(-5, 5, (30, 40))).astype(np.float64)
        src = tmp_path / "w.npy"
        comp = tmp_path / "w.sz"
        dst = tmp_path / "w_out.npy"
        np.save(src, data)
        assert main(["compress", str(src), str(comp),
                     "--mode", "pw_rel", "--bound", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "mode pw_rel" in out
        assert main(["decompress", str(comp), str(dst)]) == 0
        restored = np.load(dst)
        nz = data != 0
        rel_err = np.abs(restored[nz] - data[nz]) / np.abs(data[nz])
        assert rel_err.max() <= 1e-3

    def test_psnr_end_to_end(self, tmp_path, smooth2d):
        from repro.metrics import psnr

        src = tmp_path / "p.npy"
        comp = tmp_path / "p.sz"
        dst = tmp_path / "p_out.npy"
        np.save(src, smooth2d)
        assert main(["compress", str(src), str(comp),
                     "--mode", "psnr", "--bound", "66"]) == 0
        assert main(["decompress", str(comp), str(dst)]) == 0
        assert psnr(smooth2d, np.load(dst)) >= 66.0

    def test_info_reports_mode(self, tmp_path, capsys, smooth2d):
        src = tmp_path / "m.npy"
        comp = tmp_path / "m.sz"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp),
              "--mode", "pw_rel", "--bound", "1e-3"])
        capsys.readouterr()
        assert main(["info", str(comp)]) == 0
        out = capsys.readouterr().out
        assert "pw_rel" in out and "0.001" in out

    def test_info_reports_mode_tiled(self, tmp_path, capsys, smooth2d):
        src = tmp_path / "mt.npy"
        comp = tmp_path / "mt.szt"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp),
              "--mode", "psnr", "--bound", "70", "--tile", "16"])
        capsys.readouterr()
        assert main(["info", str(comp)]) == 0
        out = capsys.readouterr().out
        assert "tiled-v3" in out and "psnr" in out and "70" in out

    def test_tiled_pw_rel_region(self, tmp_path, smooth2d):
        src = tmp_path / "tr.npy"
        comp = tmp_path / "tr.szt"
        roi = tmp_path / "tr_roi.npy"
        full = tmp_path / "tr_full.npy"
        np.save(src, smooth2d)
        assert main(["compress", str(src), str(comp),
                     "--mode", "pw_rel", "--bound", "1e-3",
                     "--tile", "16"]) == 0
        main(["decompress", str(comp), str(full)])
        assert main(["decompress", str(comp), str(roi),
                     "--region", "5:14,60:"]) == 0
        np.testing.assert_array_equal(
            np.load(roi), np.load(full)[5:14, 60:]
        )

    def test_mode_without_bound_rejected(self, tmp_path, smooth2d):
        src = tmp_path / "x.npy"
        np.save(src, smooth2d)
        with pytest.raises(SystemExit, match="--bound"):
            main(["compress", str(src), str(tmp_path / "x.sz"),
                  "--mode", "psnr"])

    def test_mode_and_legacy_bound_rejected(self, tmp_path, smooth2d):
        src = tmp_path / "y.npy"
        np.save(src, smooth2d)
        with pytest.raises(SystemExit, match="exclusive"):
            main(["compress", str(src), str(tmp_path / "y.sz"),
                  "--mode", "abs", "--bound", "0.1", "--rel", "1e-3"])

    def test_bound_without_mode_rejected(self, tmp_path, smooth2d):
        src = tmp_path / "z.npy"
        np.save(src, smooth2d)
        with pytest.raises(SystemExit, match="--mode"):
            main(["compress", str(src), str(tmp_path / "z.sz"),
                  "--bound", "1e-3"])


class TestInfo:
    def test_info_prints_header(self, tmp_path, capsys, smooth2d):
        src = tmp_path / "f.npy"
        comp = tmp_path / "f.sz"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp), "--rel", "1e-3"])
        capsys.readouterr()
        assert main(["info", str(comp)]) == 0
        out = capsys.readouterr().out
        assert "float32" in out and "interval_bits" in out

    def test_info_tiled_container(self, tmp_path, capsys, smooth2d):
        src = tmp_path / "f.npy"
        comp = tmp_path / "f.szt"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp), "--rel", "1e-3",
              "--tile", "16"])
        capsys.readouterr()
        assert main(["info", str(comp)]) == 0
        out = capsys.readouterr().out
        assert "tiled-v2" in out
        assert "n_tiles" in out
        assert "tile CF" in out and "tile hit rate" in out

    def test_info_json_v1(self, tmp_path, capsys, smooth2d):
        import json as _json

        src = tmp_path / "f.npy"
        comp = tmp_path / "f.sz"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp), "--mode", "abs",
              "--bound", "0.01"])
        capsys.readouterr()
        assert main(["info", "--json", str(comp)]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["file"] == str(comp)
        assert report["dtype"] == "float32" and report["mode"] == "abs"
        # the embedded config is a valid SZConfig.to_dict() payload
        from repro.api import SZConfig

        cfg = SZConfig.from_dict(report["config"])
        assert cfg.mode == "abs" and cfg.bound == 0.01

    def test_info_json_tiled(self, tmp_path, capsys, smooth2d):
        import json as _json

        src = tmp_path / "f.npy"
        comp = tmp_path / "f.szt"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp), "--mode", "pw_rel",
              "--bound", "1e-3", "--tile", "16"])
        capsys.readouterr()
        assert main(["info", "--json", str(comp)]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["format"] == "tiled-v3"
        assert report["config"]["mode"] == "pw_rel"
        assert report["config"]["bound"] == 1e-3
        assert report["config"]["tile_shape"] == [16, 16]
        assert isinstance(report["tile_bytes"], list)


class TestVersionFlag:
    def test_version_exits_zero_and_prints(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestAblation:
    def test_ablation_entropy(self, capsys):
        assert main(["ablation", "entropy", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Huffman" in out and "arithmetic" in out

    def test_ablation_tiles(self, capsys):
        assert main(["ablation", "tiles", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "whole array (v1)" in out and "roi_read" in out

    def test_ablation_modes(self, capsys):
        assert main(["ablation", "modes", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        for mode in ("abs", "rel", "pw_rel", "psnr"):
            assert mode in out
        assert "bound_held" in out and "False" not in out


class TestEstimateCli:
    def test_estimate_npy(self, tmp_path, capsys, smooth2d):
        src = tmp_path / "f.npy"
        np.save(src, smooth2d)
        assert main(["estimate", str(src), "--mode", "rel",
                     "--bound", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "predicted ratio" in out and "sampled" in out

    def test_estimate_json_matches_real_ratio(self, tmp_path, capsys, smooth2d):
        import json as _json

        src = tmp_path / "f.npy"
        comp = tmp_path / "f.sz"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp), "--mode", "rel",
              "--bound", "1e-3"])
        capsys.readouterr()
        assert main(["estimate", str(src), "--mode", "rel", "--bound", "1e-3",
                     "--fraction", "0.3", "--json"]) == 0
        est = _json.loads(capsys.readouterr().out)
        actual = smooth2d.nbytes / comp.stat().st_size
        assert est["method"] == "sampled"
        assert abs(est["ratio"] / actual - 1.0) <= 0.15
        assert est["ratio_low"] <= est["ratio"] <= est["ratio_high"]

    def test_estimate_container_as_is(self, tmp_path, capsys, smooth2d):
        import json as _json

        src = tmp_path / "f.npy"
        comp = tmp_path / "f.szt"
        np.save(src, smooth2d)
        main(["compress", str(src), str(comp), "--mode", "rel",
              "--bound", "1e-3", "--tile", "16"])
        capsys.readouterr()
        assert main(["estimate", str(comp), "--json"]) == 0
        est = _json.loads(capsys.readouterr().out)
        assert est["method"] == "footer"
        assert est["ratio"] == pytest.approx(
            smooth2d.nbytes / comp.stat().st_size
        )

    def test_estimate_mode_requires_bound(self, tmp_path, smooth2d):
        src = tmp_path / "f.npy"
        np.save(src, smooth2d)
        with pytest.raises(SystemExit):
            main(["estimate", str(src), "--mode", "rel"])


class TestTuneCli:
    def test_tune_hits_target_ratio(self, tmp_path, capsys, smooth2d):
        import json as _json

        src = tmp_path / "f.npy"
        np.save(src, smooth2d)
        assert main(["tune", str(src), "--target-ratio", "6",
                     "--fraction", "0.3", "--verify", "--json"]) == 0
        rep = _json.loads(capsys.readouterr().out)
        assert rep["converged"] is True
        assert rep["actual_ratio"] is not None
        assert abs(rep["actual_ratio"] / 6.0 - 1.0) <= 0.10
        assert rep["n_trials"] == len(rep["trials"]) >= 1

    def test_tune_prints_trials(self, tmp_path, capsys, smooth2d):
        src = tmp_path / "f.npy"
        np.save(src, smooth2d)
        assert main(["tune", str(src), "--target-ratio", "6",
                     "--fraction", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "trial" in out and "converged" in out

    def test_tune_requires_exactly_one_target(self, tmp_path, smooth2d):
        src = tmp_path / "f.npy"
        np.save(src, smooth2d)
        with pytest.raises(SystemExit):
            main(["tune", str(src)])
        with pytest.raises(SystemExit):
            main(["tune", str(src), "--target-ratio", "6",
                  "--target-psnr", "60"])


class TestConstantContainerInfo:
    def test_info_json_constant_keeps_config(self, tmp_path, capsys):
        """A constant field's container must still report the requested
        mode/bound so the tuner can seed a search from it."""
        import json as _json

        data = np.full((64, 64), 2.5, dtype=np.float32)
        src = tmp_path / "c.npy"
        comp = tmp_path / "c.sz"
        np.save(src, data)
        main(["compress", str(src), str(comp), "--mode", "rel",
              "--bound", "1e-3"])
        capsys.readouterr()
        assert main(["info", "--json", str(comp)]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["constant"] is True
        from repro.api import SZConfig

        cfg = SZConfig.from_dict(report["config"])
        assert cfg.mode == "rel" and cfg.bound == 1e-3

    def test_constant_roundtrip_still_exact(self, tmp_path, capsys):
        data = np.full((48, 32), -1.5, dtype=np.float64)
        src = tmp_path / "c.npy"
        comp = tmp_path / "c.sz"
        dst = tmp_path / "c_out.npy"
        np.save(src, data)
        main(["compress", str(src), str(comp), "--mode", "rel",
              "--bound", "1e-3"])
        assert main(["decompress", str(comp), str(dst)]) == 0
        np.testing.assert_array_equal(np.load(dst), data)
