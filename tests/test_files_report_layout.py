"""Tests for archives, quality reports, and axis-layout optimization."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.layout import (
    compress_sliced,
    decompress_sliced,
    suggest_batching,
)
from repro.metrics.report import evaluate
from repro.parallel.files import (
    archive_info,
    create_archive,
    extract,
    extract_all,
    read_manifest,
)


class TestArchive:
    @pytest.fixture()
    def bundle(self, rng):
        return {
            "pressure": rng.standard_normal((20, 30)).astype(np.float32),
            "temp": (300 + rng.standard_normal((20, 30))).astype(np.float32),
            "wind": np.cumsum(rng.standard_normal(600)).reshape(20, 30).astype(np.float64),
        }

    def test_roundtrip(self, bundle):
        archive = create_archive(arrays=bundle, mode="rel", bound=1e-4)
        out = extract_all(archive)
        assert set(out) == set(bundle)
        for name, arr in bundle.items():
            rng_ = float(arr.max() - arr.min())
            assert np.abs(out[name].astype(np.float64) - arr.astype(np.float64)).max() <= 1e-4 * rng_

    def test_manifest(self, bundle):
        archive = create_archive(arrays=bundle, mode="rel", bound=1e-3)
        entries = read_manifest(archive)
        assert [e.name for e in entries] == sorted(bundle)
        assert sum(e.length for e in entries) + entries[0].offset == len(archive)

    def test_single_extract(self, bundle):
        archive = create_archive(arrays=bundle, mode="rel", bound=1e-3)
        temp = extract(archive, "temp")
        assert temp.shape == (20, 30)
        with pytest.raises(KeyError):
            extract(archive, "missing")

    def test_directory_input_and_output_file(self, bundle, tmp_path):
        for name, arr in bundle.items():
            np.save(tmp_path / f"{name}.npy", arr)
        out_file = tmp_path / "bundle.szar"
        archive = create_archive(
            directory=tmp_path, out_path=out_file, mode="rel", bound=1e-3
        )
        assert out_file.read_bytes() == archive
        assert {e.name for e in read_manifest(archive)} == set(bundle)

    def test_parallel_workers_match_serial(self, bundle):
        serial = create_archive(arrays=bundle, mode="rel", bound=1e-3, n_workers=1)
        parallel = create_archive(arrays=bundle, mode="rel", bound=1e-3, n_workers=2)
        assert serial == parallel
        out = extract_all(parallel, n_workers=2)
        assert set(out) == set(bundle)

    def test_archive_info(self, bundle):
        archive = create_archive(arrays=bundle, mode="rel", bound=1e-3)
        rows = archive_info(archive)
        assert len(rows) == 3
        for row in rows:
            assert row["cf"] > 1.0
            assert row["shape"] == (20, 30)

    def test_validation(self):
        with pytest.raises(ValueError):
            create_archive()
        with pytest.raises(ValueError):
            read_manifest(b"NOPE" + b"\x00" * 20)

    def test_truncated_archive(self, bundle):
        archive = create_archive(arrays=bundle, mode="rel", bound=1e-3)
        with pytest.raises(ValueError):
            read_manifest(archive[: len(archive) - 50])

    def test_tiled_entries(self, bundle):
        archive = create_archive(
            arrays=bundle, mode="rel", bound=1e-3, tile_shape=(8, 8)
        )
        rows = archive_info(archive)
        assert all(row["format"] == "tiled-v2" for row in rows)
        assert all(row["n_tiles"] == 12 for row in rows)
        out = extract_all(archive)
        for name, arr in bundle.items():
            rng_ = float(arr.max() - arr.min())
            err = np.abs(
                out[name].astype(np.float64) - arr.astype(np.float64)
            ).max()
            assert err <= 1e-3 * rng_

    def test_tiled_entry_region(self, bundle):
        from repro.parallel.files import extract_region

        archive = create_archive(
            arrays=bundle, mode="rel", bound=1e-3, tile_shape=(8, 8)
        )
        whole = extract(archive, "temp")
        roi = extract_region(archive, "temp", (slice(4, 12), slice(20, 30)))
        assert np.array_equal(roi, whole[4:12, 20:30])
        # v1 entries fall back to decode-then-slice
        flat = create_archive(arrays=bundle, mode="rel", bound=1e-3)
        roi_v1 = extract_region(flat, "temp", (slice(4, 12), slice(20, 30)))
        assert roi_v1.shape == (8, 10)

    def test_tiled_parallel_extract(self, bundle):
        archive = create_archive(
            arrays=bundle, mode="rel", bound=1e-3, tile_shape=(8, 8)
        )
        out = extract_all(archive, n_workers=2)
        assert set(out) == set(bundle)


class TestQualityReport:
    def test_full_report(self, smooth2d):
        rep = evaluate(
            smooth2d,
            lambda d: repro.compress(d, mode="rel", bound=1e-4),
            repro.decompress,
        )
        assert rep.within(rel_bound=1e-4)
        assert rep.compression_factor > 1
        assert rep.bit_rate * rep.compression_factor == pytest.approx(32.0)
        assert rep.five_nines
        assert rep.comp_mb_s > 0 and rep.decomp_mb_s > 0

    def test_markdown_rendering(self, smooth2d):
        rep = evaluate(
            smooth2d,
            lambda d: repro.compress(d, mode="rel", bound=1e-3),
            repro.decompress,
        )
        md = rep.to_markdown()
        assert md.startswith("| metric | value |")
        assert "PSNR" in md and "bits/value" in md

    def test_within_checks_abs(self, smooth2d):
        rep = evaluate(
            smooth2d,
            lambda d: repro.compress(d, mode="abs", bound=0.01),
            repro.decompress,
        )
        assert rep.within(abs_bound=0.01)
        assert not rep.within(abs_bound=rep.max_abs_error / 10)


class TestLayout:
    @pytest.fixture()
    def independent_slices(self, rng):
        """Stack of mutually independent smooth frames (detector frames,
        ensemble members): the case where cross-slice prediction hurts."""
        from repro.datasets.fields import gaussian_random_field

        frames = [
            gaussian_random_field((64, 64), beta=4.0, seed=100 + i)
            for i in range(8)
        ]
        return np.stack(frames).astype(np.float32)

    @pytest.fixture()
    def coherent_volume(self, rng):
        """Smoothly varying 3-D volume: full-d prediction should win."""
        z, y, x = np.mgrid[0:6, 0:32, 0:40] / 8.0
        return (np.sin(x) * np.cos(y) * np.exp(-z)).astype(np.float32)

    def test_suggests_batching_for_independent_frames(self, independent_slices):
        eb = 1e-3 * float(independent_slices.max() - independent_slices.min())
        assert suggest_batching(independent_slices, eb)

    def test_keeps_full_d_for_coherent_volume(self, coherent_volume):
        eb = 1e-3 * float(coherent_volume.max() - coherent_volume.min())
        assert not suggest_batching(coherent_volume, eb)

    def test_sliced_roundtrip_bound(self, independent_slices):
        blob = compress_sliced(independent_slices, rel_bound=1e-3)
        out = decompress_sliced(blob)
        assert out.shape == independent_slices.shape
        rng_ = float(independent_slices.max() - independent_slices.min())
        err = np.abs(
            out.astype(np.float64) - independent_slices.astype(np.float64)
        ).max()
        assert err <= 1e-3 * rng_

    def test_slicing_beats_full_d_on_independent_frames(self, independent_slices):
        naive = repro.compress(independent_slices, mode="rel", bound=1e-3)
        sliced = compress_sliced(independent_slices, rel_bound=1e-3)
        assert len(sliced) < len(naive)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            compress_sliced(rng.standard_normal(10), abs_bound=0.1)
        with pytest.raises(ValueError):
            compress_sliced(rng.standard_normal((4, 5)))
        with pytest.raises(ValueError):
            decompress_sliced(b"XXXX" + b"\x00" * 10)
        with pytest.raises(ValueError):
            suggest_batching(rng.standard_normal((4, 5)), 0.0)

    def test_corrupt_slice_count_rejected_up_front(self):
        # 12 bytes cannot hold 2**32 - 1 six-byte slice lengths: the
        # length check must fire before any per-slice loop runs.
        blob = b"SZSL" + (2**32 - 1).to_bytes(4, "big") + b"\x00" * 4
        with pytest.raises(ValueError, match="truncated"):
            decompress_sliced(blob)

    def test_1d_never_batched(self, rng):
        assert not suggest_batching(rng.standard_normal(100), 0.1)
