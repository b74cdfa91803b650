"""Tests for archives, quality reports, and per-frame tiling of stacks."""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.metrics.report import evaluate
from repro.parallel.files import (
    archive_info,
    create_archive,
    extract,
    extract_all,
    extract_region,
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

    @pytest.mark.parametrize(
        "forged",
        [
            b"SZAR",
            b"SZAR\x01" + (2**32 - 1).to_bytes(4, "big"),
            b"SZAR\x01" + (1).to_bytes(4, "big") + b"\x00\x09name\x00\x00",
            b"SZAR\x01" + (1).to_bytes(4, "big") + b"\x00\x01n" + bytes(5),
        ],
        ids=["short-header", "forged-count", "name-overrun", "length-overrun"],
    )
    def test_forged_manifest_raises_promptly(self, forged):
        # Empty slices past the end read as zero-length entries, so an
        # unchecked count loops once per claimed entry.
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            read_manifest(forged)
        with pytest.raises(ValueError):
            archive_info(forged)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize(
        "reader",
        [
            lambda a: extract(a, "temp"),
            lambda a: extract_all(a),
            lambda a: extract_region(a, "temp", (slice(0, 2),)),
        ],
        ids=["extract", "extract_all", "extract_region"],
    )
    def test_forged_count_fails_every_reader(self, reader):
        forged = b"SZAR\x01" + (2**32 - 1).to_bytes(4, "big")
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="entry count"):
            reader(forged)
        assert time.perf_counter() - t0 < 0.5

    def test_every_truncation_raises_value_error(self, bundle):
        # Header, manifest and payload cuts all fail the same way, never
        # with an IndexError or a half-read name.
        archive = create_archive(arrays=bundle, mode="rel", bound=1e-3)
        for cut in range(len(archive)):
            with pytest.raises(ValueError):
                read_manifest(archive[:cut])

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
    def independent_slices(self):
        """Stack of mutually independent smooth frames (detector frames,
        ensemble members): the case where cross-slice prediction hurts."""
        from repro.datasets.fields import gaussian_random_field

        frames = [
            gaussian_random_field((64, 64), beta=4.0, seed=100 + i)
            for i in range(8)
        ]
        return np.stack(frames).astype(np.float32)

    def test_slicing_beats_full_d_on_independent_frames(self, independent_slices):
        # One tile per frame predicts each frame in 2-D only.  The bound
        # is absolute: tiled ``rel`` would resolve each tile's own range.
        frames = independent_slices
        eb = 1e-3 * float(frames.max() - frames.min())
        naive = repro.compress(frames, mode="abs", bound=eb)
        sliced = repro.compress_tiled(
            frames, tile_shape=(1, 64, 64), mode="abs", bound=eb
        )
        assert len(sliced) < len(naive)
        out = repro.decompress_tiled(sliced)
        err = np.abs(out.astype(np.float64) - frames.astype(np.float64))
        assert err.max() <= eb
