"""Unit tests for the error-bound mode subsystem (repro.core.bounds)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ErrorBound, compress, decompress
from repro.core.bounds import (
    psnr_fallback_bound,
    psnr_to_abs_bound,
    pw_decode_side,
    pw_encode_side,
    pw_log_bound,
    pw_precondition,
)


class TestFromArgs:
    def test_legacy_abs(self):
        spec = ErrorBound.from_args(abs_bound=0.5)
        assert spec.mode == "abs" and spec.abs_bound == 0.5

    def test_legacy_rel_and_pair(self):
        assert ErrorBound.from_args(rel_bound=1e-3).mode == "rel"
        spec = ErrorBound.from_args(abs_bound=1.0, rel_bound=1e-3)
        assert spec.abs_bound == 1.0 and spec.rel_bound == 1e-3

    def test_explicit_modes(self):
        assert ErrorBound.from_args("abs", 0.1).abs_bound == 0.1
        assert ErrorBound.from_args("rel", 1e-2).rel_bound == 1e-2
        assert ErrorBound.from_args("pw_rel", 1e-2).pw_bound == 1e-2
        assert ErrorBound.from_args("psnr", 60.0).psnr_target == 60.0

    def test_param_property(self):
        assert ErrorBound.from_args("psnr", 72.0).param == 72.0
        assert ErrorBound.from_args("pw_rel", 1e-3).param == 1e-3

    def test_missing_bound_raises(self):
        with pytest.raises(ValueError, match="requires bound"):
            ErrorBound.from_args("pw_rel")
        with pytest.raises(ValueError, match="abs_bound and/or rel_bound"):
            ErrorBound.from_args()

    def test_mode_and_legacy_exclusive(self):
        with pytest.raises(ValueError, match="exclusive"):
            ErrorBound.from_args("abs", 0.1, abs_bound=0.2)
        with pytest.raises(ValueError, match="explicit mode"):
            ErrorBound.from_args(bound=0.1)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown error-bound mode"):
            ErrorBound.from_args("nrmse", 0.1)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.0, 2.5])
    def test_pw_rel_range_enforced(self, bad):
        with pytest.raises(ValueError, match="pw_rel"):
            ErrorBound.from_args("pw_rel", bad)

    @pytest.mark.parametrize("bad", [0.0, -10.0, float("inf"), float("nan")])
    def test_psnr_target_validated(self, bad):
        with pytest.raises(ValueError, match="psnr"):
            ErrorBound.from_args("psnr", bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("mode", ["abs", "rel"])
    def test_abs_rel_bound_must_be_finite(self, mode, bad):
        with pytest.raises(ValueError, match=f"{mode} bound"):
            ErrorBound.from_args(mode, bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_pair_bounds_must_be_finite_in_either_slot(self, bad):
        """The old check accepted NaN/inf in the pair; which slot held it
        decided whether compress crashed or silently dropped it."""
        with pytest.raises(ValueError, match="rel_bound"):
            ErrorBound.from_args(abs_bound=1e-3, rel_bound=bad)
        with pytest.raises(ValueError, match="abs_bound"):
            ErrorBound.from_args(abs_bound=bad, rel_bound=1e-3)

    def test_nonpositive_legacy_bounds_raise(self):
        with pytest.raises(ValueError):
            ErrorBound.from_args(abs_bound=0.0)
        with pytest.raises(ValueError):
            ErrorBound.from_args(rel_bound=-1.0)


class TestResolve:
    def test_abs_passthrough(self):
        assert ErrorBound.from_args(abs_bound=0.25).resolve(10.0) == 0.25

    def test_rel_scales_by_range(self):
        assert ErrorBound.from_args(rel_bound=1e-3).resolve(50.0) == 0.05

    def test_tighter_wins(self):
        spec = ErrorBound.from_args(abs_bound=1.0, rel_bound=1e-3)
        assert spec.resolve(10.0) == 0.01
        assert spec.resolve(1e6) == 1.0

    def test_rel_on_zero_range_raises_clearly(self):
        """The old ``_resolve_bound`` silently returned eb=0 here."""
        spec = ErrorBound.from_args(rel_bound=1e-4)
        with pytest.raises(ValueError, match="constant"):
            spec.resolve(0.0)

    def test_non_resolvable_modes_raise(self):
        with pytest.raises(ValueError, match="no direct absolute bound"):
            ErrorBound.from_args("pw_rel", 1e-3).resolve(1.0)


class TestResolveThroughCompressor:
    def test_rel_on_constant_plus_nan_raises_clearly(self):
        """Constant finite values + NaN: the constant fast path cannot
        serve (NaN must round-trip), so the resolver must explain itself
        instead of failing with eb=0 deeper in the pipeline."""
        data = np.array([5.0, 5.0, np.nan, 5.0])
        with pytest.raises(ValueError, match="constant"):
            compress(data, mode="rel", bound=1e-4)

    def test_constant_finite_field_still_fine(self):
        data = np.full(64, 5.0)
        np.testing.assert_array_equal(
            decompress(compress(data, mode="rel", bound=1e-4)), data
        )

    def test_abs_bound_on_constant_plus_nan_works(self):
        data = np.array([5.0, 5.0, np.nan, 5.0])
        out = decompress(compress(data, mode="abs", bound=1e-3))
        assert np.isnan(out[2]) and np.abs(out[[0, 1, 3]] - 5.0).max() <= 1e-3


class TestPwHelpers:
    def test_log_bound_margin(self):
        assert pw_log_bound(1e-3, np.float64) < np.log1p(1e-3)
        with pytest.raises(ValueError, match="machine epsilon"):
            pw_log_bound(1e-8, np.float32)

    def test_precondition_classifies(self):
        data = np.array(
            [1.0, -2.0, 0.0, -0.0, np.nan, np.inf, 1e-320], dtype=np.float64
        )
        logs, flags, signs = pw_precondition(data)
        assert flags.tolist() == [0, 0, 1, 1, 2, 2, 2]
        assert signs.tolist() == [False, True, False, True, False, False, False]
        assert logs.dtype == np.float64
        assert np.isfinite(logs).all()

    def test_side_channel_roundtrip(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal(257).astype(np.float32)
        data[::17] = 0.0
        data[3] = np.nan
        data[50] = -np.inf
        _, flags, signs = pw_precondition(data)
        payload = pw_encode_side(data, flags, signs)
        f2, s2, raws = pw_decode_side(payload, data.size, data.dtype)
        np.testing.assert_array_equal(f2, flags.ravel())
        np.testing.assert_array_equal(s2, signs.ravel())
        raw_src = data[flags == 2]
        np.testing.assert_array_equal(
            raws.view(np.uint32), raw_src.view(np.uint32)
        )

    def test_decode_side_rejects_bad_flag(self):
        with pytest.raises(ValueError, match="flag"):
            pw_decode_side(b"\xff" * 8, 4, np.float32)


class TestPsnrHelpers:
    def test_model_bound_looser_than_fallback(self):
        assert psnr_to_abs_bound(60.0, 10.0) > psnr_fallback_bound(60.0, 10.0)

    def test_fallback_guarantee_math(self):
        # rmse <= eb implies psnr >= target for the fallback bound
        eb = psnr_fallback_bound(80.0, 3.0)
        assert 20.0 * np.log10(3.0 / eb) >= 80.0
