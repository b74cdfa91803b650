"""Bound-guarantee property harness: every mode, machine-checked.

The acceptance contract of the error-bound mode subsystem
(``repro.core.bounds``): for every round-trip

* ``abs``    — ``|x_i - x'_i| <= b`` for all finite points,
* ``rel``    — ``|x_i - x'_i| <= b * (max - min)``,
* ``pw_rel`` — ``|x_i - x'_i| <= b * |x_i|`` for all finite non-zero
  points, zeros exact, signs preserved,
* ``psnr``   — ``psnr(x, x') >= target`` dB,

and NaN/Inf round-trip exactly in every mode.  A seeded randomized
matrix covers {float32, float64} x {1-d, 2-d, 3-d} x all four modes x
bounds {1e-2, 1e-4, 1e-6}, over several field shapes (smooth, wide
dynamic range, spiky) and the degenerate inputs: zeros, negatives,
NaN/Inf, and constant fields.  Every assertion routes through
``metrics.verify_bound`` so the checker itself is exercised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compress, decompress
from repro.metrics import psnr, verify_bound

DTYPES = [np.float32, np.float64]
BOUNDS = [1e-2, 1e-4, 1e-6]
MODES = ["abs", "rel", "pw_rel", "psnr"]


def _mode_bound(mode: str, bound: float, data: np.ndarray) -> float:
    """Translate the matrix bound into each mode's parameter.

    ``abs`` scales by the value range so all modes face a comparable
    accuracy request; ``psnr`` targets the dB a just-met range-relative
    bound of ``bound`` would produce (1e-2 -> 40 dB ... 1e-6 -> 120 dB).
    """
    if mode == "abs":
        finite = data[np.isfinite(data)].astype(np.float64)
        rng = float(finite.max() - finite.min()) if finite.size else 1.0
        return bound * max(rng, 1e-30)
    if mode == "psnr":
        return float(20.0 * np.log10(1.0 / bound))
    return bound


def _field(dtype, ndim: int, seed: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = {1: (400,), 2: (24, 30), 3: (8, 10, 12)}[ndim]
    if kind == "smooth":
        base = np.cumsum(rng.standard_normal(int(np.prod(shape))))
        data = base.reshape(shape) * 0.1 + 5.0
    elif kind == "wide":
        data = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -6, 6, shape
        )
    else:  # spiky
        data = rng.standard_normal(shape)
        mask = rng.random(shape) < 0.05
        data = data + mask * rng.standard_normal(shape) * 100.0
    return data.astype(dtype)


def _beyond_flt_max() -> np.ndarray:
    """float32 field whose finite range (~6e38) exceeds FLT_MAX."""
    rng = np.random.default_rng(0)
    return rng.uniform(-3e38, 3e38, 1000).astype(np.float32)


def _roundtrip_and_verify(data, mode, bound):
    param = _mode_bound(mode, bound, data)
    out = decompress(compress(data, mode=mode, bound=param))
    assert out.shape == data.shape and out.dtype == data.dtype
    check = verify_bound(data, out, mode, param)
    assert check["ok"], (
        f"{mode} bound {param:g} violated: max {check['max_violation']:g} "
        f"at {check['n_violations']} points"
    )
    return out


class TestGuaranteeMatrix:
    """The full {dtype} x {ndim} x {mode} x {bound} matrix."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_matrix(self, dtype, ndim, mode, bound):
        if mode == "pw_rel" and dtype == np.float32 and bound <= np.finfo(
            np.float32
        ).eps:
            pytest.skip("pw_rel bound below float32 machine epsilon")
        for kind in ("smooth", "wide"):
            data = _field(dtype, ndim, seed=hash((ndim, kind)) % 2**31, kind=kind)
            _roundtrip_and_verify(data, mode, bound)


class TestDegenerateInputs:
    @pytest.mark.parametrize("mode", MODES)
    def test_zeros_and_negatives(self, mode):
        data = np.array(
            [0.0, -0.0, 1.5, -1.5, 0.0, 1e-3, -1e-3, 2.0], dtype=np.float64
        )
        out = _roundtrip_and_verify(data, mode, 1e-4)
        if mode == "pw_rel":
            np.testing.assert_array_equal(out == 0, data == 0)
            np.testing.assert_array_equal(np.sign(out), np.sign(data))
            assert np.signbit(out[1])  # -0.0 survives

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_nan_inf_roundtrip_exact(self, mode, dtype):
        data = (np.arange(60, dtype=np.float64) * 0.25 + 1.0).astype(dtype)
        data[3] = np.nan
        data[17] = np.inf
        data[41] = -np.inf
        out = _roundtrip_and_verify(data.reshape(6, 10), mode, 1e-2)
        assert np.isnan(out[0, 3])
        assert out[1, 7] == np.inf
        assert out[4, 1] == -np.inf

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("value", [0.0, -7.25, 3.5e-20])
    def test_constant_fields_exact(self, mode, value):
        data = np.full((11, 13), value, dtype=np.float64)
        param = {"abs": 1e-4, "rel": 1e-4, "pw_rel": 1e-4, "psnr": 80.0}[mode]
        out = decompress(compress(data, mode=mode, bound=param))
        np.testing.assert_array_equal(out, data)

    def test_pw_rel_subnormals_exact(self):
        data = np.array(
            [1e-320, -3e-310, 1.0, 2.0, 5e-324], dtype=np.float64
        )
        out = _roundtrip_and_verify(data, "pw_rel", 1e-2)
        np.testing.assert_array_equal(out[[0, 1, 4]], data[[0, 1, 4]])

    def test_pw_rel_all_special(self):
        data = np.array([0.0, np.nan, np.inf, -0.0, -np.inf], dtype=np.float32)
        out = decompress(compress(data, mode="pw_rel", bound=1e-3))
        np.testing.assert_array_equal(np.isnan(out), np.isnan(data))
        finite_or_inf = ~np.isnan(data)
        np.testing.assert_array_equal(out[finite_or_inf], data[finite_or_inf])
        assert np.signbit(out[3])

    def test_pw_rel_mixed_sign_zeros(self):
        # Zero value range, but NOT bitwise-constant: must skip the
        # constant shortcut and preserve every zero's sign bit.
        data = np.array([0.0, -0.0, 0.0, -0.0], dtype=np.float64)
        out = decompress(compress(data, mode="pw_rel", bound=1e-3))
        np.testing.assert_array_equal(np.signbit(out), np.signbit(data))

    def test_constant_field_keeps_mode_tag(self):
        from repro.core import container_info

        blob = compress(np.full((5, 5), 2.5), mode="pw_rel", bound=1e-3)
        info = container_info(blob)
        assert info["constant"] and info["mode"] == "pw_rel"
        blob = compress(np.full((5, 5), 2.5), mode="psnr", bound=60.0)
        assert container_info(blob)["mode"] == "psnr"

    def test_psnr_zero_range_with_nan_raises_clearly(self):
        data = np.array([5.0, np.nan, 5.0])
        with pytest.raises(ValueError, match="psnr target"):
            compress(data, mode="psnr", bound=60.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_float32_range_beyond_flt_max(self, mode):
        # Every value is finite, but max - min overflows float32.
        _roundtrip_and_verify(_beyond_flt_max(), mode, 1e-3)

    def test_float32_range_beyond_flt_max_estimate(self):
        from repro.api import SZConfig
        from repro.tuning import estimate

        est = estimate(
            _beyond_flt_max(), SZConfig.from_kwargs(mode="rel", bound=1e-3)
        )
        assert np.isfinite(est.ratio) and est.ratio > 0

    @pytest.mark.parametrize("eb", [1e-3, 0.3])
    @pytest.mark.parametrize("shape", [(64,), (8, 8), (4, 4, 4)])
    def test_float32_value_at_rounded_bound(self, eb, shape):
        # float32 rounds both bounds up, so +-float32(eb) lies just above
        # eb.  After a NaN such a value is unpredictable, and it must not
        # be stored as a zero (an error of float32(eb) > eb).
        assert np.float64(np.float32(eb)) > eb
        data = np.zeros(64, dtype=np.float32)
        data[[10, 20]] = np.nan
        data[11], data[21] = np.float32(eb), -np.float32(eb)
        data = data.reshape(shape)
        out = decompress(compress(data, mode="abs", bound=eb))
        assert verify_bound(data, out, "abs", eb)["ok"]

    def test_pw_rel_single_magnitude_mixed_signs(self):
        # Constant log field but non-constant data: the body quantizes a
        # zero-range float64 field; signs come back from the sign plane.
        data = np.array([5.0, -5.0, 5.0, 5.0, -5.0, 0.0], dtype=np.float32)
        out = _roundtrip_and_verify(data, "pw_rel", 1e-3)
        np.testing.assert_array_equal(np.sign(out), np.sign(data))


class TestPsnrMeetsTarget:
    @pytest.mark.parametrize("target", [30.0, 60.0, 90.0, 120.0])
    def test_target_met_on_noise(self, target, rng):
        data = rng.standard_normal((50, 60)).astype(np.float64)
        out = decompress(compress(data, mode="psnr", bound=target))
        assert psnr(data, out) >= target

    def test_spiky_field(self, spiky2d):
        out = decompress(compress(spiky2d, mode="psnr", bound=70.0))
        assert psnr(spiky2d, out) >= 70.0


class TestRandomizedProperty:
    @given(
        st.sampled_from(DTYPES),
        st.sampled_from(MODES),
        st.sampled_from(BOUNDS),
        st.integers(1, 2**31),
    )
    @settings(max_examples=20)
    def test_random_fields(self, dtype, mode, bound, seed):
        if mode == "pw_rel" and dtype == np.float32 and bound <= np.finfo(
            np.float32
        ).eps:
            bound = 1e-4
        rng = np.random.default_rng(seed)
        ndim = int(rng.integers(1, 4))
        shape = tuple(rng.integers(3, 14, size=ndim))
        data = (
            rng.standard_normal(shape)
            * 10.0 ** rng.integers(-4, 4, shape)
        ).astype(dtype)
        # sprinkle structured trouble: zeros and non-finite values
        flat = data.reshape(-1)
        if flat.size >= 4:
            flat[0] = 0.0
            flat[1] = np.nan
            flat[2] = np.inf
            flat[3] = -flat[3]
        if np.unique(flat[np.isfinite(flat)]).size < 2:
            return  # constant-after-edits fields are covered elsewhere
        _roundtrip_and_verify(data, mode, bound)


class TestVerifyBoundChecker:
    """The checker itself must flag violations, not just bless output."""

    def test_flags_abs_violation(self):
        a = np.zeros(5)
        b = np.zeros(5)
        b[2] = 0.5
        check = verify_bound(a, b, "abs", 0.1)
        assert not check["ok"]
        assert check["max_violation"] == pytest.approx(0.4)
        assert check["n_violations"] == 1

    def test_flags_pw_rel_zero_corruption(self):
        a = np.array([0.0, 1.0])
        b = np.array([1e-9, 1.0])
        assert not verify_bound(a, b, "pw_rel", 1e-2)["ok"]

    def test_flags_lost_nan(self):
        a = np.array([np.nan, 1.0])
        b = np.array([0.0, 1.0])
        check = verify_bound(a, b, "abs", 1.0)
        assert not check["ok"] and check["max_violation"] == np.inf

    def test_flags_psnr_shortfall(self):
        a = np.linspace(0, 1, 100)
        b = a + 0.1
        check = verify_bound(a, b, "psnr", 60.0)
        assert not check["ok"] and check["max_violation"] > 0

    def test_accepts_exact(self):
        a = np.linspace(-1, 1, 50)
        for mode, bound in [
            ("abs", 1e-9), ("rel", 1e-9), ("pw_rel", 1e-9), ("psnr", 500.0)
        ]:
            assert verify_bound(a, a.copy(), mode, bound)["ok"]

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            verify_bound(np.ones(3), np.ones(3), "nrmse", 0.1)
