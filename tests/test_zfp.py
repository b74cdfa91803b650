"""Tests for the ZFP-like transform codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.zfp import (
    ZFPLike,
    _blockize,
    _from_negabinary,
    _fwd_lift,
    _inv_lift,
    _last_true_index,
    _sequency_perm,
    _to_negabinary,
    _unblockize,
)


class TestLifting:
    def test_roundoff_bounded(self, rng):
        v = rng.integers(-(2**50), 2**50, (5000, 4))
        f = v.copy()
        _fwd_lift(f, 1)
        r = f.copy()
        _inv_lift(r, 1)
        assert np.abs(r - v).max() <= 2  # approximate inverse by design

    def test_dc_coefficient_is_average(self, rng):
        v = rng.integers(-(2**30), 2**30, (100, 4))
        f = v.copy()
        _fwd_lift(f, 1)
        avg = v.mean(axis=1)
        assert np.abs(f[:, 0] - avg).max() <= 2

    def test_constant_block_decorrelates_to_dc_only(self):
        v = np.full((1, 4), 12345, dtype=np.int64)
        f = v.copy()
        _fwd_lift(f, 1)
        assert f[0, 0] == 12345
        np.testing.assert_array_equal(f[0, 1:], 0)

    def test_linear_ramp_kills_high_frequencies(self):
        v = np.array([[0, 1000, 2000, 3000]], dtype=np.int64)
        f = v.copy()
        _fwd_lift(f, 1)
        # w (highest frequency) should be ~0 for a perfect ramp
        assert abs(int(f[0, 3])) <= 2


class TestLastTrueIndex:
    def test_rows(self):
        mask = np.array([[0, 1, 0, 1], [0, 0, 0, 0], [1, 0, 0, 0]], dtype=bool)
        np.testing.assert_array_equal(_last_true_index(mask, axis=1), [3, -1, 0])

    def test_all_true(self):
        mask = np.ones((2, 5), dtype=bool)
        np.testing.assert_array_equal(_last_true_index(mask, axis=1), [4, 4])

    def test_columns(self):
        mask = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=bool)
        np.testing.assert_array_equal(_last_true_index(mask, axis=0), [1, 1, -1])

    @given(
        st.integers(0, 2**31 - 1),
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
        st.integers(-3, 2),
    )
    def test_matches_scan(self, seed, shape, axis):
        mask = np.random.default_rng(seed).random(shape) < 0.3
        got = _last_true_index(mask, axis=axis)
        moved = np.moveaxis(mask, axis, -1)
        want = np.full(moved.shape[:-1], -1)
        for idx in np.ndindex(*moved.shape[:-1]):
            hits = np.flatnonzero(moved[idx])
            if hits.size:
                want[idx] = hits[-1]
        np.testing.assert_array_equal(got, want)


class TestNegabinary:
    @given(st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=50))
    def test_roundtrip(self, vals):
        q = np.array(vals, dtype=np.int64)
        np.testing.assert_array_equal(_from_negabinary(_to_negabinary(q)), q)

    def test_small_magnitudes_have_few_bits(self):
        u = _to_negabinary(np.array([0, 1, -1, 2, -2], dtype=np.int64))
        assert u[0] == 0
        assert all(int(x) < 16 for x in u)


class TestBlockize:
    @pytest.mark.parametrize("shape", [(8, 8), (7, 9), (5,), (6, 7, 9)])
    def test_roundtrip(self, shape, rng):
        data = rng.standard_normal(shape)
        blocks, nb = _blockize(data)
        assert blocks.shape[1] == 4 ** len(shape)
        back = _unblockize(blocks, nb, shape)
        np.testing.assert_array_equal(back, data)

    def test_partial_blocks_edge_replicated(self):
        data = np.arange(5, dtype=np.float64)
        blocks, nb = _blockize(data)
        assert nb == (2,)
        np.testing.assert_array_equal(blocks[1], [4, 4, 4, 4])


class TestSequency:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_permutation_valid(self, d):
        perm = _sequency_perm(d)
        assert np.array_equal(np.sort(perm), np.arange(4**d))

    def test_dc_first(self):
        for d in (1, 2, 3):
            assert _sequency_perm(d)[0] == 0


class TestAccuracyMode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tol", [1e-2, 1e-5])
    def test_bound_on_normal_data(self, dtype, tol, rng):
        data = np.cumsum(rng.standard_normal(2000)).reshape(40, 50).astype(dtype)
        z = ZFPLike(mode="accuracy", tolerance=tol)
        out = z.decompress(z.compress(data))
        err = np.abs(out.astype(np.float64) - data.astype(np.float64)).max()
        assert err <= tol

    def test_overconservative_like_table5(self, smooth2d):
        """Realized max error is a small fraction of the tolerance."""
        tol = 1e-3
        z = ZFPLike(mode="accuracy", tolerance=tol)
        out = z.decompress(z.compress(smooth2d))
        err = np.abs(out.astype(np.float64) - smooth2d.astype(np.float64)).max()
        assert 0 < err <= 0.6 * tol

    def test_bound_violated_on_huge_range(self):
        """The paper's CDNUMC anecdote: value range 1e-3..1e11 breaks the
        fixed-point alignment and the bound is not respected."""
        data = np.ones((32, 32), dtype=np.float32)
        data[3, 3] = 1e11
        data[5, 5] = 1e-3
        data[10, 10] = 6.936168  # the paper's example value
        tol = 1e-4
        z = ZFPLike(mode="accuracy", tolerance=tol)
        out = z.decompress(z.compress(data))
        err = np.abs(out.astype(np.float64) - data.astype(np.float64)).max()
        assert err > tol

    def test_3d(self, rng):
        data = rng.standard_normal((12, 13, 14))
        z = ZFPLike(mode="accuracy", tolerance=1e-4)
        out = z.decompress(z.compress(data))
        assert np.abs(out - data).max() <= 1e-4

    def test_1d(self, rng):
        data = np.cumsum(rng.standard_normal(999)).astype(np.float32)
        z = ZFPLike(mode="accuracy", tolerance=1e-3)
        out = z.decompress(z.compress(data))
        assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= 1e-3

    def test_zero_array(self):
        data = np.zeros((16, 16), dtype=np.float32)
        z = ZFPLike(mode="accuracy", tolerance=1e-6)
        blob = z.compress(data)
        np.testing.assert_array_equal(z.decompress(blob), data)
        assert len(blob) < 150

    def test_tighter_tolerance_bigger_blob(self, smooth2d):
        loose = len(ZFPLike(mode="accuracy", tolerance=1e-2).compress(smooth2d))
        tight = len(ZFPLike(mode="accuracy", tolerance=1e-7).compress(smooth2d))
        assert tight > loose

    @given(st.integers(1, 2**31), st.sampled_from([1e-2, 1e-5, 1e-8]))
    @settings(max_examples=10)
    def test_bound_property(self, seed, tol):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(4, 24, size=rng.integers(1, 4)))
        data = np.cumsum(rng.standard_normal(int(np.prod(shape)))).reshape(shape)
        z = ZFPLike(mode="accuracy", tolerance=tol)
        out = z.decompress(z.compress(data))
        assert np.abs(out - data).max() <= tol


class TestRateMode:
    @pytest.mark.parametrize("rate", [1, 2, 4, 8, 16])
    def test_rate_respected(self, rate, smooth2d):
        z = ZFPLike(mode="rate", rate=rate)
        blob = z.compress(smooth2d)
        bpv = len(blob) * 8 / smooth2d.size
        assert bpv == pytest.approx(rate, abs=0.35)  # container overhead

    def test_quality_improves_with_rate(self, smooth2d):
        errs = []
        for rate in (2, 4, 8, 16):
            z = ZFPLike(mode="rate", rate=rate)
            out = z.decompress(z.compress(smooth2d))
            errs.append(np.abs(out.astype(np.float64) - smooth2d).max())
        assert errs[0] > errs[-1]
        assert all(a >= b * 0.5 for a, b in zip(errs, errs[1:]))

    def test_3d_rate(self, rng):
        data = rng.standard_normal((8, 12, 16)).astype(np.float32)
        z = ZFPLike(mode="rate", rate=6)
        blob = z.compress(data)
        out = z.decompress(blob)
        assert out.shape == data.shape
        assert len(blob) * 8 / data.size == pytest.approx(6, abs=0.5)


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ZFPLike(mode="nope")

    def test_missing_params(self):
        with pytest.raises(ValueError):
            ZFPLike(mode="accuracy")
        with pytest.raises(ValueError):
            ZFPLike(mode="rate")

    def test_nan_rejected(self):
        data = np.full((8, 8), np.nan)
        with pytest.raises(ValueError):
            ZFPLike(mode="accuracy", tolerance=1e-3).compress(data)

    def test_4d_rejected(self):
        with pytest.raises(ValueError):
            ZFPLike(mode="accuracy", tolerance=1e-3).compress(
                np.zeros((2, 2, 2, 2))
            )

    def test_int_rejected(self):
        with pytest.raises(TypeError):
            ZFPLike(mode="accuracy", tolerance=1e-3).compress(np.zeros(8, int))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            ZFPLike(mode="rate", rate=8).decompress(b"\x00" * 64)
