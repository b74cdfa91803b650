"""Tests for container introspection (repro.core.container_info)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import compress, container_info
from repro.core.lossless_post import is_wrapped


class TestContainerInfo:
    def test_basic_fields(self, smooth2d):
        blob = compress(smooth2d, mode="rel", bound=1e-3, layers=2, interval_bits=10)
        info = container_info(blob)
        assert info["shape"] == smooth2d.shape
        assert info["dtype"] == "float32"
        assert info["layers"] == 2
        assert info["interval_bits"] == 10
        assert info["entropy_coder"] == "huffman"
        assert not info["lossless_post"]
        assert info["compressed_bytes"] == len(blob)
        assert info["eb_abs"] == pytest.approx(
            1e-3 * float(smooth2d.max() - smooth2d.min())
        )

    def test_variant_flags(self, smooth2d):
        small = smooth2d[:16, :16]
        blob = compress(
            small, mode="pw_rel", bound=1e-2, entropy_coder="arithmetic",
            lossless_post=True,
        )
        info = container_info(blob)
        assert info["entropy_coder"] == "arithmetic"
        assert info["mode"] == "pw_rel"
        # pw_rel's side planes make the post-wrap pay off here
        assert is_wrapped(blob)
        assert info["lossless_post"] == is_wrapped(blob)

    def test_constant(self):
        blob = compress(np.full((8, 8), 2.5, dtype=np.float64), mode="abs", bound=0.1)
        info = container_info(blob)
        assert info["constant"] is True
        assert info["dtype"] == "float64"

    def test_unpredictable_count(self, spiky2d):
        eb = 1e-5 * float(spiky2d.max() - spiky2d.min())
        blob = compress(spiky2d, mode="abs", bound=eb, interval_bits=4)
        info = container_info(blob)
        assert info["n_unpredictable"] > 0
