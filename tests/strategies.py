"""Shared hypothesis strategies for the differential test harnesses.

The identity suites (``test_wavefront_identity.py`` and friends) all
need the same inputs: adversarially shaped float arrays whose content
mixes smooth signal, spikes that force unpredictable codes, and
(optionally) non-finite values.  Drawing a seed and synthesizing with
NumPy keeps example generation fast and shrinkable — hypothesis shrinks
toward smaller shapes and seed 0, which is exactly the debugging order
you want for a kernel mismatch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

__all__ = [
    "ADVERSARIAL_SHAPES",
    "adversarial_shapes",
    "error_bounds",
    "float_dtypes",
    "huffman_symbol_streams",
    "wavefront_arrays",
    "wavefront_order",
]

#: Curated shapes that stress the sheared wavefront: prime-length axes
#: (maximally uneven hyperplane sizes), 1-wide slabs (degenerate
#: leading/trailing axes), shapes where every hyperplane is a single
#: point, a long first axis (many small planes), short trailing axes
#: (the plan then implies an earlier axis from each plane), 4-D shapes
#: whose plane boxes are 3-D bands (the plane-buffer ring is n*d + 1
#: deep), and the scalar 1-D kernel.
ADVERSARIAL_SHAPES: tuple[tuple[int, ...], ...] = (
    (7, 11),
    (5, 7, 3),
    (13, 2),
    (1, 17),
    (9, 1, 4),
    (1, 1, 23),
    (6, 1, 1),
    (2, 2, 2),
    (40, 2, 2),
    (3, 4, 2, 5),
    (2, 1, 3, 2),
    (5, 5, 2, 2),
    (37,),
    (1,),
)


def wavefront_order(shape: tuple[int, ...]) -> np.ndarray:
    """Raster indices in wavefront order, computed independently of the
    kernels: a stable sort of the flat raster by coordinate sum."""
    coord_sum = np.zeros(shape, dtype=np.int64)
    for axis, size in enumerate(shape):
        extent = [1] * len(shape)
        extent[axis] = size
        coord_sum = coord_sum + np.arange(size).reshape(extent)
    return np.argsort(coord_sum.ravel(), kind="stable")


def adversarial_shapes(max_points: int = 512) -> st.SearchStrategy:
    """Curated edge-case shapes plus randomly drawn small shapes."""
    curated = st.sampled_from(
        [s for s in ADVERSARIAL_SHAPES if int(np.prod(s)) <= max_points]
    )
    drawn = (
        st.integers(min_value=1, max_value=4)
        .flatmap(
            lambda nd: st.lists(
                st.integers(min_value=1, max_value=13 if nd < 4 else 6),
                min_size=nd,
                max_size=nd,
            )
        )
        .map(tuple)
        .filter(lambda s: int(np.prod(s)) <= max_points)
    )
    return st.one_of(curated, drawn)


def float_dtypes() -> st.SearchStrategy:
    return st.sampled_from([np.float32, np.float64])


def error_bounds() -> st.SearchStrategy:
    """Absolute bounds spanning loose to ulp-stressing tight."""
    return st.sampled_from([1e-1, 1e-2, 1e-3, 1e-5])


@st.composite
def huffman_symbol_streams(draw, max_symbols: int = 3000):
    """Adversarial Huffman inputs: ``(symbols, alphabet_size, block_size)``.

    The distributions target the decode-table variants' edge cases:
    single-symbol alphabets (1-bit codes, maximal symbols-per-lookup),
    near-uniform draws (all codewords the same mid-length), heavily
    skewed geometric draws (short codes for the head, deep codes for
    the tail — the quantization-code shape) and a sprinkle of isolated
    rare symbols (codeword lengths far apart inside one table).
    """
    n = draw(st.integers(min_value=1, max_value=max_symbols))
    block_size = draw(st.sampled_from([1, 7, 64, 500, 4096]))
    kind = draw(
        st.sampled_from(["single", "uniform", "skewed", "sparse_tail"])
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind == "single":
        alphabet = draw(st.integers(min_value=1, max_value=40))
        symbols = np.full(n, alphabet - 1, dtype=np.int64)
    elif kind == "uniform":
        alphabet = draw(st.sampled_from([2, 17, 256, 1000]))
        symbols = rng.integers(0, alphabet, n).astype(np.int64)
    elif kind == "skewed":
        alphabet = draw(st.sampled_from([8, 64, 1024]))
        symbols = np.minimum(
            rng.geometric(draw(st.sampled_from([0.2, 0.6, 0.95])), n) - 1,
            alphabet - 1,
        ).astype(np.int64)
    else:  # sparse_tail: one dominant symbol plus a few rare outliers
        alphabet = draw(st.sampled_from([100, 5000]))
        symbols = np.zeros(n, dtype=np.int64)
        k = min(n - 1, draw(st.integers(min_value=0, max_value=8)))
        if k:
            symbols[rng.choice(n, size=k, replace=False)] = rng.integers(
                1, alphabet, k
            )
    return symbols, alphabet, block_size


@st.composite
def wavefront_arrays(
    draw,
    max_points: int = 512,
    allow_nonfinite: bool = True,
):
    """An adversarial float array plus the knobs the kernels take.

    Returns ``(data, eb, layers, interval_bits)``.  The array mixes a
    smooth cumulative-sum field with occasional large spikes (forcing
    unpredictable codes) and — when ``allow_nonfinite`` — occasional
    NaN/Inf contamination, so every branch of the kernels is reachable.
    """
    shape = draw(adversarial_shapes(max_points))
    dtype = draw(float_dtypes())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    spikes = draw(st.booleans())
    nonfinite = allow_nonfinite and draw(
        st.sampled_from([None, np.nan, np.inf, -np.inf])
    )
    eb = draw(error_bounds())
    layers = draw(st.sampled_from([1, 1, 1, 2, 3]))  # n=1 is the hot path
    interval_bits = draw(st.sampled_from([4, 8]))
    rng = np.random.default_rng(seed)
    data = np.cumsum(
        rng.normal(0.0, 0.25, int(np.prod(shape)))
    ).reshape(shape)
    if spikes and data.size > 1:
        k = max(1, data.size // 16)
        idx = rng.choice(data.size, size=k, replace=False)
        data.reshape(-1)[idx] += rng.choice([-1.0, 1.0], size=k) * 1e4
    if nonfinite is not None and data.size > 2:
        data.reshape(-1)[rng.integers(0, data.size)] = nonfinite
    return data.astype(dtype), eb, layers, interval_bits
