"""Seeded input generators for the benchmark workloads.

The generators live here, not in ``repro.datasets``, so a change to the
program can never change what the benchmark feeds it.  They use NumPy
only: the process that generates an input must not import the program,
because its memory and import time would then be charged to the
program.  The same ``seed`` always gives the same array.

Each generator follows the paper's evaluation data:

* :func:`hurricane` -- the ``U`` wind of a Hurricane-like volume: a
  tilted Rankine vortex plus spectral turbulence, as
  ``repro.datasets.hurricane`` builds it, at float32 and a quarter of
  the paper's 100x500x500.
* :func:`xray_frame` -- an APS-like 2560x2560 detector frame: radial
  background, powder rings, Bragg peaks spanning two decades of
  intensity and multiplicative shot noise.
* :func:`series` -- a 1-D probe signal: a few tones with seeded phases
  and a random walk.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GENERATORS", "hurricane", "series", "xray_frame"]


def _spectral_field(
    shape: tuple[int, ...], beta: float, rng: np.random.Generator
) -> np.ndarray:
    """Zero-mean, unit-variance float32 field with spectrum ``k**-beta``."""
    spec = np.fft.rfftn(rng.standard_normal(shape, dtype=np.float32))
    k2 = np.zeros(spec.shape, dtype=np.float32)
    last = len(shape) - 1
    for axis, n in enumerate(shape):
        freq = np.fft.rfftfreq(n) if axis == last else np.fft.fftfreq(n)
        k = (freq * n).astype(np.float32)
        view = [1] * len(shape)
        view[axis] = k.size
        k2 += (k * k).reshape(view)
    k2.flat[0] = 1.0
    spec *= k2 ** np.float32(-beta / 4.0)  # amplitude k**(-beta/2)
    spec.flat[0] = 0.0
    field = np.fft.irfftn(spec, s=shape, axes=tuple(range(len(shape))))
    field -= field.mean(dtype=np.float64)
    field /= field.std(dtype=np.float64)
    return field.astype(np.float32, copy=False)


def hurricane(
    seed: int, shape: tuple[int, int, int] = (100, 250, 250)
) -> np.ndarray:
    """Hurricane-like ``U`` wind volume (float32, m/s)."""
    rng = np.random.default_rng(seed)
    v_max = 65.0
    nz, ny, nx = shape
    z = np.linspace(0, 1, nz, dtype=np.float32)[:, None, None]
    y = np.linspace(-1, 1, ny, dtype=np.float32)[None, :, None]
    x = np.linspace(-1, 1, nx, dtype=np.float32)[None, None, :]
    dx = x - 0.08 * z * np.cos(3 * z)  # the eye drifts with height
    dy = y - 0.08 * z * np.sin(3 * z)
    r = np.sqrt(dx * dx + dy * dy) + np.float32(1e-9)
    del dx
    r_max = np.float32(0.12)  # radius of maximum wind
    vt = np.where(r <= r_max, v_max * r / r_max, v_max * r_max / r)
    vt *= 1.0 - 0.6 * z  # winds weaken aloft
    u = (-vt * dy / r).astype(np.float32)
    del vt, dy, r
    # Smooth turbulence everywhere plus rough eddies in the ~10% of the
    # volume that a third field marks as rainbands.
    bands = _spectral_field(shape, 3.5, rng)
    bands = bands > np.quantile(bands, 0.9)
    turb = 0.25 * _spectral_field(shape, 6.0, rng)
    turb += 0.06 * _spectral_field(shape, 2.8, rng) * bands
    u += np.float32(v_max * 0.04) * turb
    return np.ascontiguousarray(u, dtype=np.float32)


def xray_frame(
    seed: int, shape: tuple[int, int] = (2560, 2560)
) -> np.ndarray:
    """APS-like diffraction frame (float32 detector counts, all > 0)."""
    rng = np.random.default_rng(seed)
    h, w = shape
    yy = np.arange(h, dtype=np.float32)[:, None] - np.float32(h / 2)
    xx = np.arange(w, dtype=np.float32)[None, :] - np.float32(w / 2)
    r = np.sqrt(yy * yy + xx * xx)
    image = 50.0 * np.exp(-r / np.float32(0.6 * max(h, w)))
    image += 5.0 * (1.0 + _spectral_field(shape, 3.0, rng))
    n_rings = 5
    for i in range(n_rings):
        radius = (0.1 + 0.8 * (i + 1) / (n_rings + 1)) * min(h, w) / 2
        width = 1.5 + rng.random()
        image += np.float32(30.0 / (i + 1)) * np.exp(
            -((r - np.float32(radius)) ** 2) / np.float32(2 * width * width)
        )
    # Peak heights are the same for every seed and centres sit on pixels,
    # so the frame's value range (and with it the PSNR) does not vary
    # with the seed; positions, widths and the noise do.
    n_peaks = 120
    py, px = rng.integers(0, h, n_peaks), rng.integers(0, w, n_peaks)
    amp = 10.0 ** np.linspace(2, 4.2, n_peaks)
    sig = rng.uniform(0.8, 2.5, n_peaks)
    for cy, cx, a, s in zip(py, px, amp, sig):
        y0, y1 = max(0, int(cy - 5 * s)), min(h, int(cy + 5 * s) + 1)
        x0, x1 = max(0, int(cx - 5 * s)), min(w, int(cx + 5 * s) + 1)
        dy = np.arange(y0, y1)[:, None] - cy
        dx = np.arange(x0, x1)[None, :] - cx
        peak = a * np.exp(-(dy * dy + dx * dx) / (2 * s * s))
        image[y0:y1, x0:x1] += peak.astype(np.float32)
    image *= 1.0 + 0.01 * rng.standard_normal(shape, dtype=np.float32)
    return np.maximum(image, 0.0).astype(np.float32)


def series(seed: int, n: int = 1 << 19) -> np.ndarray:
    """1-D probe signal (float32, scaled to the range [-1.5, 1.5]).

    Six tones plus a detrended random walk.  The walk's steps are
    uniform, so the prediction residuals have a flat histogram with hard
    edges and no rare quantization codes; the Huffman code lengths, and
    with them the decode-table size and the process's peak memory, then
    do not depend on the seed.  The fixed range does the same for the
    PSNR at an absolute bound.
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    signal = np.zeros(n)
    for k in range(6):  # the seed sets the phases, not the amplitudes
        signal += 0.6 / (k + 1) * np.sin(
            2 * np.pi * (3 + 7 * k) * t + rng.uniform(0, 2 * np.pi)
        )
    walk = np.cumsum(rng.uniform(-2e-3, 2e-3, n))
    signal += walk - np.linspace(walk[0], walk[-1], n)  # detrended
    signal = 3.0 * (signal - signal.min()) / (signal.max() - signal.min()) - 1.5
    return signal.astype(np.float32)


GENERATORS = {
    "hurricane3d": hurricane,
    "series1d": series,
    "xray-roi": xray_frame,
}
