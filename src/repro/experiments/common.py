"""Shared experiment machinery: result tables, compressor suite, runners."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    FPZIPLike,
    GzipLike,
    ISABELA,
    ISABELAFailure,
    SZ11,
    ZFPLike,
)
from repro.core import compress_with_stats, decompress
from repro.metrics import (
    max_abs_error,
    max_rel_error,
    nrmse,
    pearson,
    psnr,
)

__all__ = [
    "Table",
    "CompressorResult",
    "run_sz14",
    "run_zfp_accuracy",
    "run_zfp_rate",
    "run_sz11",
    "run_isabela",
    "run_fpzip",
    "run_gzip",
    "LOSSY_ERROR_BOUNDS",
]

LOSSY_ERROR_BOUNDS = (1e-3, 1e-4, 1e-5, 1e-6)
"""The paper's value-range-based relative error bound sweep (Fig. 6)."""


@dataclass
class Table:
    """A printable result table mirroring one paper artifact."""

    title: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **row) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list:
        return [r.get(name) for r in self.rows]

    def __str__(self) -> str:
        if not self.rows:
            return f"== {self.title} ==\n(no rows)"
        cols = list(dict.fromkeys(k for r in self.rows for k in r))
        fmt_rows = [
            [_fmt(r.get(c)) for c in cols] for r in self.rows
        ]
        widths = [
            max(len(c), *(len(fr[i]) for fr in fmt_rows)) for i, c in enumerate(cols)
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for fr in fmt_rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(fr, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e4 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)


@dataclass
class CompressorResult:
    """Uniform record of one (compressor, data, bound) run."""

    name: str
    cf: float
    bit_rate: float
    max_abs: float
    max_rel: float
    nrmse: float
    psnr: float
    rho: float
    comp_mb_s: float
    decomp_mb_s: float
    failed: bool = False
    reason: str = ""


def _finish(name, data, blob, out, t_comp, t_dec) -> CompressorResult:
    return CompressorResult(
        name=name,
        cf=data.nbytes / len(blob),
        bit_rate=8.0 * len(blob) / data.size,
        max_abs=max_abs_error(data, out),
        max_rel=max_rel_error(data, out),
        nrmse=nrmse(data, out),
        psnr=psnr(data, out),
        rho=pearson(data, out),
        comp_mb_s=data.nbytes / 1e6 / t_comp,
        decomp_mb_s=data.nbytes / 1e6 / t_dec,
    )


def _failed(name, reason) -> CompressorResult:
    return CompressorResult(
        name, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan,
        np.nan, np.nan, failed=True, reason=reason,
    )


def run_sz14(data: np.ndarray, rel_bound: float | None = None,
             abs_bound: float | None = None, **kw) -> CompressorResult:
    from repro.api import SZConfig
    from repro.core import ErrorBound

    config = SZConfig(
        ErrorBound.from_args(abs_bound=abs_bound, rel_bound=rel_bound), **kw
    )
    t0 = time.perf_counter()
    blob, _ = compress_with_stats(data, config=config)
    t1 = time.perf_counter()
    out = decompress(blob)
    t2 = time.perf_counter()
    return _finish("SZ-1.4", data, blob, out, t1 - t0, t2 - t1)


def run_zfp_accuracy(data: np.ndarray, rel_bound: float | None = None,
                     abs_bound: float | None = None) -> CompressorResult:
    tol = abs_bound
    if tol is None:
        tol = rel_bound * float(data.max() - data.min())
    z = ZFPLike(mode="accuracy", tolerance=tol)
    t0 = time.perf_counter()
    blob = z.compress(data)
    t1 = time.perf_counter()
    out = z.decompress(blob)
    t2 = time.perf_counter()
    return _finish("ZFP-like", data, blob, out, t1 - t0, t2 - t1)


def run_zfp_rate(data: np.ndarray, rate: float) -> CompressorResult:
    z = ZFPLike(mode="rate", rate=rate)
    t0 = time.perf_counter()
    blob = z.compress(data)
    t1 = time.perf_counter()
    out = z.decompress(blob)
    t2 = time.perf_counter()
    return _finish("ZFP-like", data, blob, out, t1 - t0, t2 - t1)


def run_sz11(data: np.ndarray, rel_bound: float | None = None,
             abs_bound: float | None = None) -> CompressorResult:
    sz = SZ11(abs_bound=abs_bound, rel_bound=rel_bound)
    t0 = time.perf_counter()
    blob = sz.compress(data)
    t1 = time.perf_counter()
    out = sz.decompress(blob)
    t2 = time.perf_counter()
    return _finish("SZ-1.1", data, blob, out, t1 - t0, t2 - t1)


def run_isabela(data: np.ndarray, rel_bound: float | None = None,
                abs_bound: float | None = None) -> CompressorResult:
    isa = ISABELA(abs_bound=abs_bound, rel_bound=rel_bound)
    try:
        t0 = time.perf_counter()
        blob = isa.compress(data)
        t1 = time.perf_counter()
        out = isa.decompress(blob)
        t2 = time.perf_counter()
    except ISABELAFailure as exc:
        return _failed("ISABELA", str(exc))
    return _finish("ISABELA", data, blob, out, t1 - t0, t2 - t1)


def run_fpzip(data: np.ndarray, **_ignored) -> CompressorResult:
    f = FPZIPLike()
    t0 = time.perf_counter()
    blob = f.compress(data)
    t1 = time.perf_counter()
    out = f.decompress(blob)
    t2 = time.perf_counter()
    return _finish("FPZIP-like", data, blob, out, t1 - t0, t2 - t1)


def run_gzip(data: np.ndarray, **_ignored) -> CompressorResult:
    g = GzipLike()
    t0 = time.perf_counter()
    blob = g.compress(data)
    t1 = time.perf_counter()
    out = g.decompress(blob)
    t2 = time.perf_counter()
    return _finish("GZIP-like", data, blob, out, t1 - t0, t2 - t1)
