"""Figure 6: compression factors of all six compressors per data set.

The paper's headline chart: SZ-1.4 beats everything at every reasonable
bound; at eb_rel=1e-4 on ATM the paper reports SZ-1.4 6.3 vs ZFP 3.0,
SZ-1.1 3.8, ISABELA 1.4, FPZIP 1.9, GZIP 1.3 (and 21.3 vs 8.0/8.9/1.2/
2.4/1.3 on hurricane).  Lossless baselines are bound-independent and run
once per data set; ISABELA rows show '-' after it fails, as in the paper
("we plot its compression factors only until it fails").
"""

from __future__ import annotations

from repro.datasets import load
from repro.experiments.common import (
    LOSSY_ERROR_BOUNDS,
    Table,
    run_fpzip,
    run_gzip,
    run_isabela,
    run_sz11,
    run_sz14,
    run_zfp_accuracy,
)

__all__ = ["run", "PANEL_VARIABLES"]

PANEL_VARIABLES = {"ATM": "FREQSH", "APS": "frame0", "Hurricane": "U"}

_LOSSY = (
    ("SZ-1.4", run_sz14),
    ("ZFP-like", run_zfp_accuracy),
    ("SZ-1.1", run_sz11),
    ("ISABELA", run_isabela),
)
_LOSSLESS = (("FPZIP-like", run_fpzip), ("GZIP-like", run_gzip))


def run(
    scale: str = "small",
    seed: int = 0,
    bounds: tuple = LOSSY_ERROR_BOUNDS,
    datasets: tuple = ("ATM", "APS", "Hurricane"),
) -> Table:
    table = Table("Figure 6: compression factor vs eb_rel, all compressors")
    for dataset in datasets:
        data = load(dataset, scale=scale, seed=seed)[PANEL_VARIABLES[dataset]]
        for name, runner in _LOSSY:
            row = {"panel": dataset, "compressor": name}
            for eb in bounds:
                res = runner(data, rel_bound=eb)
                row[f"eb {eb:.0e}"] = None if res.failed else round(res.cf, 2)
            table.add(**row)
        for name, runner in _LOSSLESS:
            res = runner(data)
            row = {"panel": dataset, "compressor": name}
            for eb in bounds:
                row[f"eb {eb:.0e}"] = round(res.cf, 2)
            table.add(**row)
    table.note(
        "paper @1e-4: ATM 6.3/3.0/3.8/1.4 (+FPZIP 1.9, GZIP 1.3); "
        "hurricane 21.3/8.0/8.9/1.2 (+2.4, 1.3) — SZ-1.4 should lead "
        "every column, ISABELA '-' where it fails"
    )
    return table
