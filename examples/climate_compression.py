#!/usr/bin/env python
"""Climate-workload example: per-variable compression of an ATM-like bundle.

Mirrors the paper's motivating use case (CESM producing petabytes of
2-D fields): each variable gets the bound climate science tolerates
(eb_rel = 1e-5 per Baker et al., cited in Section IV-B) and an adaptive
interval count: with ``adaptive=True`` the compressor retries with more
intervals until the prediction hitting rate reaches ``theta``.

Run:  python examples/climate_compression.py
"""

import repro
from repro.datasets import atm_dataset
from repro.metrics import max_rel_error, psnr


def main() -> None:
    variables = atm_dataset(shape=(384, 768), seed=0)
    rel_bound = 1e-5  # "enough for climate research" (Baker et al.)
    config = repro.SZConfig.from_kwargs(
        mode="rel", bound=rel_bound, adaptive=True
    )

    print(f"{'variable':10s} {'m*':>3s} {'CF':>7s} {'bits/val':>8s} "
          f"{'hit rate':>8s} {'max e_rel':>10s} {'PSNR dB':>8s}")
    total_in = total_out = 0
    for name, field in variables.items():
        if field.max() == field.min():
            print(f"{name:10s}  constant field, skipped")
            continue
        blob, stats = repro.compress_with_stats(field, config=config)
        out = repro.decompress(blob)
        assert max_rel_error(field, out) <= rel_bound
        total_in += field.nbytes
        total_out += len(blob)
        print(
            f"{name:10s} {stats.interval_bits:3d} "
            f"{stats.compression_factor:7.2f} "
            f"{stats.bit_rate:8.2f} {stats.hit_rate:8.1%} "
            f"{max_rel_error(field, out):10.2e} {psnr(field, out):8.1f}"
        )
    print("-" * 60)
    print(f"bundle: {total_in:,} -> {total_out:,} bytes "
          f"(overall CF {total_in / total_out:.2f})")
    print("note: m* = adaptive interval bits chosen per variable (Sec. IV-B)")


if __name__ == "__main__":
    main()
