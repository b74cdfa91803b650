#!/usr/bin/env python
"""Production workflow example: archive a multi-variable snapshot,
inspect it, extract selectively, and verify quality — the paper's
off-line many-files mode (Section VI) as a library API.

Run:  python examples/archive_workflow.py
"""

import numpy as np

import repro
from repro.datasets import hurricane_dataset
from repro.metrics.report import evaluate
from repro.parallel.files import archive_info, create_archive, extract


def main() -> None:
    snapshot = hurricane_dataset(shape=(16, 64, 64), seed=3)

    print("1. archive the whole snapshot (one container per variable):")
    archive = create_archive(arrays=snapshot, mode="rel", bound=1e-4)
    total_in = sum(v.nbytes for v in snapshot.values())
    print(f"   {len(snapshot)} variables, {total_in:,} -> {len(archive):,} "
          f"bytes (CF {total_in / len(archive):.2f})\n")

    print("2. inspect without decompressing:")
    for row in archive_info(archive):
        print(f"   {row['name']:8s} {str(row['shape']):14s} "
              f"{row['dtype']:8s} CF {row['cf']:6.2f}")

    print("\n3. extract one variable and run the full quality report:")
    u = extract(archive, "U")
    report = evaluate(
        snapshot["U"],
        lambda d: repro.compress(d, mode="rel", bound=1e-4),
        repro.decompress,
    )
    assert np.array_equal(u.shape, snapshot["U"].shape)
    print(report.to_markdown())
    print(f"\n   bound respected: {report.within(rel_bound=1e-4)}")

    print("\n4. moisture spans decades -> point-wise relative bounds:")
    qv = snapshot["QVAPOR"]
    blob = repro.compress(qv, mode="pw_rel", bound=1e-3)
    out = repro.decompress(blob)
    nz = qv != 0
    pw_err = np.max(
        np.abs(out[nz].astype(np.float64) - qv[nz].astype(np.float64))
        / np.abs(qv[nz].astype(np.float64))
    )
    print(f"   CF {qv.nbytes / len(blob):.2f}, worst point-wise relative "
          f"error {pw_err:.2e} (bound 1e-3)")


if __name__ == "__main__":
    main()
