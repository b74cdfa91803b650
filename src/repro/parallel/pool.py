"""Process-pool parallel compression of independent chunks.

The paper's off-line parallel mode: "an MPI program or a script can be
used to load the data into multiple processes and run the compression
separately on them ... without inter-process communications."  With no
communication, a process pool is the faithful single-node equivalent of
one MPI rank per file.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.core import compress as sz_compress
from repro.obs.tracer import Collector, active_collector

__all__ = [
    "parallel_compress",
    "parallel_decompress",
    "measure_pool_scaling",
    "chunk_array",
    "pool_map",
]


def chunk_array(data: np.ndarray, n_chunks: int) -> list[np.ndarray]:
    """Split along the first axis into near-equal independent chunks.

    The *effective* chunk count is ``min(n_chunks, data.shape[0])`` — an
    axis cannot be split finer than one row per chunk — and equals
    ``len()`` of the returned list; callers that size a worker pool from
    the request must use that length, not ``n_chunks``.
    """
    if n_chunks <= 0:
        raise ValueError("n_chunks must be positive")
    data = np.asarray(data)
    if data.ndim == 0:
        raise ValueError("cannot chunk a 0-d (scalar) array: no axis to split")
    n_chunks = min(n_chunks, data.shape[0])
    return [np.ascontiguousarray(c) for c in np.array_split(data, n_chunks)]


def _telemetry_job(args):
    """Run one item under a fresh worker-local collector.

    Dispatched instead of the bare ``fn`` when the parent had a
    :class:`~repro.obs.Collector` active: context variables do not cross
    process boundaries, so the worker activates its own and ships the
    collected telemetry back with the result for the parent to merge.
    """
    fn, item = args
    with Collector() as collector:
        result = fn(item)
    return result, collector.to_payload()


def pool_map(
    fn,
    items: list,
    n_workers: int | None = None,
    executor: ProcessPoolExecutor | None = None,
) -> list:
    """``map(fn, items)`` over a process pool, order preserved.

    ``fn`` must be picklable (a module-level function).  With one worker
    (or one item) the map runs in-process — results are identical either
    way, so callers get deterministic output independent of worker count.
    Otherwise the map runs on ``executor`` when given (the caller owns
    it and shuts it down), else on a pool opened and shut down here.

    Telemetry crosses the pool: when the caller has an active
    :class:`~repro.obs.Collector`, each worker runs its item under a
    fresh local collector and returns its payload alongside the result;
    the parent grafts the worker spans under its open span, with
    per-item attribution and a lane per worker process, and folds in
    the worker metrics.
    """
    n_workers = n_workers or os.cpu_count() or 1
    if n_workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if executor is None:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return pool_map(fn, items, n_workers, pool)
    collector = active_collector()
    if collector is None:
        return list(executor.map(fn, items))
    shipped = list(
        executor.map(_telemetry_job, [(fn, item) for item in items])
    )
    results = []
    for i, (result, payload) in enumerate(shipped):
        collector.merge_payload(payload, attrs={"item": i})
        results.append(result)
    return results


def _compress_worker(args) -> bytes:
    chunk, kwargs = args
    return sz_compress(chunk, **kwargs)


def _decompress_worker(blob: bytes) -> np.ndarray:
    # Lazy import: repro.chunked builds on this module, so the dispatch
    # to tiled containers cannot be a top-level import.
    from repro.chunked import decompress_any

    return decompress_any(blob)


def parallel_compress(
    chunks: list[np.ndarray],
    n_workers: int | None = None,
    **compress_kwargs,
) -> list[bytes]:
    """Compress independent chunks across a process pool."""
    n_workers = n_workers or os.cpu_count() or 1
    if n_workers == 1:
        return [sz_compress(c, **compress_kwargs) for c in chunks]
    return pool_map(
        _compress_worker,
        [(c, compress_kwargs) for c in chunks],
        n_workers=n_workers,
    )


def parallel_decompress(
    blobs: list[bytes], n_workers: int | None = None
) -> list[np.ndarray]:
    """Decompress independent containers (v1 or tiled v2) across a pool."""
    n_workers = n_workers or os.cpu_count() or 1
    if n_workers == 1:
        return [_decompress_worker(b) for b in blobs]
    return pool_map(_decompress_worker, blobs, n_workers=n_workers)


def measure_pool_scaling(
    data: np.ndarray,
    proc_counts: list[int],
    **compress_kwargs,
) -> list[dict]:
    """Measured strong scaling on this machine (Tables VII/VIII, local part).

    The array is pre-split into ``max(proc_counts)`` chunks so every run
    compresses identical work; each row reports wall-clock speed for one
    pool size.
    """
    max_procs = max(proc_counts)
    chunks = chunk_array(data, max_procs)
    total_bytes = sum(c.nbytes for c in chunks)
    rows = []
    base_speed = None
    for p in proc_counts:
        t0 = time.perf_counter()
        blobs = parallel_compress(chunks, n_workers=p, **compress_kwargs)
        comp_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel_decompress(blobs, n_workers=p)
        decomp_t = time.perf_counter() - t0
        row = {
            "processes": p,
            "comp_speed_mb_s": total_bytes / 1e6 / comp_t,
            "decomp_speed_mb_s": total_bytes / 1e6 / decomp_t,
        }
        if base_speed is None:
            base_speed = row["comp_speed_mb_s"]
        row["speedup"] = row["comp_speed_mb_s"] / base_speed
        row["efficiency"] = row["speedup"] / p
        rows.append(row)
    return rows
