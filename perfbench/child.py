"""The measured process: one workload's program, timed and checked.

``run.py`` starts this file in fresh interpreters, one at a time, so the
process that runs the program never held the generator's temporaries.
Every role starts with ``import repro`` and one cold pass over the
workload's operations; their time is one set-up sample.  Then:

``reference``
    The checks that need the original data: the error bound
    (``repro.verify_bound``) and the PSNR of one full decode.  It writes
    ``reference.json`` to the work directory -- the ratio, the PSNR and
    the checksums every later output must match -- so the other roles
    check their outputs without holding the original or a reference
    decode.
``main``
    ``--seconds`` of steady-state operations with tracing off (none with
    ``--seconds 0``).
``trace``
    The same steady-state operations twice: once plain and once with
    every layer wrapped (see ``layers.py``).

Every output is checked outside its timing; a failing operation is
counted and the run goes on.  The result is one JSON object on the last
stdout line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import zlib
from collections import defaultdict
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Whole-array workloads: error-bound mode and parameter.
WHOLE_ARRAY = {"hurricane3d": ("rel", 1e-4), "series1d": ("abs", 1e-4)}
TILE = 256
#: ``xray-roi`` spends this share of its steady state on writes and the
#: rest on reads, with at least this many of each; 100 reads put ten
#: beyond p90.
WRITE_SHARE = 0.35
MIN_WRITES = 3
MIN_READS = 100

#: Layers that every compress or decompress passes through.
COMPRESS_LAYERS = (
    "wavefront.quantize", "entropy.encode", "unpredictable.encode",
    "container.write",
)
DECOMPRESS_LAYERS = (
    "wavefront.dequantize", "entropy.decode", "unpredictable.decode",
    "container.read",
)


class Ops:
    """Runs operations one at a time, timing and checking each."""

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)

    def run(self, kind: str, fn: Callable[[], Any],
            check: Callable[[Any], str | None]) -> Any:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn() if self.tracer is None else self.tracer.call(None, fn)
        except Exception as exc:  # a raising operation is counted, not fatal
            self.fail(kind, f"raised {exc!r}")
            return None
        elapsed = time.perf_counter() - t0
        problem = check(out)
        if problem is not None:
            self.fail(kind, problem)
            return None
        self.times[kind].append(elapsed)
        return out

    def fail(self, kind: str, problem: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{kind}: {problem}")

    def total_time(self) -> float:
        return sum(sum(t) for t in self.times.values())

    def count(self) -> int:
        return sum(len(t) for t in self.times.values())


def repeat(step: Callable[[int], None], seconds: float, minimum: int,
           count: int | None = None) -> int:
    """Call ``step(0)``, ``step(1)``, ... for ``seconds`` and at least
    ``minimum`` times, or exactly ``count`` times; return the calls made."""
    t0 = time.perf_counter()
    k = 0
    while (k < count) if count is not None else (
        k < minimum or time.perf_counter() - t0 < seconds
    ):
        step(k)
        k += 1
    return k


def checksum(buf: Any) -> int:
    """CRC32 of the bytes of a blob or a C-contiguous array."""
    return zlib.crc32(memoryview(buf).cast("B"))


def file_checksum(path: Path) -> list[int]:
    """``[length, CRC32]`` of a file, read in 1 MiB pieces."""
    crc = length = 0
    with open(path, "rb") as fh:
        while piece := fh.read(1 << 20):
            crc = zlib.crc32(piece, crc)
            length += len(piece)
    return [length, crc]


def _slabs(n: int, row_values: int) -> Iterator[slice]:
    """Leading-axis slabs of about 2**20 values, to bound check memory."""
    step = max(1, (1 << 20) // max(1, row_values))
    for start in range(0, n, step):
        yield slice(start, start + step)


def bound_violations(repro: Any, original: Any, decoded: Any, mode: str,
                     bound: float) -> int:
    """Points of ``decoded`` that break the bound, per ``repro.verify_bound``.

    Checked slab by slab so the check never sets the process's peak
    memory; a range-relative bound is first resolved against the whole
    array's range, which is what ``verify_bound`` would use.
    """
    if mode == "rel":
        mode = "abs"
        bound *= float(original.max()) - float(original.min())
    row = original[0].size if original.ndim > 1 else 1
    return sum(
        repro.verify_bound(original[sl], decoded[sl], mode, bound)["n_violations"]
        for sl in _slabs(original.shape[0], row)
    )


def psnr_db(np: Any, original: Any, decoded: Any) -> float:
    """PSNR of ``decoded`` against ``original`` (value-range peak)."""
    sse = 0.0
    row = original[0].size if original.ndim > 1 else 1
    for sl in _slabs(original.shape[0], row):
        diff = original[sl].astype(np.float64) - decoded[sl]
        sse += float(np.square(diff).sum(dtype=np.float64))
    rmse = math.sqrt(sse / original.size)
    value_range = float(original.max()) - float(original.min())
    return 20.0 * math.log10(value_range / rmse)


def _mismatch(np: Any, out: Any, shape: tuple[int, ...], dtype: Any) -> str | None:
    if isinstance(out, np.ndarray) and out.shape == shape and out.dtype == dtype:
        return None
    return (f"decoded {getattr(out, 'shape', None)} {getattr(out, 'dtype', None)}, "
            f"expected {shape} {dtype}")


class WholeArray:
    """``Codec.encode`` then ``Codec.decode`` of one in-memory array.

    A single-array container has no tile index, so reading any region of
    it is a whole-array decode: its region reads are the decodes.
    """

    READ = "decompress"
    LAYERS = {"compress": COMPRESS_LAYERS, "decompress": DECOMPRESS_LAYERS}

    def __init__(self, repro: Any, np: Any, name: str, npy: Path,
                 ref: dict[str, Any]) -> None:
        self.repro, self.np, self.ref = repro, np, ref
        self.data = np.load(npy)
        self.shape = self.data.shape
        self.nbytes = self.read_nbytes = self.data.nbytes
        self.mode, self.bound = WHOLE_ARRAY[name]
        self.codec = repro.Codec(
            repro.SZConfig.from_kwargs(mode=self.mode, bound=self.bound, workers=1)
        )

    def cold(self, ops: Ops) -> None:
        self.iteration(ops)

    def reference(self, ops: Ops) -> None:
        """The cold pass's outputs, checked in full, are the reference."""

    def steady(self, ops: Ops, seconds: float,
               counts: dict[str, int] | None = None) -> dict[str, int]:
        n = repeat(lambda _: self.iteration(ops), seconds, 1,
                   None if counts is None else counts["iterations"])
        return {"iterations": n}

    def iteration(self, ops: Ops) -> None:
        blob = ops.run("compress", lambda: self.codec.encode(self.data),
                       self._check_blob)
        if blob is not None:
            ops.run("decompress", lambda: self.codec.decode(blob),
                    self._check_decoded)

    def _check_blob(self, blob: Any) -> str | None:
        key = [len(blob), checksum(blob)]
        if "blob" not in self.ref:  # the reference role's first compress
            self.ref.update(blob=key, ratio=self.nbytes / len(blob))
        elif key != self.ref["blob"]:
            return "container bytes differ from the reference compress"
        return None

    def _check_decoded(self, out: Any) -> str | None:
        data = self.data
        problem = _mismatch(self.np, out, data.shape, data.dtype)
        if problem is not None:
            return problem
        crc = checksum(out)
        if crc == self.ref.get("decoded"):
            return None  # identical to the decode that passed the bound check
        bad = bound_violations(self.repro, data, out, self.mode, self.bound)
        if bad:
            return f"{bad} points break the {self.mode} {self.bound} bound"
        if "decoded" not in self.ref:
            self.ref.update(decoded=crc, psnr_db=psnr_db(self.np, data, out))
        return None


class TiledRoi:
    """Tiled write from a staged ``.npy`` plus region reads from the file.

    Every box is one tile wide and offset half a tile, so each read
    decodes exactly four tiles.  The reads pan across the frame: raster
    order over all 81 such positions, from a seeded start, wrapping
    around.  A read shares two tiles with the read before it and two
    with the row above, whose decode tables are still in the program's
    table cache, while the tables of the previous sweep have been
    evicted.  So nearly every read builds the same number of tables,
    whatever the seed and wherever the run starts.
    """

    READ = "region_read"
    MODE, BOUND = "pw_rel", 1e-3
    LAYERS = {
        "compress": COMPRESS_LAYERS + ("bounds.pw", "chunked.write"),
        "region_read": DECOMPRESS_LAYERS
        + ("bounds.pw", "chunked.open", "chunked.fetch"),
    }

    def __init__(self, repro: Any, np: Any, npy: Path, work: Path, seed: int,
                 ref: dict[str, Any]) -> None:
        self.repro, self.np, self.ref = repro, np, ref
        self.npy, self.path = npy, work / "frame.szt"
        frame = np.load(npy, mmap_mode="r")
        self.shape, self.dtype, self.nbytes = frame.shape, frame.dtype, frame.nbytes
        self.read_nbytes = TILE * TILE * frame.dtype.itemsize
        self.per_axis = frame.shape[0] // TILE - 1  # box positions per axis
        self.start = int(np.random.default_rng(seed).integers(self.per_axis ** 2))
        self.config = repro.SZConfig.from_kwargs(
            mode=self.MODE, bound=self.BOUND, workers=1
        )
        self._unchecked: list[tuple[int, int]] = []

    def _box(self, position: int) -> tuple[slice, slice]:
        i, j = divmod(position, self.per_axis)
        lo_i, lo_j = TILE // 2 + TILE * i, TILE // 2 + TILE * j
        return slice(lo_i, lo_i + TILE), slice(lo_j, lo_j + TILE)

    def write(self, ops: Ops) -> None:
        from repro.chunked.tiled import compress_file_tiled

        ops.run(
            "compress",
            lambda: compress_file_tiled(
                str(self.npy), str(self.path), tile_shape=(TILE, TILE),
                config=self.config,
            ),
            self._check_file,
        )

    def read(self, ops: Ops, n: int) -> None:
        """The ``n``-th read of the sequence."""
        position = (self.start + n) % self.per_axis ** 2
        box = self._box(position)
        ops.run(
            "region_read",
            lambda: self.repro.decompress_region(str(self.path), box),
            lambda out: self._check_box(out, position),
        )

    def cold(self, ops: Ops) -> None:
        self.write(ops)
        self.read(ops, 0)

    def reference(self, ops: Ops) -> None:
        """Bound-check one full decode and record every box's checksum."""
        full = ops.run(
            "decompress",
            lambda: self.repro.decompress_tiled(str(self.path)),
            self._check_full,
        )
        if full is None:
            return
        boxes = [
            checksum(self.np.ascontiguousarray(full[self._box(p)]))
            for p in range(self.per_axis ** 2)
        ]
        self.ref["boxes"] = boxes
        for position, crc in self._unchecked:
            if crc != boxes[position]:
                ops.fail("region_read", "box differs from the full decode")

    def steady(self, ops: Ops, seconds: float,
               counts: dict[str, int] | None = None) -> dict[str, int]:
        writes = repeat(lambda _: self.write(ops), WRITE_SHARE * seconds,
                        MIN_WRITES, None if counts is None else counts["writes"])
        reads = repeat(lambda n: self.read(ops, n), (1 - WRITE_SHARE) * seconds,
                       MIN_READS, None if counts is None else counts["reads"])
        return {"writes": writes, "reads": reads}

    def _check_file(self, _summary: Any) -> str | None:
        key = file_checksum(self.path)
        if "file" not in self.ref:  # the reference role's first write
            self.ref.update(file=key, ratio=self.nbytes / key[0])
        elif key != self.ref["file"]:
            return "container file differs from the reference write"
        return None

    def _check_full(self, out: Any) -> str | None:
        frame = self.np.load(self.npy, mmap_mode="r")
        problem = _mismatch(self.np, out, frame.shape, frame.dtype)
        if problem is not None:
            return problem
        bad = bound_violations(self.repro, frame, out, self.MODE, self.BOUND)
        if bad:
            return f"{bad} points break the {self.MODE} {self.BOUND} bound"
        self.ref["psnr_db"] = psnr_db(self.np, frame, out)
        return None

    def _check_box(self, out: Any, position: int) -> str | None:
        problem = _mismatch(self.np, out, (TILE, TILE), self.dtype)
        if problem is not None:
            return problem
        crc = checksum(out)
        if "boxes" not in self.ref:  # before the reference decode
            self._unchecked.append((position, crc))
        elif crc != self.ref["boxes"][position]:
            return "box differs from the full decode"
        return None


def cache_context(workload: str, shape: tuple[int, ...]) -> dict[str, Any]:
    """The workload's working set against the program's own caches.

    Reads private constants of the program; if a later version renames
    one, the ``AttributeError`` makes the run not ``correct``.
    """
    import repro.core.compressor as compressor
    import repro.core.wavefront as wavefront
    import repro.encoding.huffman as huffman

    tiled = workload == "xray-roi"
    tile_shape = (TILE, TILE) if tiled else shape
    arms = 2 ** len(tile_shape) - 1  # one prediction layer
    table_bytes = [huffman._tables_nbytes(t) for t in huffman._TABLE_CACHE.values()]
    return {
        "gather_table_bytes_needed": (
            arms * math.prod(tile_shape) * 8 if len(tile_shape) > 1 else 0
        ),
        "gather_table_budget": wavefront._TABLE_BYTES_MAX,
        "plan_shapes_used": 1,
        "plan_cache_entries": compressor._PLAN_CACHE_MAX,
        "huffman_tables_in_container": (
            math.prod(s // TILE for s in shape) if tiled else 1
        ),
        "huffman_lru_slots": huffman._TABLE_CACHE_SLOTS,
        "huffman_lru_bytes": huffman._TABLE_CACHE_BYTES,
        "huffman_lru_resident": len(table_bytes),
        "huffman_lru_resident_bytes": sum(table_bytes),
    }


def uncalled_layers(workload: Any, tracer: Any, traced: Ops) -> list[str]:
    """Layers called fewer times than the operations that must reach them."""
    needed: dict[str, int] = defaultdict(int)
    for kind, layers in workload.LAYERS.items():
        for layer in layers:
            needed[layer] += len(traced.times[kind])
    return [
        f"layer {layer} ran {tracer.calls[layer]} times for {n} operations"
        for layer, n in needed.items()
        if tracer.calls[layer] < n
    ]


def per_layer(workload: Any, tracer: Any, collector: Any, traced: Ops,
              plain: Ops, cold_plans: int, cold_plan_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced operations, per operation."""
    n = max(1, traced.count())
    layer_s = tracer.layer_seconds()
    # Plans are built in the cold pass; one rebuilt in steady state
    # (a plan-cache eviction) is charged to the remainder.
    del layer_s["wavefront.plan"]
    op_time = traced.total_time()
    counters = collector.counters
    hits = counters.get("huffman/table_cache_hits", 0.0)
    misses = counters.get("huffman/table_cache_misses", 0.0)
    values = counters.get("quantize/values", 0.0)
    itemsize = workload.nbytes // math.prod(workload.shape)
    returned = len(traced.times[workload.READ]) * workload.read_nbytes // itemsize
    metrics = {f"{layer}_s": seconds / n for layer, seconds in layer_s.items()}
    metrics.update({
        "wavefront.steps": tracer.steps / n,
        "wavefront.plans_built": float(cold_plans),
        "wavefront.plan_s": cold_plan_s,
        "entropy.decode_rounds": counters.get("huffman/rounds", 0.0) / n,
        "entropy.table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "unpredictable.share": (
            counters.get("quantize/outliers", 0.0) / values if values else 0.0
        ),
        "bounds.repairs": counters.get("pw_rel/repairs", 0.0) / n,
        "chunked.read_amplification": (
            tracer.values_decoded / returned if returned else 0.0
        ),
        "unattributed_s": (op_time - sum(layer_s.values())) / n,
        "trace.overhead": op_time / plain.total_time(),
    })
    return metrics


def peak_rss_mb() -> float:
    """Peak resident memory of this process image (``VmHWM``).

    Not ``ru_maxrss``: Linux carries a parent's peak into its child
    across ``exec``, so that would report the input generator's memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WHOLE_ARRAY, "xray-roi"])
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--role", required=True,
                        choices=["reference", "main", "trace"])
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    import_s = time.perf_counter() - t0

    import numpy as np

    npy = args.work / "input.npy"
    ref_path = args.work / "reference.json"
    ref = {} if args.role == "reference" else json.loads(ref_path.read_text())
    if args.workload == "xray-roi":
        workload: Any = TiledRoi(repro, np, npy, args.work, args.seed, ref)
    else:
        workload = WholeArray(repro, np, args.workload, npy, ref)

    errors: list[str] = []
    tracer = None
    if args.role == "trace":
        from layers import LayerTracer

        tracer = LayerTracer()
        errors += [f"layer target {t} not found" for t in tracer.install()]
    cold = Ops(tracer)
    workload.cold(cold)
    phases = [cold]
    result: dict[str, Any] = {"setup_s": import_s + cold.total_time()}

    if args.role == "reference":
        workload.reference(cold)
        ref_path.write_text(json.dumps(ref))
        result["reference"] = {k: ref.get(k) for k in ("ratio", "psnr_db")}
    elif args.role == "main":
        ops = Ops()
        phases.append(ops)
        if args.seconds > 0:
            workload.steady(ops, args.seconds)
        result["times"] = dict(ops.times)
    else:
        from repro.obs import Collector

        result["plans"] = list(tracer.plans)
        cold_plans = tracer.calls["wavefront.plan"]
        cold_plan_s = tracer.layer_seconds()["wavefront.plan"]
        tracer.uninstall()
        tracer.reset()
        plain, traced = Ops(), Ops(tracer)
        phases += [plain, traced]
        counts = workload.steady(plain, args.seconds / 2)
        tracer.install()
        with Collector() as collector:
            workload.steady(traced, 0.0, counts)
        tracer.uninstall()
        errors += uncalled_layers(workload, tracer, traced)
        result["metrics"] = per_layer(
            workload, tracer, collector, traced, plain, cold_plans, cold_plan_s
        )
        result["calls"] = {k: v for k, v in tracer.calls.items() if k is not None}
        result["traced_ops"] = {k: len(v) for k, v in traced.times.items()}

    try:
        result["cache"] = cache_context(args.workload, workload.shape)
    except AttributeError as exc:
        errors.append(f"cache context: {exc}")
    result.update({
        "nbytes": workload.nbytes,
        "read_nbytes": workload.read_nbytes,
        "read_kind": workload.READ,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "errors": errors + [e for p in phases for e in p.errors],
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
