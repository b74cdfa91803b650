"""Anti-diagonal wavefront execution of the prediction/quantization loop.

The paper's Algorithm 1 processes points in raster order; each prediction
must use *preceding decompressed* values so the decompressor can replay
it.  Every stencil offset ``(k1..kd)`` of the ``n``-layer model satisfies
``1 <= k1 + ... + kd <= n*d``, so a point on the coordinate-sum hyperplane
``s = i1 + ... + id`` depends only on the ``n*d`` hyperplanes before it.
Processing hyperplanes in ascending order therefore produces
*bit-identical* results to the sequential scan, while the work inside each
hyperplane is a plain vectorized NumPy kernel — the idiomatic way to make
a data-dependent scan fast in pure Python (vectorize the inner loop; keep
the short loop outside).

The N-d kernels build no index array; ``tests/test_wavefront_identity.py``
pins them byte-identical to the scalar reference:

* **sheared planes** — every hyperplane is one slice of a single strided
  view of the raster over free coordinates that imply one axis's
  coordinate (see :class:`WavefrontPlan`): the compressor reads its
  inputs, and the decompressor writes its output, through it.  A plane's
  points fill a *band* of its bounding box (all of it in 2-D); box cells
  outside the band compute garbage that is never stored.
* **a ring of plane buffers** — the last ``n*d`` reconstructed planes
  live in ``n*d + 1`` zero-bordered buffers, so each stencil arm is a
  shifted, row-contiguous slice of one buffer and the zero border is the
  prologue.
* **wavefront order** — codes and unpredictable values leave a plane by
  a boolean compress over its band: C order over the free coordinates,
  which is exactly a stable sort of the raster by coordinate sum.
* **an interior that follows the data** — float32 data keeps float32
  plane buffers.  Every stored value has already been rounded through
  float32, so the float64 arithmetic upcasts each arm exactly.
* **scratch-buffer reuse** — per-plane temporaries are preallocated at
  the largest box and every ufunc writes through ``out=``; the
  accumulation *order* of the prediction sum is preserved exactly
  (including the ``+0.0`` start that normalizes signed zeros).
* **only what the container reads** — the whole-array buffers a
  compress holds are the quantization offsets (computed in float64
  scratch, stored as float32, which holds every predictable offset
  exactly), the predictable mask and, only with ``keep_recon`` (the
  default), the reconstruction, written in raster order through the
  same sheared view the decompressor writes its output through.  The
  compressor turns it off for ``abs``/``rel``, whose containers never
  read it, so their whole-array buffers take 5 bytes per value instead
  of 13 for float32 data.
* **a batch axis** — the compressor takes a stack of same-shape arrays
  on a leading axis and runs them in lockstep, one NumPy call per
  hyperplane for the whole stack.  No stencil arm reaches across that
  axis, so every member's codes, unpredictable values and
  reconstruction are those of compressing it alone; each member may
  keep its own error bound.  Small arrays pay for per-plane dispatch
  rather than arithmetic, so the tiled writer runs each slab's
  same-shape tiles as one batch; a whole array is a batch of one.

The kernels run in one process; parallelism lives a level up, in tiled
compression, where every tile is an independent array.  One-dimensional
arrays have singleton hyperplanes, so a dedicated tight scalar loop
handles ``d == 1``, one batch member after another.
"""

from __future__ import annotations

from functools import reduce
from itertools import cycle
from math import prod
from typing import Any

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.predictor import prediction_stencil, unit_coeff_signs
from repro.core.quantizer import UNPREDICTABLE, resolve_interior_dtype
from repro.core.unpredictable import truncate_to_bound
from repro.obs.tracer import span

__all__ = ["WavefrontPlan", "wavefront_compress", "wavefront_decompress"]

#: Read only by the benchmark in ``perfbench/``; no gather table is built.
_TABLE_BYTES_MAX = 128 * 1024 * 1024


class WavefrontResult:
    """Everything the container needs, plus compression diagnostics.

    ``codes`` are the quantization codes in wavefront order as
    ``uint16``: an ``m``-bit code is below ``2^m`` and ``m <= 16``
    (:func:`repro.core.quantizer.interval_radius`), so every code fits,
    at a quarter of an int64's bytes from the kernel to the container.

    ``decompressed`` — the exact array a decompressor will reconstruct,
    in raster order — exists only when the kernel ran with
    ``keep_recon=True`` (its default): the ``pw_rel`` repair and the
    ``psnr`` check read it, the plain ``abs``/``rel`` encode path does
    not, so the compressor runs those without it.
    """

    __slots__ = ("codes", "unpredictable", "hit_rate", "_recon")

    def __init__(
        self,
        codes: np.ndarray,
        unpredictable: np.ndarray,
        hit_rate: float,
        recon: np.ndarray | None,
    ) -> None:
        self.codes = codes
        self.unpredictable = unpredictable
        self.hit_rate = hit_rate
        self._recon = recon

    @property
    def decompressed(self) -> np.ndarray:
        if self._recon is None:
            raise RuntimeError(
                "no reconstruction: the kernel ran with keep_recon=False"
            )
        return self._recon


class WavefrontPlan:
    """Hyperplane geometry of the sheared wavefront for one array shape.

    Each plane implies the coordinate of one axis, ``moving``, from its
    free coordinates: ``i_a`` for the axes before it and, for each later
    axis ``a``, ``sum_(k>a) (N_k - 1 - i_k)``.  Each is a prefix sum of
    the coordinates plus a per-plane constant, so C order over them is
    wavefront order.  The plan implies the axis whose boxes hold the
    fewest cells: the last one, unless it is short (an ``(H, W, 3)``
    field implies ``W``), which keeps each box near its band.

    Per plane ``s`` it keeps its range in wavefront order (``groups``),
    its bounding box over the free coordinates (``boxes``) and, in 3-D
    and up, which box cells are points (``bands``).  A plan depends only
    on ``(shape, n)``; the compressor builds one per kernel pass and one
    per decompress, and nothing caches it.
    """

    #: Kept only because the benchmark in ``perfbench/`` reads them; no
    #: gather table exists.
    gather_tables = None
    table_bytes = 0

    def __init__(self, shape: tuple[int, ...], n: int) -> None:
        if any(s <= 0 for s in shape):
            raise ValueError(f"degenerate shape: {shape}")
        self.shape = tuple(int(s) for s in shape)
        self.n = int(n)
        self.ndim = d = len(self.shape)
        self.offsets, self.coeffs = prediction_stencil(self.n, self.ndim)
        # Each arm's (coefficient, accumulate op).  An all-±1 stencil
        # (n == 1) adds or subtracts its arms; c * arm with c = ±1.0 is
        # bitwise ±arm, so skipping the multiply is exact.
        signs = unit_coeff_signs(self.coeffs)
        self.terms: list[tuple[float | None, np.ufunc]] = (
            [(float(c), np.add) for c in self.coeffs] if signs is None
            else [(None, np.add if sg > 0 else np.subtract) for sg in signs]
        )
        self.groups: list[tuple[int, int]] = []
        if d == 1:
            return  # 1-D uses the dedicated scalar kernels
        top = sum(self.shape) - d
        # Points per hyperplane: the coefficients of the polynomial
        # prod_j (1 + x + ... + x^(N_j - 1)).
        counts = reduce(
            np.convolve, [np.ones(s, dtype=np.int64) for s in self.shape]
        )
        ends = np.cumsum(counts, dtype=np.int64).tolist()
        self.groups = list(zip([0] + ends[:-1], ends))
        # On plane s an earlier axis spans [s - top + N_a - 1, s] and a
        # later one [tail_a - s, top - s], clipped to [0, N_a - 1] and
        # [0, tail_a], where tail_a = sum_(k>a) (N_k - 1).
        tail = [sum(self.shape[a + 1:]) - (d - 1 - a) for a in range(d)]
        s = np.arange(top + 1, dtype=np.int64)
        lead = [(np.maximum(0, s - top + N - 1), np.minimum(N, s + 1))
                for N in self.shape[:-1]]
        trail = [(np.maximum(0, t - s), np.minimum(t, top - s) + 1)
                 for t in tail[:-1]]
        # Box cells per plane when axis m is implied (axis 0 would give
        # axis 1's boxes).
        sizes = {
            m: np.prod([hi - lo for lo, hi in lead[:m] + trail[m:]],
                       axis=0, dtype=np.int64)
            for m in range(d - 1, 0, -1)
        }
        # Fewest box cells; ties keep the later axis (no band mask in 2-D).
        self.moving = mv = min(
            sizes, key=lambda m: int(sizes[m].sum(dtype=np.int64))
        )
        self.max_box = int(sizes[mv].max())
        self.extent = [*self.shape[:mv], *(t + 1 for t in tail[mv:-1])]
        self.boxes = list(zip(*[map(slice, lo.tolist(), hi.tolist())
                                for lo, hi in lead[:mv] + trail[mv:]]))
        # Where plane s's box sits in a sheared view.
        self._cells = [(p, *box) for p, box in enumerate(self.boxes)]
        self.bands: list[np.ndarray | None] = [None] * (top + 1)
        if d > 2:
            self.bands = self._build_bands(top, tail[mv])

    def _build_bands(self, top: int, tail: int) -> list[np.ndarray]:
        """Per plane, which box cells are points.

        Cell ``c`` of plane ``s`` has moving coordinate ``s - tail - L(c)``
        (``tail`` sums ``N_k - 1`` over the later axes) for a linear ``L``
        with coefficient 1 before ``moving``, -1 on the first later axis
        and 0 after it, so one 1-D mask over ``L(c) - s``, viewed with
        those strides, covers every plane in O(sum of the axes) bytes.
        Two or more later axes add a fixed mask: ``N_k - 1 - i_k`` is a
        difference of free coordinates.
        """
        d, mv, ext = self.ndim, self.moving, self.extent
        coef = [1] * mv + [-1] * (mv < d - 1) + [0] * (d - 2 - mv)
        lmin = sum(min(0, c * (e - 1)) for c, e in zip(coef, ext))
        lmax = sum(max(0, c * (e - 1)) for c, e in zip(coef, ext))
        # Entry u of the mask stands for L(c) - s = u - top + lmin.
        implied = top - lmin - tail - np.arange(
            lmax - lmin + top + 1, dtype=np.int64
        )
        mask = (implied >= 0) & (implied < self.shape[mv])
        view = as_strided(
            mask[top - lmin:], shape=(top + 1, *ext), strides=(-1, *coef),
            writeable=False,
        )
        if mv >= d - 2:
            return [view[cells] for cells in self._cells]
        # Later axes a-1, a: N_a - 1 - i_a = c_(a-1) - c_a must be in range.
        fixed = np.ones(ext[mv:], dtype=bool)
        free = np.ix_(*[np.arange(e) for e in ext[mv:]])
        for a in range(mv + 1, d - 1):
            r = free[a - 1 - mv] - free[a - mv]
            fixed &= (r >= 0) & (r < self.shape[a])
        return [view[cells] & fixed[cells[1 + mv:]] for cells in self._cells]

    def sheared(self, flat: np.ndarray, writeable: bool = False) -> np.ndarray:
        """The ``(planes, *extent)`` view of a flat C-order raster.

        Entry ``[s, c]`` is the point of plane ``s`` with free coordinates
        ``c``.  The flat index is affine in ``(s, c)`` and grows with
        every free coordinate, and both corners of each plane's box lie
        inside the raster, so every box cell does, band or not.  A
        ``(B, size)`` stack of rasters gives a ``(B, planes, *extent)``
        view, one member per leading index.
        """
        d, mv, item = self.ndim, self.moving, flat.itemsize
        stride = [prod(self.shape[a + 1:]) for a in range(d)]
        # Built with the later axes reversed (free coordinate
        # sum_(k>a) i_k, which puts entry [0, 0, ...] at raster index 0),
        # then flipped back.
        view = as_strided(
            flat, shape=(*flat.shape[:-1], len(self.groups), *self.extent),
            strides=[*flat.strides[:-1], item * stride[mv]]
            + [item * (stride[a] - stride[mv]) for a in range(mv)]
            + [item * (stride[a + 1] - stride[a]) for a in range(mv, d - 1)],
            writeable=writeable,
        )
        return view[(slice(None),) * (flat.ndim + mv)
                    + (slice(None, None, -1),) * (d - 1 - mv)]

    def ring(
        self, dtype: np.dtype, batch: int | None = None
    ) -> list[tuple[np.ndarray, list[Any]]]:
        """Zeroed plane buffers for one kernel run.

        Returns, per ring phase ``s % (n*d + 1)``, the view plane ``s``
        writes and its stencil terms ``(coefficient, op, arm view)`` in
        stencil order.  Indexing a view with ``boxes[s]`` gives plane
        ``s``'s cells.  An arm moves an axis before ``moving`` down by
        its offset and a later axis up by the offsets after it, so the
        zero border sits below the former and above the latter.  Only
        band cells are written, so an arm reaching outside the array
        reads zero: it lands in the border or on a cell no plane wrote
        (later axes' ranges do not depend on the plane, and a buffer
        cell's moving coordinate only grows from plane to plane).

        With ``batch``, every buffer and view gains a leading axis of
        that many members; no arm shifts along it, so members never read
        each other's cells, and boxes index it as ``(slice(None), *box)``.
        """
        n, d, mv = self.n, self.ndim, self.moving
        depth = n * d + 1
        lead = () if batch is None else (batch,)
        every = (slice(None),) * len(lead)
        border = [n] * mv + [n * (d - 1 - a) for a in range(mv, d - 1)]
        bufs = [np.zeros([*lead, *(e + b for e, b in zip(self.extent, border))],
                         dtype=dtype)
                for _ in range(depth)]
        own = every + (slice(n, None),) * mv + (slice(0, None),) * (d - 1 - mv)
        reach = self.offsets.sum(axis=1, dtype=np.int64).tolist()
        starts = [
            [n - k for k in ks[:mv]]
            + [sum(ks[a + 1:]) for a in range(mv, d - 1)]
            for ks in self.offsets.tolist()
        ]
        return [
            (bufs[p][own],
             [(c, op,
               bufs[(p - r) % depth][every + tuple(slice(k, None) for k in ks)])
              for (c, op), ks, r in zip(self.terms, starts, reach)])
            for p in range(depth)
        ]

    def to_raster(self, values: np.ndarray) -> np.ndarray:
        """Scatter a wavefront-order array (codes, values) to raster order."""
        if self.ndim == 1:
            return values.reshape(self.shape)
        out = np.empty(self.shape, dtype=values.dtype)
        view = self.sheared(out.reshape(-1), writeable=True)
        for cells, band, (start, end) in zip(self._cells, self.bands, self.groups):
            if band is None:
                view[cells] = values[start:end]
            else:
                view[cells][band] = values[start:end]
        return out


def wavefront_compress(
    data: np.ndarray,
    eb: float | np.ndarray,
    plan: WavefrontPlan,
    radius: int,
    *,
    keep_recon: bool = True,
) -> WavefrontResult | list[WavefrontResult]:
    """Run prediction + error-controlled quantization over ``data``.

    Returns codes and unpredictable originals in wavefront order, plus
    the exact array a decompressor will reconstruct, in raster order.
    With ``keep_recon=False`` the kernel stores no reconstruction, which
    saves one array of the input's size; the codes and unpredictable
    values are the same bytes, and ``decompressed`` raises.

    ``data`` of one more axis than ``plan.shape`` is a *batch*: a stack
    of independent members that run in lockstep, one NumPy call per
    hyperplane for all of them.  ``eb`` is then one bound for every
    member or one per member, and the call returns one result per
    member, each identical to compressing that member alone.
    """
    with span("quantize", bytes=data.nbytes):
        if data.ndim == len(plan.shape):
            return _wavefront_compress(
                data[None], eb, plan, radius, keep_recon
            )[0]
        return _wavefront_compress(data, eb, plan, radius, keep_recon)


def _wavefront_compress(
    batch: np.ndarray,
    eb: float | np.ndarray,
    plan: WavefrontPlan,
    radius: int,
    keep_recon: bool,
) -> list[WavefrontResult]:
    B = len(batch)
    shared = np.ndim(eb) == 0
    member_eb = [float(eb)] * B if shared else [float(e) for e in eb]
    if plan.ndim == 1:
        return [_compress_1d(x, e, plan.n, radius, keep_recon)
                for x, e in zip(batch, member_eb)]
    out_dtype = batch.dtype
    idt = resolve_interior_dtype(out_dtype)
    n_points = prod(plan.shape)
    flat = np.ascontiguousarray(batch).reshape(B, n_points)
    src = plan.sheared(flat)
    # A kept reconstruction is written in raster order, as the
    # decompressor writes its output.
    dec = np.empty((B, n_points), dtype=idt) if keep_recon else None
    dst = None if dec is None else plan.sheared(dec, writeable=True)
    # Deferred code materialization: raw quantization offsets and the
    # predictable mask accumulate per plane; one vectorized epilogue
    # turns them into codes (cheaper than per-plane int casts).  The
    # offsets are computed in float64 scratch and stored as float32,
    # exactly: a predictable offset is an integer with |q| < radius
    # <= 2^15, and the wild ones sit at misses, which the epilogue
    # zeroes before its cast.
    q_wf = np.empty((B, n_points), dtype=np.float32)
    ok_wf_all = np.empty((B, n_points), dtype=bool)
    # Unpredictable originals per plane, member after member, and how
    # many each member contributed.
    unpred_chunks: list[np.ndarray] = []
    unpred_counts: list[np.ndarray] = []
    wide = np.float64 if idt == np.float32 else None
    # One bound per member broadcasts along the box axes.
    eb_arr = np.array(member_eb)
    ebs = eb if shared else eb_arr.reshape(B, *[1] * (plan.ndim - 1))
    two_eb = 2.0 * ebs
    fradius = float(radius)
    # Scratch buffers at the largest box; every per-plane ufunc writes
    # through out= into a contiguous view of these, shaped like the box.
    size = B * plan.max_box
    pred_s = np.empty(size, dtype=np.float64)
    tmp_s = np.empty(size, dtype=np.float64)
    diff_s = np.empty(size, dtype=np.float64)
    q_s = np.empty(size, dtype=np.float64)
    mask_s = np.empty(size, dtype=bool)
    if plan.ndim > 2:  # band planes stage their results in the box
        ok_s = np.empty(size, dtype=bool)
        rc_s = np.empty(size, dtype=idt)
    every = (slice(None),)  # the member axis leads every per-plane array
    planes = zip(
        plan.groups, plan.boxes, plan._cells, plan.bands,
        cycle(plan.ring(idt, B)),
    )
    with np.errstate(invalid="ignore", over="ignore"):
        for (start, end), box, cells, band, (own_box, terms) in planes:
            box, cells = every + box, every + cells
            if band is None:  # 2-D: the box is the plane
                shape, m = (B, end - start), B * (end - start)
                ok = ok_wf = ok_wf_all[:, start:end]
                recon = own_box[box]
            else:
                shape, m = (B, *band.shape), B * band.size
                ok = ok_s[:m].reshape(shape)
                recon = rc_s[:m].reshape(shape)
                # A mask of the stack's own shape, not the slower mixed
                # index [:, band]; a batch of one takes the free view
                # band[None] (broadcast_to costs ~6 us a plane).
                stacked = band[None] if B == 1 else np.broadcast_to(band, shape)
            qoff = q_s[:m].reshape(shape)
            pred = pred_s[:m].reshape(shape)
            diff = diff_s[:m].reshape(shape)
            err = tmp_s[:m].reshape(shape)
            bounded = mask_s[:m].reshape(shape)
            # Prediction: the stencil sum in stencil order, starting from
            # +0.0 (the first term takes the scalar) — bit-identical to
            # `pred = 0; pred += c * arm` for every arm.
            acc = 0.0
            for c, op, arm in terms:
                nbr = arm[box]
                if c is not None:
                    nbr = np.multiply(nbr, c, out=err, dtype=np.float64)
                acc = op(acc, nbr, out=pred)
            # Inlined error-controlled quantization (same operations, in
            # the same order, as repro.core.quantizer.quantize — kept
            # bit-identical; pinned by tests/test_wavefront_identity.py).
            x = src[cells]
            np.subtract(x, pred, out=diff)
            np.divide(diff, two_eb, out=diff)
            np.rint(diff, out=qoff)
            np.abs(qoff, out=diff)
            np.less(diff, fradius, out=ok)  # ok = within the code range
            np.multiply(qoff, two_eb, out=diff)
            # recon = pred + offset, rounded through the interior dtype
            # (the output dtype for float32 data; identity for float64).
            np.add(pred, diff, out=recon)
            # float32 x and recon would subtract in float32; upcast both.
            np.subtract(x, recon, out=err, dtype=wide)
            np.abs(err, out=err)
            # |x - recon| <= eb also rejects non-finite x and recon.
            np.less_equal(err, ebs, out=bounded)
            np.logical_and(ok, bounded, out=ok)
            if band is None:
                q_wf[:, start:end] = qoff
            else:
                q_wf[:, start:end] = qoff[stacked].reshape(B, -1)
                ok_wf = ok_wf_all[:, start:end]
                ok_wf[...] = ok[stacked].reshape(B, -1)
            if not ok_wf.all():
                miss = bounded
                np.logical_not(ok, out=miss)
                if band is not None:
                    np.logical_and(miss, band, out=miss)
                originals = x[miss]
                counts = np.count_nonzero(miss.reshape(B, -1), axis=1)
                unpred_chunks.append(originals)
                unpred_counts.append(counts)
                recon[miss] = truncate_to_bound(
                    originals, eb if shared else np.repeat(eb_arr, counts)
                )
            if band is not None:
                np.copyto(own_box[box], recon, where=band)
            if dst is not None:
                if band is None:
                    dst[cells] = recon
                else:
                    np.copyto(dst[cells], recon, where=band)

    codes, unpredictable = _materialize_codes(
        q_wf, ok_wf_all, unpred_chunks, unpred_counts, fradius, out_dtype
    )
    return [
        WavefrontResult(
            codes[b], unpredictable[b],
            1.0 - unpredictable[b].size / max(1, n_points),
            None if dec is None else dec[b].reshape(plan.shape),
        )
        for b in range(B)
    ]


def _materialize_codes(
    qall: np.ndarray,
    ok_all: np.ndarray,
    unpred_chunks: list[np.ndarray],
    unpred_counts: list[np.ndarray],
    fradius: float,
    out_dtype: np.dtype,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Turn accumulated offsets + predictable mask into final codes.

    Returns the ``(B, points)`` uint16 codes and each member's
    unpredictable originals in wavefront order.  A predictable offset
    lies strictly inside ``(-radius, radius)``, so its code lies in
    ``[1, 2 * radius)`` and ``radius <= 2^15`` (``m <= 16``) makes every
    code fit.
    """
    B = len(qall)
    if not unpred_chunks:
        codes = np.add(qall, fradius, out=qall).astype(np.uint16)
        return codes, [np.zeros(0, dtype=out_dtype) for _ in range(B)]
    miss_all = np.logical_not(ok_all)
    # Wild offsets (outside the code range) sit at miss positions;
    # zero them before the int cast to avoid undefined conversions.
    np.copyto(qall, 0.0, where=miss_all)
    codes = np.add(qall, fradius, out=qall).astype(np.uint16)
    codes[miss_all] = UNPREDICTABLE
    # Each plane's chunk is member-major; a stable sort by member keeps
    # every member's values in wavefront order.
    counts = np.stack(unpred_counts)
    member = np.repeat(np.tile(np.arange(B), len(counts)), counts.ravel())
    values = np.concatenate(unpred_chunks)[np.argsort(member, kind="stable")]
    ends = np.cumsum(counts.sum(axis=0, dtype=np.int64), dtype=np.int64)
    return codes, np.split(values, ends[:-1])


def wavefront_decompress(
    codes: np.ndarray,
    unpred_recon: np.ndarray,
    plan: WavefrontPlan,
    eb: float,
    radius: int,
    out_dtype: np.dtype,
) -> np.ndarray:
    """Replay prediction from codes; inverse of :func:`wavefront_compress`."""
    nbytes = prod(plan.shape) * np.dtype(out_dtype).itemsize
    with span("dequantize", bytes=nbytes):
        return _wavefront_decompress(
            codes, unpred_recon, plan, eb, radius, out_dtype
        )


def _wavefront_decompress(
    codes: np.ndarray,
    unpred_recon: np.ndarray,
    plan: WavefrontPlan,
    eb: float,
    radius: int,
    out_dtype: np.dtype,
) -> np.ndarray:
    if len(plan.shape) == 1:
        return _decompress_1d(
            codes, unpred_recon, plan.shape[0], plan.n, eb, radius, out_dtype
        )
    out_dtype = np.dtype(out_dtype)
    idt = resolve_interior_dtype(out_dtype)
    miss_all = codes == UNPREDICTABLE
    # Where each plane's unpredictable values start in unpred_vals:
    # misses before its first point.  Searching the miss positions
    # costs memory per miss, not 8 bytes per point.
    miss_at = np.flatnonzero(miss_all)
    _check_unpred_count(miss_at.size, unpred_recon)
    unpred_vals = unpred_recon.astype(idt, copy=False)
    upos = np.searchsorted(
        miss_at, [start for start, _ in plan.groups] + [codes.size]
    ).tolist()
    out = np.empty(plan.shape, dtype=out_dtype)
    dst = plan.sheared(out.reshape(-1), writeable=True)
    two_eb = 2.0 * eb
    fradius = float(radius)
    size = plan.max_box
    pred_s = np.empty(size, dtype=np.float64)
    tmp_s = np.empty(size, dtype=np.float64)
    work_s = np.empty(size, dtype=np.float64)
    if plan.ndim > 2:
        rc_s = np.empty(size, dtype=idt)
        mask_s = np.empty(size, dtype=bool)
    planes = zip(
        plan.groups, plan.boxes, plan._cells, plan.bands, cycle(plan.ring(idt)),
        upos[:-1], upos[1:],
    )
    # Box cells outside the band replay stale scratch values; whatever
    # they overflow to is discarded.
    with np.errstate(invalid="ignore", over="ignore"):
        for (start, end), box, cells, band, (own_box, terms), u0, u1 in planes:
            if band is None:  # 2-D: the box is the plane, no reshape
                m = end - start
                pred, tmp, work = pred_s[:m], tmp_s[:m], work_s[:m]
                work[...] = codes[start:end]  # int64 -> float64 cast
                recon = own_box[box]
            else:
                shape, m = band.shape, band.size
                pred = pred_s[:m].reshape(shape)
                tmp = tmp_s[:m].reshape(shape)
                work = work_s[:m].reshape(shape)
                recon = rc_s[:m].reshape(shape)
                work[band] = codes[start:end]
            acc = 0.0  # the compressor's prediction sum
            for c, op, arm in terms:
                nbr = arm[box]
                if c is not None:
                    nbr = np.multiply(nbr, c, out=tmp, dtype=np.float64)
                acc = op(acc, nbr, out=pred)
            np.subtract(work, fradius, out=work)
            np.multiply(work, two_eb, out=work)
            # recon = pred + offset, rounded through the interior dtype.
            np.add(pred, work, out=recon)
            if u0 != u1:
                if band is None:
                    recon[miss_all[start:end]] = unpred_vals[u0:u1]
                else:
                    miss = mask_s[:m].reshape(shape)
                    miss.fill(False)
                    miss[band] = miss_all[start:end]
                    recon[miss] = unpred_vals[u0:u1]
            if band is None:
                dst[cells] = recon
            else:
                np.copyto(own_box[box], recon, where=band)
                np.copyto(dst[cells], recon, where=band)
    return out


def _check_unpred_count(n_miss: int, unpred_recon: np.ndarray) -> None:
    """Reject a stream whose UNPREDICTABLE codes and stored values differ.

    Run before the replay loop, so a corrupt stream fails with this
    message in either direction instead of partway through the loop.
    """
    if n_miss != unpred_recon.size:
        raise ValueError(
            "corrupt stream: unpredictable-value count mismatch "
            f"({n_miss} unpredictable codes, {unpred_recon.size} stored)"
        )


def _compress_1d(
    data: np.ndarray, eb: float, n: int, radius: int, keep_recon: bool
) -> WavefrontResult:
    """Sequential scalar kernel for 1-D arrays (singleton hyperplanes)."""
    out_dtype = data.dtype
    coeffs = prediction_stencil(n, 1)[1].tolist()
    x64 = data.astype(np.float64)
    N = x64.size
    dec = np.zeros(N + n, dtype=np.float64)  # n-element zero prologue
    codes = np.zeros(N, dtype=np.uint16)
    unpred_idx: list[int] = []
    two_eb = 2.0 * eb
    xs = x64.tolist()
    cast = out_dtype.type
    for i in range(N):
        pred = 0.0
        for k in range(n):
            pred += coeffs[k] * dec[i + n - 1 - k]
        x = xs[i]
        d = (x - pred) / two_eb
        # The range gate is also the NaN/Inf guard: a non-finite x (or a
        # prediction poisoned by a raw-stored Inf neighbour) fails the
        # comparison and falls through to the unpredictable path, exactly
        # like the vectorized N-d kernel.
        if -radius < d < radius:
            q = round(d)
            if -radius < q < radius:
                recon = float(cast(pred + q * two_eb))
                if abs(x - recon) <= eb and np.isfinite(recon):
                    codes[i] = q + radius
                    dec[i + n] = recon
                    continue
        unpred_idx.append(i)
        dec[i + n] = float(
            truncate_to_bound(np.array([x], dtype=out_dtype), eb)[0]
        )
    unpredictable = data[np.array(unpred_idx, dtype=np.int64)] if unpred_idx else np.zeros(0, dtype=out_dtype)
    hit_rate = 1.0 - len(unpred_idx) / max(1, N)
    recon = dec[n:].astype(out_dtype) if keep_recon else None
    return WavefrontResult(codes, unpredictable, hit_rate, recon)


def _decompress_1d(
    codes: np.ndarray,
    unpred_recon: np.ndarray,
    N: int,
    n: int,
    eb: float,
    radius: int,
    out_dtype: np.dtype,
) -> np.ndarray:
    _check_unpred_count(
        int((codes == UNPREDICTABLE).sum(dtype=np.int64)), unpred_recon
    )
    coeffs = prediction_stencil(n, 1)[1].tolist()
    dec = np.zeros(N + n, dtype=np.float64)
    codes_l = codes.tolist()
    unpred64 = unpred_recon.astype(np.float64).tolist()
    upos = 0
    two_eb = 2.0 * eb
    cast = np.dtype(out_dtype).type
    for i in range(N):
        code = codes_l[i]
        if code == UNPREDICTABLE:
            dec[i + n] = unpred64[upos]
            upos += 1
        else:
            pred = 0.0
            for k in range(n):
                pred += coeffs[k] * dec[i + n - 1 - k]
            dec[i + n] = float(cast(pred + (code - radius) * two_eb))
    return dec[n:].astype(out_dtype)
