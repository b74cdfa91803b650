"""Canonical Huffman coding for arbitrary alphabet sizes.

The paper (Section IV-A) points out that off-the-shelf Huffman coders work
byte-by-byte (256 symbols) while SZ-1.4 needs ``2^m`` quantization codes
with ``m`` possibly larger than 8, so it re-implements Huffman for any
alphabet size.  This module does the same for the reproduction:

* tree construction over any alphabet, with an iterative frequency-halving
  length limiter so codewords never exceed ``max_code_length``;
* canonical code assignment (codes derivable from lengths alone, so only
  the length table is serialized);
* a fully vectorized encoder built on :func:`repro.encoding.bitio.pack_varlen`;
* a *block-parallel* vectorized decoder: the symbol stream is chunked at
  encode time, per-chunk bit lengths are recorded, and decoding advances
  all chunks (lanes) in lockstep.  A scalar reference decoder is kept for
  verification.

One decoder serves every code.  Its table maps each 16-bit window to the
row of whole codewords it holds (up to ``min(8, 16 // shortest code)``
symbols), their count and their cumulative bits.  A round gathers one
64-bit window per lane and chains three lookups off it; each lookup
stores its whole row at the lane's output cursor, which then advances by
the row's count, so the next store overwrites the unused tail.  A window
whose first code is longer than 16 bits escapes to a two-level table
(13-bit primary prefix table + per-prefix subtables), which keeps memory
bounded up to 32-bit codes.  The last few symbols of every lane decode
in clamped rounds that store exactly what is left.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.encoding.bitio import (
    BitReader,
    BitWriter,
    _pack_via_windows,
    _packed_words,
    _words_to_bytes,
    byte_windows64,
    gather_windows64,
)
from repro.obs.tracer import active_collector, span

__all__ = [
    "HuffmanCodec",
    "EncodedStream",
    "huffman_code_lengths",
    "symbol_histogram",
]

_PRIMARY_BITS = 13
_DEFAULT_BLOCK = 4096
_WINDOW_MATERIALIZE_LIMIT = 64 << 20
"""Payloads up to this many bytes decode against a precomputed 8-byte
window array (8x payload RAM, ~3x faster rounds); larger ones gather
windows per round to keep peak memory bounded."""

_ROW_BITS = 16
"""Window width of the row table: each lookup decodes every whole
codeword inside a 16-bit window (up to ``_ROW_SYMS``).  A window whose
first code is longer escapes to the two-level table."""

_ROW_SYMS = 8
"""Cap on the symbols of one row, which bounds the table at
``2^16 * (3 * k + 1)`` bytes for uint16 symbols (1.6 MB at k = 8)."""

_SAFE_WINDOW_BITS = 57
"""Usable bits of a gathered 8-byte window: the byte-aligned gather is
shifted left by the cursor's bit skew (up to 7), zero-filling the low
bits, so only ``64 - 7`` leading bits are guaranteed real.  Chained
lookups must stay inside this budget."""

_CHAIN = _SAFE_WINDOW_BITS // _ROW_BITS
"""Row lookups a fast round chains off one gathered window (3)."""

_PACK_CHUNK = 1 << 20
"""Symbols the encoder gathers and packs per step.  The packer's uint64
temporaries (fold rounds, window positions) scale with this, not with
the stream, so a whole-array encode holds no 8-byte-per-symbol array."""


def huffman_code_lengths(
    freqs: np.ndarray, max_code_length: int = 24
) -> np.ndarray:
    """Compute Huffman code lengths for the given symbol frequencies.

    Parameters
    ----------
    freqs
        Non-negative counts, one per symbol.  Symbols with zero frequency
        get length 0 (no codeword).
    max_code_length
        Upper bound on any codeword length.  When the unconstrained tree
        exceeds it, frequencies are iteratively halved (zlib-style) and the
        tree rebuilt; this converges because halving flattens the
        distribution toward uniform.

    Returns
    -------
    int64 array of code lengths (0 for absent symbols).
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise ValueError("freqs must be one-dimensional")
    if freqs.size and freqs.min() < 0:
        raise ValueError("frequencies must be non-negative")
    present = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.int64)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    if max_code_length < int(np.ceil(np.log2(present.size))):
        raise ValueError(
            f"max_code_length={max_code_length} cannot address "
            f"{present.size} symbols"
        )
    work = freqs[present].astype(np.int64)
    while True:
        depths = _tree_depths(work)
        if depths.max() <= max_code_length:
            break
        work = np.maximum(work >> 1, 1)
    lengths[present] = depths
    return lengths


def symbol_histogram(symbols: np.ndarray, alphabet_size: int) -> np.ndarray:
    """``np.bincount(symbols, minlength=alphabet_size)`` taken
    :data:`_PACK_CHUNK` symbols at a time: bincount copies its input to
    intp first, four times the size of the compressor's uint16 codes."""
    symbols = np.asarray(symbols).ravel()
    counts: np.ndarray = np.zeros(alphabet_size, dtype=np.intp)
    for lo in range(0, symbols.size, _PACK_CHUNK):
        part = np.bincount(symbols[lo : lo + _PACK_CHUNK], minlength=counts.size)
        part[: counts.size] += counts
        counts = part
    return counts


def _tree_depths(freqs: np.ndarray) -> np.ndarray:
    """Depth of each leaf in a Huffman tree over ``freqs`` (all > 0)."""
    n = freqs.size
    # Heap items: (frequency, tie-break serial, node id).  Node ids < n are
    # leaves; internal nodes get ids >= n.  parent[] lets us read depths off
    # the forest afterwards without recursion.
    heap = [(int(f), i, i) for i, f in enumerate(freqs)]
    heapq.heapify(heap)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    next_id = n
    while len(heap) > 1:
        f1, _, a = heapq.heappop(heap)
        f2, _, b = heapq.heappop(heap)
        parent[a] = next_id
        parent[b] = next_id
        heapq.heappush(heap, (f1 + f2, next_id, next_id))
        next_id += 1
    depths = np.zeros(n, dtype=np.int64)
    # Depth of node = depth of parent + 1; compute top-down by id order
    # (parents always have larger ids than children).
    depth_all = np.zeros(2 * n - 1, dtype=np.int64)
    for node in range(2 * n - 3, -1, -1):
        depth_all[node] = depth_all[parent[node]] + 1
    depths[:] = depth_all[:n]
    return depths


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords given code lengths (0 = absent)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    present = np.flatnonzero(lengths)
    if present.size == 0:
        return codes
    max_len = int(lengths.max())
    bl_count = np.bincount(lengths[present], minlength=max_len + 1)
    next_code = np.zeros(max_len + 1, dtype=np.uint64)
    code = 0
    for length in range(1, max_len + 1):
        code = (code + int(bl_count[length - 1])) << 1
        next_code[length] = code
    # Symbols sorted by (length, symbol) receive consecutive codes within
    # each length class.
    order = present[np.lexsort((present, lengths[present]))]
    lens_sorted = lengths[order]
    # rank within each length class
    change = np.concatenate(([True], lens_sorted[1:] != lens_sorted[:-1]))
    class_start = np.maximum.accumulate(np.where(change, np.arange(order.size), 0))
    rank = np.arange(order.size) - class_start
    codes[order] = next_code[lens_sorted] + rank.astype(np.uint64)
    return codes


@dataclass(frozen=True)
class _TwoLevelTables:
    """Primary prefix table + per-prefix subtables: the escape for
    windows whose first code is longer than ``_ROW_BITS``.

    A primary entry resolves a codeword of at most ``_PRIMARY_BITS`` bits
    or, when negative, names the ``secondary`` chunk that the next
    ``sub_depth`` bits index.
    """

    primary: np.ndarray  # int64 (2^_PRIMARY_BITS,), (sym << 6) | len
    secondary: np.ndarray  # int64, concatenated subtable chunks
    sub_base: np.ndarray  # int64, chunk start offsets into secondary
    sub_depth: int


@dataclass(frozen=True)
class _DecodeTables:
    """The row table of one code, and its escape.

    Indexed by a 16-bit window, row ``syms[w]`` holds the whole
    codewords that begin the window, up to ``k`` of them, in the decoded
    symbol dtype; slots past ``count[w]`` hold symbols that a later
    store overwrites.  ``cumbits[j, w]`` is the bits the first ``j + 1``
    of them take, so ``cumbits[k - 1]`` is the row's total.  A window
    whose first code is longer than 16 bits, or that no code begins (a
    Kraft deficit), has count 0 and total 0.  The decoder sends it to
    ``escape``, the two-level table, which is ``None`` when every code
    fits 16 bits: such a window is then a corrupt stream.
    """

    k: int
    syms: np.ndarray  # symbol dtype (2^16, k)
    count: np.ndarray  # uint8 (2^16,)
    cumbits: np.ndarray  # uint8 (k, 2^16)
    escape: _TwoLevelTables | None


def _sorted_present(
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Present symbols and their lengths in canonical (length, symbol) order.

    Canonical codes in this order are consecutive within each length
    class and left-aligned codewords tile the decode-table index space
    contiguously from 0 — the property both table builders rely on.
    """
    present = np.flatnonzero(lengths)
    order = present[np.lexsort((present, lengths[present]))]
    return order, lengths[order]


def _symbol_dtype(alphabet_size: int) -> np.dtype:
    """The narrowest of uint16/uint32 holding every symbol."""
    if alphabet_size <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def _build_row_tables(lengths: np.ndarray, max_len: int) -> _DecodeTables:
    size = 1 << _ROW_BITS
    order, lens_sorted = _sorted_present(lengths)
    short = lens_sorted <= _ROW_BITS
    # Canonical tiling: short symbol i (in canonical order) owns the
    # contiguous 2^(16 - len) windows starting at code << (16 - len);
    # the long codes and any Kraft deficit leave the tail to no code.
    reps = 1 << (_ROW_BITS - lens_sorted[short])
    total = int(reps.sum(dtype=np.int64))
    dtype = _symbol_dtype(lengths.size)
    sym1 = np.zeros(size, dtype=dtype)
    sym1[:total] = np.repeat(order[short], reps)
    len1 = np.zeros(size, dtype=np.int64)
    len1[:total] = np.repeat(lens_sorted[short], reps)
    # A window no code begins reads as a code too long to fit.
    fit = np.where(len1 > 0, len1, _ROW_BITS + 1)
    min_len = int(lens_sorted[0]) if order.size else _ROW_BITS
    k = max(1, min(_ROW_SYMS, _ROW_BITS // min_len))
    syms = np.empty((size, k), dtype=dtype)
    cumbits = np.empty((k, size), dtype=np.uint8)
    count = (len1 > 0).astype(np.uint8)
    syms[:, 0] = sym1
    cum = len1
    cumbits[0] = cum
    idx = np.arange(size, dtype=np.int64)
    for j in range(1, k):
        # After ``cum`` bits the window's tail (zero filled below bit 0)
        # indexes the next codeword, which counts only if it fits the
        # real bits: the prefix property makes the zero fill safe.  A
        # row that stops stays stopped, since ``cum`` no longer moves
        # and the same window fails again.
        nxt = (idx << cum) & (size - 1)
        reach = cum + fit[nxt]
        ok = reach <= _ROW_BITS
        syms[:, j] = sym1[nxt]
        np.copyto(cum, reach, where=ok)
        cumbits[j] = cum
        count += ok
    escape = _build_two_level_tables(lengths) if max_len > _ROW_BITS else None
    return _DecodeTables(k, syms, count, cumbits, escape)


def _build_two_level_tables(lengths: np.ndarray) -> _TwoLevelTables:
    order, lens_sorted = _sorted_present(lengths)
    max_len = int(lens_sorted[-1]) if order.size else 1
    sub_depth = max(max_len - _PRIMARY_BITS, 0)
    # The canonical tiling again, entries (sym << 6) | len: short codes
    # tile the primary from slot 0, and the long ones continue it at
    # max_len bits, one ``secondary`` chunk per primary slot they reach.
    entries = (order << 6) | lens_sorted
    short = lens_sorted <= _PRIMARY_BITS
    head = np.repeat(entries[short], 1 << (_PRIMARY_BITS - lens_sorted[short]))
    tail_reps = 1 << (max_len - lens_sorted[~short])
    tail_size = int(tail_reps.sum(dtype=np.int64))
    n_sub = -(-tail_size >> sub_depth)
    # Counted before allocating: a Kraft-valid but corrupt table can ask
    # for thousands of deep subtables, while codes of at most 24 bits
    # need at most 2^13 chunks of 2^11 entries: exactly this budget.
    nbytes = 8 * (n_sub << sub_depth)
    if nbytes > _TABLE_CACHE_BYTES:
        raise ValueError(
            f"corrupt Huffman table: {n_sub} decode subtables of "
            f"2^{sub_depth} entries would take {nbytes} bytes, over the "
            f"{_TABLE_CACHE_BYTES}-byte table budget"
        )
    primary = np.zeros(1 << _PRIMARY_BITS, dtype=np.int64)
    primary[: head.size] = head
    primary[head.size : head.size + n_sub] = -np.arange(1, n_sub + 1)
    secondary = np.zeros(n_sub << sub_depth, dtype=np.int64)
    secondary[:tail_size] = np.repeat(entries[~short], tail_reps)
    sub_base = np.arange(n_sub, dtype=np.int64) << sub_depth
    return _TwoLevelTables(primary, secondary, sub_base, sub_depth)


_TABLE_CACHE: OrderedDict[bytes, _DecodeTables] = OrderedDict()
_TABLE_CACHE_LOCK = threading.Lock()
_TABLE_CACHE_SLOTS = 64
_TABLE_CACHE_BYTES = 128 << 20
"""Process-level decode-table LRU: tiled decompression parses one codec
per tile, and re-reading the same container (repeated region queries,
a second full decode) re-parses the same length tables — the tables
(the expensive part) are reusable.  Keyed by the canonical lengths
array's bytes alone.  Evicts on slot count *and* total table bytes: a
row table is at most 1.6 MB (2.7 MB for uint32 symbols), but a
two-level escape may take this whole budget (its builder refuses
more), so slots alone would not bound memory.  The slot count must
comfortably exceed a typical container's distinct-table count: cyclic
tile order over an LRU smaller than the working set evicts every entry
just before its next use (0% hit rate at N tables > N slots), so small
tile tables should be bounded by bytes, not slots."""


def _tables_nbytes(tables: _DecodeTables) -> int:
    arrays = [tables.syms, tables.count, tables.cumbits]
    if tables.escape is not None:
        esc = tables.escape
        arrays += [esc.primary, esc.secondary, esc.sub_base]
    return sum(int(a.nbytes) for a in arrays)


def _decode_tables_for(lengths: np.ndarray, max_len: int) -> _DecodeTables:
    key = lengths.tobytes()  # szlint: ignore[SZ104] — hashable cache key, one copy per table build
    with _TABLE_CACHE_LOCK:
        hit = _TABLE_CACHE.get(key)
        if hit is not None:
            _TABLE_CACHE.move_to_end(key)
    collector = active_collector()
    if hit is not None:
        if collector is not None:
            collector.add("huffman/table_cache_hits")
        return hit
    if collector is not None:
        collector.add("huffman/table_cache_misses")
    tables = _build_row_tables(lengths, max_len)
    with _TABLE_CACHE_LOCK:
        _TABLE_CACHE[key] = tables
        total = sum(_tables_nbytes(t) for t in _TABLE_CACHE.values())
        while len(_TABLE_CACHE) > 1 and (
            len(_TABLE_CACHE) > _TABLE_CACHE_SLOTS
            or total > _TABLE_CACHE_BYTES
        ):
            _, evicted = _TABLE_CACHE.popitem(last=False)
            total -= _tables_nbytes(evicted)
    return tables


def _window_gatherer(payload: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``gather(pos)``: for each bit position, the stream bits from
    there left-aligned in a uint64, of which at least
    ``_SAFE_WINDOW_BITS`` are real (zero filled past the payload).

    Payloads up to ``_WINDOW_MATERIALIZE_LIMIT`` bytes gather from a
    precomputed window array; larger ones gather each round's windows
    from the payload bytes (:func:`gather_windows64`).  A corrupt cursor
    past the end reads the all-padding window, so it cannot escape the
    payload.
    """
    if payload.size <= _WINDOW_MATERIALIZE_LIMIT:
        windows = byte_windows64(payload)

        def gather(pos: np.ndarray) -> np.ndarray:
            skew = (pos & 7).view(np.uint64)
            window: np.ndarray = windows.take(pos >> 3, mode="clip") << skew
            return window

    else:
        padded = np.concatenate([payload, np.zeros(8, dtype=np.uint8)])
        last = payload.size

        def gather(pos: np.ndarray) -> np.ndarray:
            skew = (pos & 7).view(np.uint64)
            byte0 = np.minimum(pos >> 3, last)
            window: np.ndarray = gather_windows64(padded, byte0) << skew
            return window

    return gather


def _escape(
    esc: _TwoLevelTables | None, window: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Symbol and length of the code each left-aligned ``window``
    begins with, through the two-level table; raises on a codeword the
    code does not have."""
    if esc is None:
        raise ValueError("corrupt Huffman stream: invalid codeword")
    entry = esc.primary[(window >> np.uint64(64 - _PRIMARY_BITS)).view(np.int64)]
    deep = entry < 0
    if deep.any():
        low = window[deep] >> np.uint64(64 - _PRIMARY_BITS - esc.sub_depth)
        entry[deep] = esc.secondary[
            esc.sub_base[-entry[deep] - 1]
            + (low.view(np.int64) & ((1 << esc.sub_depth) - 1))
        ]
    if not entry.all():
        raise ValueError("corrupt Huffman stream: invalid codeword")
    return entry >> 6, entry & 63


def _fast_rounds(
    out: np.ndarray,
    tables: _DecodeTables,
    gather: Callable[[np.ndarray], np.ndarray],
    cur: np.ndarray,
    opos: np.ndarray,
    oend: np.ndarray,
) -> tuple[int, int]:
    """Full-row rounds over the lanes with room for them; returns the
    rounds and lookups run.

    A round chains ``_CHAIN`` lookups off one gathered window per lane.
    Each stores its lookup's whole row at the lane's output cursor
    through a row-sized view of ``out`` at symbol stride, and the cursor
    advances by the row's count.  A lane takes part while ``_CHAIN * k``
    of its symbols are left, so every store stays inside its block, and
    the next store (or a tail round) overwrites the unused slots.  A
    lookup that decodes nothing leaves its window unmoved, so the chain
    stalls on it: the lane's last lookup then has count 0, and one
    two-level escape decodes the long code from a fresh window.  A
    lane's bit cursor ``cur`` and output cursor ``opos`` are written
    back when it leaves.
    """
    k = tables.k
    reach = _CHAIN * k  # most symbols one round decodes in a lane
    lanes = np.flatnonzero(oend - opos >= reach)
    if not lanes.size:
        return 0, 0
    row = np.dtype((np.void, k * out.itemsize))
    out_rows = np.ndarray(
        (out.size - k + 1,), dtype=row, buffer=out, strides=(out.itemsize,)
    )
    sym_rows = tables.syms.view(row).reshape(-1)
    count, total = tables.count, tables.cumbits[k - 1]
    shift = 64 - _ROW_BITS
    l_cur, l_opos = cur[lanes], opos[lanes]
    l_last = oend[lanes] - reach  # a lane stays while l_opos <= l_last
    slack = int((l_last - l_opos).min())  # lower bound of the smallest gap
    rounds = lookups = 0
    while lanes.size:
        rounds += 1
        lookups += _CHAIN * lanes.size
        window = gather(l_cur)
        idx = (window >> shift).view(np.int64)
        out_rows[l_opos] = sym_rows.take(idx)
        got = count[idx]
        l_opos += got
        used = total[idx]  # uint8: at most _CHAIN * 16 bits
        for _ in range(_CHAIN - 1):
            idx = ((window << used) >> shift).view(np.int64)
            out_rows[l_opos] = sym_rows.take(idx)
            got = count[idx]
            l_opos += got
            used += total[idx]
        l_cur += used
        if np.count_nonzero(got) < got.size:
            stalled = np.flatnonzero(got == 0)
            sym, bits = _escape(tables.escape, gather(l_cur[stalled]))
            out[l_opos[stalled]] = sym
            l_opos[stalled] += 1
            l_cur[stalled] += bits
        slack -= reach
        if slack < 0:
            gap = l_last - l_opos
            slack = int(gap.min())
            if slack < 0:
                leave = gap < 0
                cur[lanes[leave]] = l_cur[leave]
                opos[lanes[leave]] = l_opos[leave]
                keep = ~leave
                lanes, l_cur, l_opos, l_last = (
                    lanes[keep], l_cur[keep], l_opos[keep], l_last[keep]
                )
                slack = int(gap[keep].min()) if lanes.size else 0
    return rounds, lookups


def _tail_rounds(
    out: np.ndarray,
    tables: _DecodeTables,
    gather: Callable[[np.ndarray], np.ndarray],
    cur: np.ndarray,
    opos: np.ndarray,
    oend: np.ndarray,
) -> tuple[int, int]:
    """Clamped rounds that finish every lane: one lookup per lane,
    storing only as many of its row's symbols as the lane has left.
    Leaves each lane's final bit cursor in ``cur``; returns the rounds
    and lookups run."""
    lanes = np.flatnonzero(opos < oend)
    l_cur, l_opos = cur[lanes], opos[lanes]
    l_left = oend[lanes] - l_opos
    cols = np.arange(tables.k, dtype=np.int64)
    shift = 64 - _ROW_BITS
    rounds = lookups = 0
    while lanes.size:
        rounds += 1
        lookups += lanes.size
        window = gather(l_cur)
        idx = (window >> shift).view(np.int64)
        take = np.minimum(tables.count[idx], l_left)
        # ``take - 1`` is -1 where nothing decodes: the escape below
        # replaces those lanes' bits.
        bits = tables.cumbits[take - 1, idx]
        emit = cols < take[:, None]
        out[(l_opos[:, None] + cols)[emit]] = tables.syms[idx][emit]
        if not take.all():
            stalled = np.flatnonzero(take == 0)
            sym, length = _escape(tables.escape, window[stalled])
            out[l_opos[stalled]] = sym
            take[stalled] = 1
            bits[stalled] = length
        l_cur += bits
        l_opos += take
        l_left -= take
        done = l_left == 0
        if done.any():
            cur[lanes[done]] = l_cur[done]
            keep = ~done
            lanes, l_cur, l_opos, l_left = (
                lanes[keep], l_cur[keep], l_opos[keep], l_left[keep]
            )
    return rounds, lookups


@dataclass(frozen=True)
class EncodedStream:
    """A Huffman-encoded symbol stream with block index for parallel decode."""

    n_symbols: int
    block_size: int
    block_bits: np.ndarray  # uint64, bits consumed by each block
    payload: np.ndarray  # uint8

    @property
    def total_bits(self) -> int:
        return int(self.block_bits.sum(dtype=np.uint64))

    def to_bytes(self) -> bytes:
        # Every field is a whole number of bytes (48 + 32 + 48 header bits,
        # 40 bits per block index entry), so the stream serializes as plain
        # big-endian byte runs — no bit packing needed.  Byte-identical to
        # the original BitWriter formulation (golden blobs pin this).
        head = (
            self.n_symbols.to_bytes(6, "big")
            + self.block_size.to_bytes(4, "big")
            + len(self.payload).to_bytes(6, "big")
        )
        index = (
            self.block_bits.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 3:]
        )
        return head + index.tobytes() + self.payload.tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes | memoryview) -> "EncodedStream":
        if len(buf) < 16:
            raise EOFError("truncated EncodedStream header")
        n_symbols = int.from_bytes(buf[0:6], "big")
        block_size = int.from_bytes(buf[6:10], "big")
        payload_len = int.from_bytes(buf[10:16], "big")
        if block_size == 0 and n_symbols > 0:
            raise ValueError(
                f"corrupt EncodedStream: block_size is 0 for {n_symbols} "
                "symbols"
            )
        nblocks = (
            0 if n_symbols == 0 else -(-n_symbols // block_size)
        )
        if len(buf) < 16 + 5 * nblocks:
            raise EOFError("truncated EncodedStream block index")
        index = np.frombuffer(
            buf, dtype=np.uint8, count=5 * nblocks, offset=16
        ).reshape(-1, 5)
        widened = np.zeros((nblocks, 8), dtype=np.uint8)
        widened[:, 3:] = index
        block_bits = widened.view(">u8").ravel().astype(np.uint64)
        header_bytes = 16 + 5 * nblocks
        payload = np.frombuffer(
            buf, dtype=np.uint8, count=payload_len, offset=header_bytes
        )
        stream = cls(n_symbols, block_size, block_bits, payload)
        # Every codeword is at least one bit long and inside the payload;
        # a forged symbol count fails here, before a decoder allocates.
        if not n_symbols <= stream.total_bits <= 8 * payload_len:
            raise ValueError(
                f"corrupt EncodedStream: block index holds "
                f"{stream.total_bits} bits for {n_symbols} symbols in a "
                f"{payload_len}-byte payload"
            )
        return stream


class HuffmanCodec:
    """Canonical Huffman codec over an arbitrary integer alphabet.

    Build with :meth:`from_frequencies` or :meth:`from_lengths`; the length
    table is the complete description of the code (canonical assignment).
    """

    #: hard cap on codeword length — bounds decode-table memory even for
    #: adversarial (corrupted) length tables
    MAX_DECODE_LEN = 32

    def __init__(self, lengths: np.ndarray) -> None:
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.lengths.ndim != 1:
            raise ValueError("length table must be one-dimensional")
        self.max_len = int(self.lengths.max()) if self.lengths.size else 0
        if self.max_len > self.MAX_DECODE_LEN:
            raise ValueError(
                f"code length {self.max_len} exceeds the "
                f"{self.MAX_DECODE_LEN}-bit decoder limit (corrupt table?)"
            )
        if self.lengths.size and self.lengths.min() < 0:
            raise ValueError("negative code length (corrupt table?)")
        # Exact Kraft sum in units of 2^-32 (a float sum rounds 1 + 2^-32
        # to 1): an over-full code tiles past the decode tables' end.
        present = self.lengths[self.lengths > 0]
        units = int(np.sum(1 << (self.MAX_DECODE_LEN - present), dtype=np.int64))
        if units > 1 << self.MAX_DECODE_LEN:
            raise ValueError(
                f"length table violates the Kraft inequality "
                f"({units} / 2^{self.MAX_DECODE_LEN} > 1): not a prefix code"
            )
        self.codes = _canonical_codes(self.lengths)
        self._decode_tables: _DecodeTables | None = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_frequencies(
        cls, freqs: np.ndarray, max_code_length: int = 24
    ) -> "HuffmanCodec":
        return cls(huffman_code_lengths(freqs, max_code_length))

    @classmethod
    def from_symbols(
        cls, symbols: np.ndarray, alphabet_size: int, max_code_length: int = 24
    ) -> "HuffmanCodec":
        freqs = symbol_histogram(symbols, alphabet_size)
        return cls.from_frequencies(freqs, max_code_length)

    @property
    def alphabet_size(self) -> int:
        return self.lengths.size

    @property
    def symbol_dtype(self) -> np.dtype:
        """The narrowest of uint16/uint32 holding every symbol: what
        :meth:`decode` returns."""
        return _symbol_dtype(self.alphabet_size)

    # -- table (de)serialization ----------------------------------------

    def write_table(self, w: BitWriter) -> None:
        """Serialize the length table with run-length tokens.

        Token grammar (MSB-first)::

            '1'  + 6-bit len              one symbol of this length
            '01' + 16-bit n               run of n absent symbols (len 0)
            '00' + 6-bit len + 12-bit n   run of n symbols, same length

        Tokens are built as value/width arrays in one vectorized pass
        (each token is a single multi-field integer — concatenating the
        fields MSB-first is associative) and bulk-appended, so a 65537
        symbol table costs a handful of NumPy calls instead of a
        per-symbol Python loop.  Byte-identical to
        :meth:`write_table_scalar` (tested).
        """
        w.write(self.alphabet_size, 32)
        lengths = self.lengths
        if lengths.size == 0:
            return
        # Run-length boundaries, then split runs into grammar-capped chunks.
        edges = np.flatnonzero(
            np.concatenate(([True], lengths[1:] != lengths[:-1]))
        )
        run_vals = lengths[edges]
        run_lens = np.diff(np.concatenate((edges, [lengths.size])))
        caps = np.where(run_vals == 0, (1 << 16) - 1, (1 << 12) - 1)
        nchunks = -(-run_lens // caps)
        owner = np.repeat(np.arange(run_vals.size), nchunks)
        sizes = caps[owner].copy()
        last = np.cumsum(nchunks, dtype=np.int64) - 1
        sizes[last] = run_lens - (nchunks - 1) * caps
        vals = run_vals[owner]
        tok_vals = np.where(
            vals == 0,
            (0b01 << 16) | sizes,  # '01' + 16-bit zero-run count
            np.where(
                sizes == 1,
                (0b1 << 6) | vals,  # '1' + 6-bit length
                (vals << 12) | sizes,  # '00' + 6-bit length + 12-bit count
            ),
        )
        tok_bits = np.where(vals == 0, 18, np.where(sizes == 1, 7, 20))
        w.write_array(tok_vals.astype(np.uint64), tok_bits)

    def write_table_scalar(self, w: BitWriter) -> None:
        """Per-run scalar reference for :meth:`write_table` (cross-checked)."""
        w.write(self.alphabet_size, 32)
        lengths = self.lengths
        i = 0
        n = lengths.size
        while i < n:
            j = i
            while j < n and lengths[j] == lengths[i]:
                j += 1
            run = j - i
            val = int(lengths[i])
            if val == 0:
                while run > 0:
                    chunk = min(run, (1 << 16) - 1)
                    w.write(0b01, 2)
                    w.write(chunk, 16)
                    run -= chunk
            elif run == 1:
                w.write(0b1, 1)
                w.write(val, 6)
            else:
                while run > 0:
                    chunk = min(run, (1 << 12) - 1)
                    if chunk == 1:
                        w.write(0b1, 1)
                        w.write(val, 6)
                    else:
                        w.write(0b00, 2)
                        w.write(val, 6)
                        w.write(chunk, 12)
                    run -= chunk
            i = j

    MAX_ALPHABET = 1 << 24

    @classmethod
    def read_table(cls, r: BitReader) -> "HuffmanCodec":
        """Parse a length table (inverse of :meth:`write_table`).

        Reads whole 20-bit token windows from a precomputed 8-byte
        window array (:func:`repro.encoding.bitio.byte_windows64`)
        instead of three ``BitReader.read`` calls per token — the
        per-symbol loop this replaces dominated table parsing for
        16-bit alphabets.  Behaviour matches
        :meth:`read_table_scalar` exactly, corrupt inputs included
        (same bits are visible to both parsers).
        """
        alphabet = r.read(32)
        if alphabet > cls.MAX_ALPHABET:
            raise ValueError(
                f"alphabet size {alphabet} exceeds limit (corrupt table?)"
            )
        lengths = np.zeros(alphabet, dtype=np.int64)
        buf = r.data
        end_bits = buf.size * 8
        pos = r.bitpos
        # Window only the table region (a valid table is at most ~20 bits
        # per token), extending on demand, so parsing never materializes
        # 8x the whole container.
        win_base = pos >> 3
        win_len = min(buf.size - win_base, ((20 * (alphabet + 2)) >> 3) + 16)
        windows = byte_windows64(buf[win_base : win_base + win_len])
        i = 0
        while i < alphabet:
            if pos + 7 > end_bits:  # shortest token is 7 bits
                # Delegate the ragged tail to the scalar reader so EOF
                # behaviour (message and position) matches it exactly.
                r.seek(pos)
                return cls._read_table_tail(r, lengths, i, alphabet)
            rel = (pos >> 3) - win_base
            if rel + 8 > win_len and win_base + win_len < buf.size:
                win_len = min(buf.size - win_base, 2 * win_len + 16)
                windows = byte_windows64(buf[win_base : win_base + win_len])
            w = int(windows[rel]) >> (44 - (pos & 7))  # 20-bit window
            if w & 0x80000:  # '1' + 6-bit length
                lengths[i] = (w >> 13) & 0x3F
                i += 1
                pos += 7
            elif w & 0x40000:  # '01' + 16-bit zero-run
                if pos + 18 > end_bits:
                    r.seek(pos)
                    return cls._read_table_tail(r, lengths, i, alphabet)
                i += (w >> 2) & 0xFFFF
                pos += 18
            else:  # '00' + 6-bit length + 12-bit run
                if pos + 20 > end_bits:
                    r.seek(pos)
                    return cls._read_table_tail(r, lengths, i, alphabet)
                val = (w >> 12) & 0x3F
                run = w & 0xFFF
                lengths[i : i + run] = val
                i += run
                pos += 20
        r.seek(pos)
        if i != alphabet:
            raise ValueError("corrupt Huffman table: token overrun")
        return cls(lengths)

    @classmethod
    def _read_table_tail(
        cls, r: BitReader, lengths: np.ndarray, i: int, alphabet: int
    ) -> "HuffmanCodec":
        """Finish a table parse near the buffer end with scalar reads."""
        while i < alphabet:
            if r.read(1):
                lengths[i] = r.read(6)
                i += 1
            elif r.read(1):
                i += r.read(16)
            else:
                val = r.read(6)
                run = r.read(12)
                lengths[i : i + run] = val
                i += run
        if i != alphabet:
            raise ValueError("corrupt Huffman table: token overrun")
        return cls(lengths)

    @classmethod
    def read_table_scalar(cls, r: BitReader) -> "HuffmanCodec":
        """Per-token scalar reference for :meth:`read_table` (cross-checked)."""
        alphabet = r.read(32)
        if alphabet > cls.MAX_ALPHABET:
            raise ValueError(
                f"alphabet size {alphabet} exceeds limit (corrupt table?)"
            )
        lengths = np.zeros(alphabet, dtype=np.int64)
        return cls._read_table_tail(r, lengths, 0, alphabet)

    # -- encoding --------------------------------------------------------

    def encode(
        self,
        symbols: np.ndarray,
        block_size: int = _DEFAULT_BLOCK,
        validate: bool = True,
    ) -> EncodedStream:
        """Encode a symbol array into a blocked canonical-Huffman stream.

        Integer symbols are taken in their own dtype (the compressor's
        uint16 quantization codes index the tables as they are); any
        other input is cast to int64.  Lengths and codewords come from
        narrow copies of the tables — uint8 lengths, uint32 codewords
        (codes are at most :attr:`MAX_DECODE_LEN` = 32 bits) — and the
        stream is packed :data:`_PACK_CHUNK` symbols at a time into one
        word buffer sized from the lengths, carrying the bit offset from
        chunk to chunk.  No temporary spans the whole stream at more than
        one byte per symbol.  A block may straddle two chunks; its bit
        count is the sum of its per-chunk partial sums.

        ``validate=False`` skips the range/zero-frequency scans for
        callers that construct the codec from the very histogram of
        ``symbols`` (every appearing symbol then has a codeword by
        construction).
        """
        symbols = np.asarray(symbols)
        if symbols.dtype.kind not in "iu":
            symbols = symbols.astype(np.int64)
        symbols = symbols.ravel()
        n = symbols.size
        collector = active_collector()
        if collector is not None and self.lengths.size:
            present = self.lengths[self.lengths > 0]
            if present.size:
                collector.hist(
                    "huffman/code_lengths",
                    np.bincount(present).tolist(),
                )
                collector.observe("huffman/table_depth", float(self.max_len))
                collector.observe("huffman/table_symbols", float(present.size))
        with span("huffman_encode", bytes=symbols.nbytes):
            if validate and n and (
                symbols.min() < 0 or symbols.max() >= self.alphabet_size
            ):
                raise ValueError("symbol out of alphabet range")
            # Lengths pass: each chunk's code lengths, added into the bit
            # counts of the blocks touching it (the first may have begun
            # in an earlier chunk); their total sizes the word buffer.
            # np.take indexes by an intp copy of the chunk's symbols:
            # twice as fast as fancy indexing by uint16, and bounded by
            # the chunk.
            len_table = self.lengths.astype(np.uint8)
            lens = np.empty(n, dtype=np.uint8)
            block_bits = np.zeros(-(-n // block_size), dtype=np.uint64)
            for lo in range(0, n, _PACK_CHUNK):
                hi = min(lo + _PACK_CHUNK, n)
                np.take(len_table, symbols[lo:hi], out=lens[lo:hi])
                first = lo // block_size
                cuts = np.arange(first * block_size, hi, block_size) - lo
                np.maximum(cuts, 0, out=cuts)
                block_bits[first : first + cuts.size] += np.add.reduceat(
                    lens[lo:hi], cuts, dtype=np.uint64
                )
            if validate and n and lens.min() == 0:
                raise ValueError(
                    "symbol with no codeword (zero frequency) seen"
                )
            total = int(block_bits.sum(dtype=np.uint64))
            out64 = np.zeros(_packed_words(total), dtype=np.uint64)
            codewords = self.codes.astype(np.uint32)
            bit = 0
            for lo in range(0, n, _PACK_CHUNK):
                # One pack per chunk, continuing the stream at ``bit``;
                # blocks are bit-offset ranges within it (cursors may
                # start mid-byte — the windowed decoder copes).
                # Canonical codes fit their lengths exactly, so the pack
                # can skip its masking pass.
                bit = _pack_via_windows(
                    np.take(codewords, symbols[lo : lo + _PACK_CHUNK]),
                    lens[lo : lo + _PACK_CHUNK], out64, bit, masked=True,
                )
            payload = _words_to_bytes(out64, total)
            return EncodedStream(n, block_size, block_bits, payload)

    # -- decoding --------------------------------------------------------

    def _build_decode_tables(self) -> _DecodeTables:
        if self._decode_tables is None:
            self._decode_tables = _decode_tables_for(self.lengths, self.max_len)
        return self._decode_tables

    def decode(self, stream: EncodedStream) -> np.ndarray:
        """Block-parallel vectorized decode of an :class:`EncodedStream`.

        Returns :attr:`symbol_dtype` symbols: ``uint16`` when the
        alphabet fits ``2^16`` (every SZ container's does), ``uint32``
        above that (:attr:`MAX_ALPHABET` is ``2^24``).  Each block is one
        lane; full-row rounds (:func:`_fast_rounds`) and then clamped
        rounds (:func:`_tail_rounds`) write straight into that array.
        """
        with span("huffman_decode", bytes=int(stream.payload.nbytes)):
            return self._decode_impl(stream)

    def _decode_impl(self, stream: EncodedStream) -> np.ndarray:
        tables = self._build_decode_tables()
        n = stream.n_symbols
        out = np.zeros(n, dtype=self.symbol_dtype)
        if n == 0:
            return out
        nblocks = stream.block_bits.size
        cur = np.zeros(nblocks, dtype=np.int64)
        np.cumsum(stream.block_bits[:-1].astype(np.int64), out=cur[1:])
        end_bits = cur + stream.block_bits.astype(np.int64)
        opos = np.arange(nblocks, dtype=np.int64) * stream.block_size
        oend = np.minimum(opos + stream.block_size, n)
        gather = _window_gatherer(stream.payload)
        rounds = lookups = 0
        for phase in (_fast_rounds, _tail_rounds):
            r, lk = phase(out, tables, gather, cur, opos, oend)
            rounds += r
            lookups += lk
        if not np.array_equal(cur, end_bits):
            raise ValueError("corrupt Huffman stream: block length mismatch")
        collector = active_collector()
        if collector is not None:
            collector.add("huffman/rounds", float(rounds))
            collector.observe("huffman/symbols_per_lookup", n / lookups)
        return out

    def decode_scalar(self, stream: EncodedStream) -> np.ndarray:
        """Bit-by-bit reference decoder (slow; used to validate ``decode``)."""
        lookup = {
            (int(self.lengths[s]), int(self.codes[s])): int(s)
            for s in np.flatnonzero(self.lengths)
        }
        n = stream.n_symbols
        out = np.zeros(n, dtype=self.symbol_dtype)
        if n == 0:
            return out
        nblocks = stream.block_bits.size
        pos = 0
        reader = BitReader(stream.payload)
        bit_start = 0
        for b in range(nblocks):
            reader.seek(bit_start)
            remaining = min(stream.block_size, n - pos)
            for _ in range(remaining):
                code, length = 0, 0
                while True:
                    code = (code << 1) | reader.read(1)
                    length += 1
                    if (length, code) in lookup:
                        out[pos] = lookup[(length, code)]
                        pos += 1
                        break
                    if length > self.max_len:
                        raise ValueError("corrupt Huffman stream")
            bit_start += int(stream.block_bits[b])
        return out

    # -- diagnostics -----------------------------------------------------

    def expected_bits(self, freqs: np.ndarray) -> float:
        """Total encoded size (bits) of a source with the given counts."""
        freqs = np.asarray(freqs, dtype=np.float64)
        return float(np.sum(freqs * self.lengths, dtype=np.float64))
