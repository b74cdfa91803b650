"""Bit-level I/O primitives.

Two families live here:

* ``BitWriter`` / ``BitReader`` — append-one-field-at-a-time accumulators
  for headers and table descriptions.  ``BitWriter`` buffers fields as a
  token list and materializes the stream with one vectorized
  :func:`pack_varlen` call in :meth:`BitWriter.getvalue`; the original
  byte-at-a-time implementation is kept as :class:`ScalarBitWriter`, the
  cross-checked reference.
* ``pack_varlen`` / ``unpack_varlen`` / ``read_bits_at`` — NumPy-vectorized
  bulk primitives.  The Huffman coder in :mod:`repro.encoding` and the
  ZFP-like bit-plane coder are built on these.

Bit order is MSB-first within the stream: the first bit written becomes the
most significant bit of the first byte.  All vectorized routines agree with
the scalar ones bit-for-bit (tested).  ``pack_varlen`` and ``unpack_varlen``
place every field through 8-byte windows (`_pack_via_windows`,
`_unpack_via_windows`), ``_PACK_FIELDS`` fields at a time; a field wider
than 57 bits travels as two narrower ones whose bits concatenate to it.
The golden-blob fixtures pin the streams end to end.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "BitWriter",
    "ScalarBitWriter",
    "BitReader",
    "pack_varlen",
    "unpack_varlen",
    "read_bits_at",
    "bits_to_bytes",
    "bytes_to_bits",
    "byte_windows64",
    "gather_windows64",
]

_MAX_FIELD_BITS = 57
"""Widest field ``read_bits_at`` can extract (8-byte window minus 7-bit skew)."""

_SPLIT_BITS = 32
"""When a field list holds fields wider than ``_MAX_FIELD_BITS``, each
field wider than this goes through the window paths as an
``(l - 32)``-bit high field and a 32-bit low field."""

_PACK_FIELDS = 1 << 16
"""Fields ``pack_varlen``/``unpack_varlen`` place per step: the window
paths' uint64 temporaries scale with this, not with the field count."""


class BitWriter:
    """Accumulate an MSB-first bitstream one field (or array) at a time.

    Fields are buffered as tokens and packed in a single vectorized pass
    on :meth:`getvalue`, so interleaving many small :meth:`write` calls
    with bulk :meth:`write_array` appends stays cheap.  Produces byte
    streams identical to :class:`ScalarBitWriter` (tested).
    """

    def __init__(self) -> None:
        # Parallel segment lists; scalar tokens are Python ints, bulk
        # appends are ndarray segments.  Flattened once in getvalue().
        self._vals: list[Any] = []
        self._lens: list[Any] = []
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` bits of ``value`` (MSB first)."""
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        if nbits == 0:
            return
        value = int(value)
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._nbits += nbits
        while nbits > 64:  # pack_varlen fields cap at 64 bits; split MSB-first
            take = nbits - 64 if nbits <= 128 else 64
            self._vals.append(value >> (nbits - take))
            self._lens.append(take)
            value &= (1 << (nbits - take)) - 1
            nbits -= take
        self._vals.append(value)
        self._lens.append(nbits)

    def write_array(self, values: np.ndarray, lengths: np.ndarray) -> None:
        """Bulk-append ``values[i]`` as ``lengths[i]``-bit fields.

        Like repeated :meth:`write` calls: values are validated against
        their widths eagerly and snapshotted (the stream materializes in
        :meth:`getvalue`, so later mutation of the caller's array must
        not change what was appended).
        """
        raw = np.asarray(values).ravel()
        values = raw.astype(np.uint64, copy=True)
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        if values.shape != lengths.shape:
            raise ValueError("values and lengths must have identical shapes")
        if values.size == 0:
            return
        if int(lengths.min()) < 0 or int(lengths.max()) > 64:
            raise ValueError("lengths must be within [0, 64]")
        if raw.dtype.kind in "if" and float(raw.min()) < 0:
            # A negative would survive the unsigned cast as its two's-
            # complement wrap and dodge the width check below for 64-bit
            # fields; reject it like write() does.
            bad = int(np.flatnonzero(raw < 0)[0])
            raise ValueError(
                f"value {int(raw[bad])} does not fit in "
                f"{int(lengths[bad])} bits"
            )
        # Same contract as write(): a value wider than its field is an
        # error, not a silent truncation.  (Shift by 63 max — 64-bit
        # fields always fit; zero-width fields are no-ops like write(v, 0).)
        over = values >> np.minimum(lengths, 63).astype(np.uint64)
        over[(lengths == 64) | (lengths == 0)] = 0
        if over.any():
            bad = int(np.flatnonzero(over)[0])
            raise ValueError(
                f"value {int(values[bad])} does not fit in "
                f"{int(lengths[bad])} bits"
            )
        self._vals.append(values)
        self._lens.append(lengths)
        self._nbits += int(lengths.sum(dtype=np.int64))

    def write_bits(self, bits: np.ndarray) -> None:
        """Append a 0/1 array as individual bits."""
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        self.write_array(bits, np.ones(bits.size, dtype=np.int64))

    @property
    def bit_length(self) -> int:
        return self._nbits

    def _flatten(self) -> tuple[np.ndarray, np.ndarray]:
        vals: list[np.ndarray] = []
        lens: list[np.ndarray] = []
        scalar_v: list[int] = []
        scalar_l: list[int] = []
        for v, n in zip(self._vals, self._lens):
            if isinstance(v, np.ndarray):
                if scalar_v:
                    vals.append(np.array(scalar_v, dtype=np.uint64))
                    lens.append(np.array(scalar_l, dtype=np.int64))
                    scalar_v, scalar_l = [], []
                vals.append(v)
                lens.append(n)
            else:
                scalar_v.append(v)
                scalar_l.append(n)
        if scalar_v:
            vals.append(np.array(scalar_v, dtype=np.uint64))
            lens.append(np.array(scalar_l, dtype=np.int64))
        if not vals:
            return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
        return np.concatenate(vals), np.concatenate(lens)

    def getvalue(self) -> bytes:
        """Return the stream padded with zero bits to a byte boundary."""
        values, lengths = self._flatten()
        buf, _ = pack_varlen(values, lengths)
        return buf.tobytes()


class ScalarBitWriter:
    """Byte-at-a-time reference writer (the original ``BitWriter``).

    Kept for cross-checking the token-list :class:`BitWriter` and the
    vectorized packers bit-for-bit in the test suite.
    """

    def __init__(self) -> None:
        self._chunks: list[int] = []
        self._acc = 0
        self._nacc = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        if nbits == 0:
            return
        value = int(value)
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nacc += nbits
        while self._nacc >= 8:
            self._nacc -= 8
            self._chunks.append((self._acc >> self._nacc) & 0xFF)
            self._acc &= (1 << self._nacc) - 1

    def write_bits(self, bits: np.ndarray) -> None:
        for b in np.asarray(bits, dtype=np.uint8):
            self.write(int(b), 1)

    @property
    def bit_length(self) -> int:
        return len(self._chunks) * 8 + self._nacc

    def getvalue(self) -> bytes:
        out = bytearray(self._chunks)
        if self._nacc:
            out.append((self._acc << (8 - self._nacc)) & 0xFF)
        return bytes(out)


class BitReader:
    """Scalar MSB-first reader over ``bytes`` / ``uint8`` buffers."""

    def __init__(
        self,
        buf: bytes | bytearray | memoryview | np.ndarray,
        bitpos: int = 0,
    ) -> None:
        # Zero-copy view over any C-contiguous buffer (bytes, bytearray,
        # memoryview, mmap, ndarray); only a non-contiguous source pays
        # for a flattening copy.
        try:
            self._buf = np.frombuffer(buf, dtype=np.uint8)
        except (ValueError, TypeError, BufferError):
            # Intentional one-time copy: only non-contiguous sources land
            # here, and frombuffer needs a contiguous byte view.
            self._buf = np.frombuffer(bytes(buf), dtype=np.uint8)  # szlint: ignore[SZ104]
        self._pos = bitpos

    @property
    def bitpos(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return len(self._buf) * 8 - self._pos

    @property
    def data(self) -> np.ndarray:
        """The underlying byte buffer (for batch readers layered on top)."""
        return self._buf

    def read(self, nbits: int) -> int:
        """Read ``nbits`` bits and return them as an unsigned int."""
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        if nbits == 0:
            return 0
        if self._pos + nbits > len(self._buf) * 8:
            raise EOFError(
                f"bitstream exhausted: need {nbits} bits at offset {self._pos}, "
                f"have {self.bits_remaining}"
            )
        out = 0
        pos = self._pos
        remaining = nbits
        while remaining:
            byte = int(self._buf[pos >> 3])
            offset = pos & 7
            avail = 8 - offset
            take = min(avail, remaining)
            chunk = (byte >> (avail - take)) & ((1 << take) - 1)
            out = (out << take) | chunk
            pos += take
            remaining -= take
        self._pos = pos
        return out

    def seek(self, bitpos: int) -> None:
        self._pos = bitpos


def bits_to_bytes(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 uint8 array into bytes (MSB-first), zero padded."""
    return np.packbits(np.asarray(bits, dtype=np.uint8))


def bytes_to_bits(buf: bytes | np.ndarray, nbits: int | None = None) -> np.ndarray:
    """Unpack bytes to a 0/1 uint8 array, truncated to ``nbits`` if given."""
    bits = np.unpackbits(np.frombuffer(bytes(buf), dtype=np.uint8))
    if nbits is not None:
        if nbits > bits.size:
            raise EOFError(f"need {nbits} bits, buffer holds {bits.size}")
        bits = bits[:nbits]
    return bits


def _window_view(padded: np.ndarray) -> np.ndarray:
    """Zero-copy big-endian uint64 view of the 8 bytes at every offset
    of ``padded`` (whose last 7 bytes start no window)."""
    return np.lib.stride_tricks.sliding_window_view(padded, 8).view(">u8").reshape(-1)


def byte_windows64(buf: bytes | np.ndarray) -> np.ndarray:
    """Big-endian 8-byte windows at every byte offset of ``buf``.

    ``byte_windows64(buf)[k]`` holds bytes ``buf[k : k + 8]`` (zero padded
    past the end) as one uint64 — bit ``8 * k`` of the stream is the
    window's most significant bit.  One upfront pass turns every later
    "read n bits at position p" into a gather + shift, which is what the
    block-parallel Huffman decoder iterates on.
    """
    buf = np.asarray(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) \
        else buf
    if buf.dtype != np.uint8:
        buf = buf.astype(np.uint8)
    padded = np.concatenate([buf.ravel(), np.zeros(8, dtype=np.uint8)])
    # The byte-swapping cast is the only pass that writes the 8x output.
    return _window_view(padded).astype(np.uint64)


def gather_windows64(padded: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Big-endian 8-byte windows at the given byte offsets of ``padded``.

    The streaming counterpart of :func:`byte_windows64` for payloads too
    large to window wholesale: ``padded`` must carry at least 8 trailing
    zero bytes (so every in-range start reads a full window), and each
    ``starts[i]`` yields the uint64 holding bytes
    ``padded[starts[i] : starts[i] + 8]``.  One gather through a
    zero-copy window view instead of one 8x-RAM materialization — the
    Huffman decoder's fallback for multi-hundred-MB payloads.
    """
    windows: np.ndarray = _window_view(padded)[starts]
    return windows.astype(np.uint64)


def pack_varlen(
    values: np.ndarray, lengths: np.ndarray, masked: bool = False
) -> tuple[np.ndarray, int]:
    """Pack ``values[i]`` into ``lengths[i]`` bits each, MSB-first, contiguous.

    Parameters
    ----------
    values
        Unsigned integers (any integer dtype, reinterpreted as uint64).
        Only the low ``lengths[i]`` bits of ``values[i]`` are stored.
    lengths
        Per-value bit widths in ``[0, 64]``.  Zero-length fields are legal
        and contribute no bits.
    masked
        Caller's promise that every value already fits its declared width
        (``values[i] >> lengths[i] == 0``), letting the fast path skip
        the masking pass.  Canonical Huffman codes satisfy this by
        construction.

    Returns
    -------
    (buf, total_bits)
        ``buf`` is a uint8 byte array (zero padded to a byte boundary) and
        ``total_bits`` the exact number of meaningful bits.

    Notes
    -----
    Every field goes through :func:`_pack_via_windows`, the
    8-byte-window OR-scatter the Huffman encoder also feeds chunk by
    chunk: :data:`_PACK_FIELDS` fields per call into one word buffer,
    carrying the bit offset, so its uint64 temporaries stay bounded.
    When some field is wider than a window's 57 bits (raw float64
    words), every field wider than 32 bits goes in as its high
    ``l - 32`` bits and then its low 32, which concatenate to the same
    bits.
    """
    values = np.asarray(values).astype(np.uint64, copy=False)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.shape != lengths.shape:
        raise ValueError("values and lengths must have identical shapes")
    values, lengths = values.ravel(), lengths.ravel()
    if values.size == 0:
        return np.zeros(0, dtype=np.uint8), 0
    min_len = int(lengths.min())
    max_len = int(lengths.max())
    if min_len < 0 or max_len > 64:
        raise ValueError("lengths must be within [0, 64]")
    total = int(lengths.sum(dtype=np.int64))
    if max_len == 0:
        return np.zeros(0, dtype=np.uint8), 0
    out64 = np.zeros(_packed_words(total), dtype=np.uint64)
    bit = 0
    for lo in range(0, values.size, _PACK_FIELDS):
        vals = values[lo : lo + _PACK_FIELDS]
        lens = lengths[lo : lo + _PACK_FIELDS]
        if max_len > _MAX_FIELD_BITS:
            lens, slot, wide = _split_wide(lens)
            halves = np.empty(lens.size, dtype=np.uint64)
            halves[slot] = np.where(wide, vals >> np.uint64(_SPLIT_BITS), vals)
            halves[slot[wide] + 1] = vals[wide] & np.uint64(0xFFFFFFFF)
            vals = halves
        bit = _pack_via_windows(vals, lens, out64, bit, masked)
    return _words_to_bytes(out64, total), total


def _split_wide(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field widths with every field wider than :data:`_SPLIT_BITS` split
    into an ``(l - 32)``-bit high and a 32-bit low field.

    Returns the split widths, each field's (high) slot among them and
    the mask of split fields; a split field's low half sits in the slot
    after its high one.
    """
    wide = lengths > _SPLIT_BITS
    slot = np.arange(lengths.size, dtype=np.int64)
    slot += np.cumsum(wide, dtype=np.int64) - wide
    split = np.full(
        lengths.size + int(np.count_nonzero(wide)), _SPLIT_BITS, dtype=np.int64
    )
    split[slot] = np.where(wide, lengths - _SPLIT_BITS, lengths)
    return split, slot, wide


def _packed_words(total_bits: int) -> int:
    """Length of the uint64 word buffer :func:`_pack_via_windows` fills.

    The last field's 8-byte window may spill into the word after the one
    holding the stream's last byte, hence the slack word.
    """
    return (((total_bits + 7) // 8) >> 3) + 2


def _words_to_bytes(out64: np.ndarray, total_bits: int) -> np.ndarray:
    """The bytes of a ``total_bits``-bit stream packed into ``out64``."""
    return out64.astype(">u8").view(np.uint8)[: (total_bits + 7) // 8]


def _pack_via_windows(
    values: np.ndarray,
    lengths: np.ndarray,
    out64: np.ndarray,
    start: int,
    masked: bool = False,
) -> int:
    """Fast path: OR fields of <= 57 bits into words from bit ``start``.

    ``out64`` holds the stream as native uint64 words, each standing for
    8 big-endian stream bytes (:func:`_words_to_bytes` turns it into
    bytes); it must have at least :func:`_packed_words` of the end bit
    entries, and every bit at or past ``start`` must still be zero.
    Fields are ORed in, so successive calls that carry the returned end
    bit pack one contiguous stream, whatever bit each call starts on.
    :func:`pack_varlen` calls this once with a fresh buffer at bit 0;
    the Huffman encoder calls it once per chunk of symbols.

    Two stages, both byte-identical to the bit-plane reference:

    1. *Pairwise fold* (:func:`_fold_pairs`): adjacent fields that still
       fit a 57-bit window concatenate exactly, so a 4-bit-average
       Huffman stream shrinks 2-16x before any bit placement happens.
    2. *Window scatter*: a field of ``l <= 57`` bits starting at bit
       ``s`` lies entirely inside the 8-byte window at byte ``s >> 3``
       (worst case ``57 + 7 = 64`` bits), which in turn straddles at
       most two *aligned* uint64 words of the output.  Left-align each
       field in its window, split the window into its two aligned-word
       contributions, OR together contributions landing in the same
       word (``np.bitwise_or.reduceat`` — window starts are sorted), and
       OR the per-word results into the buffer (each word once per
       scatter, so the fancy-indexed ``|=`` sees no duplicates).

    Returns the end bit, ``start`` plus the bits written.
    """
    # Fold rounds and bit placement run entirely in uint64 (lengths
    # included) — mixing int64 shift operands would force a cast pass per
    # round.
    lens = lengths.astype(np.uint64)
    vals = values.astype(np.uint64, copy=False)
    if not masked:
        # Mask to the declared widths first: high garbage bits must not
        # leak into a neighbouring field once pairs are folded together.
        mask = (np.uint64(1) << lens) - np.uint64(1)  # l <= 57: no UB
        vals = vals & mask
    for _ in range(4):  # n/16 fields is plenty; stop early when folding stalls
        if lens.size < 2:
            break
        folded = _fold_pairs(vals, lens)
        if folded is None:
            break
        vals, lens = folded
    starts = np.empty(vals.size, dtype=np.uint64)
    starts[0] = start
    np.cumsum(lens[:-1], out=starts[1:])
    starts[1:] += np.uint64(start)
    end = int(starts[-1]) + int(lens[-1])
    skew = starts & np.uint64(7)
    # Shift amount 64 - l - skew is <= 63 whenever l > 0; l == 0 fields
    # are already zero so their (undefined) shift result never lands.
    shift = np.uint64(64) - lens - skew
    windows = vals << shift
    byte0 = starts >> np.uint64(3)
    # Split each 8-byte window (at byte offset b) into its two aligned
    # uint64 words: the high part lands in word b >> 3 shifted right by
    # the intra-word byte offset, the spill-over in the next word.
    word = byte0 >> np.uint64(3)
    s8 = (byte0 & np.uint64(7)) << np.uint64(3)
    hi = windows >> s8
    # (w << 1) << (63 - s8) == w << (64 - s8) without the undefined
    # 64-bit shift at s8 == 0 (where the spill-over must be zero).
    lo = np.where(
        s8 > 0,
        (windows << np.uint64(1)) << (np.uint64(63) - s8),
        np.uint64(0),
    )
    group_start = np.flatnonzero(
        np.concatenate(([True], word[1:] != word[:-1]))
    )
    words_u = word[group_start]
    out64[words_u] |= np.bitwise_or.reduceat(hi, group_start)
    out64[words_u + 1] |= np.bitwise_or.reduceat(lo, group_start)
    return end


def _fold_pairs(
    vals: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Concatenate adjacent field pairs that still fit a 57-bit window.

    ``(v0 << l1) | v1`` with width ``l0 + l1`` is exactly the bit
    concatenation of the two fields, so folding leaves the packed stream
    unchanged while halving the number of fields downstream passes touch.
    Pairs wider than 57 bits pass through unfolded (two entries), which
    keeps folding productive even when rare long codes are scattered
    through an otherwise short-field stream.  Returns ``None`` when too
    few pairs fit for a fold round to pay for itself.
    """
    if lens.size & 1:
        # A zero-width sentinel merges as a no-op.
        vals = np.concatenate([vals, np.zeros(1, dtype=np.uint64)])
        lens = np.concatenate([lens, np.zeros(1, dtype=np.uint64)])
    v0, v1 = vals[0::2], vals[1::2]
    l0, l1 = lens[0::2], lens[1::2]
    sum01 = l0 + l1
    fit = sum01 <= np.uint64(_MAX_FIELD_BITS)
    if fit.all():
        return (v0 << l1) | v1, sum01
    if np.count_nonzero(fit) < fit.size // 2:
        return None
    # Ragged output: folded pairs take one slot, stragglers keep two.
    out_pos = np.zeros(fit.size, dtype=np.int64)
    np.cumsum(2 - fit[:-1], out=out_pos[1:])
    n_new = int(out_pos[-1]) + 2 - int(fit[-1])
    new_vals = np.zeros(n_new, dtype=np.uint64)
    new_lens = np.zeros(n_new, dtype=np.uint64)
    pos_f = out_pos[fit]
    new_vals[pos_f] = (v0[fit] << l1[fit]) | v1[fit]
    new_lens[pos_f] = sum01[fit]
    unfit = ~fit
    pos_u = out_pos[unfit]
    new_vals[pos_u] = v0[unfit]
    new_lens[pos_u] = l0[unfit]
    new_vals[pos_u + 1] = v1[unfit]
    new_lens[pos_u + 1] = l1[unfit]
    return new_vals, new_lens


def unpack_varlen(
    buf: bytes | np.ndarray, lengths: np.ndarray, bit_offset: int = 0
) -> np.ndarray:
    """Inverse of :func:`pack_varlen` given the per-value bit widths.

    Parameters
    ----------
    buf
        Byte buffer produced by :func:`pack_varlen` (possibly embedded in a
        larger stream, see ``bit_offset``).
    lengths
        The same per-value bit widths used when packing.
    bit_offset
        Bit position in ``buf`` where the packed region starts.

    Returns
    -------
    uint64 array of decoded values.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        return np.zeros(0, dtype=np.uint64)
    min_len = int(lengths.min())
    max_len = int(lengths.max())
    if min_len < 0 or max_len > 64:
        raise ValueError("lengths must be within [0, 64]")
    total = int(lengths.sum(dtype=np.int64))
    if max_len == 0:
        return np.zeros(lengths.shape, dtype=np.uint64)
    buf_arr = (
        buf if isinstance(buf, np.ndarray) else np.frombuffer(buf, np.uint8)
    )
    buf_arr = buf_arr.astype(np.uint8, copy=False).ravel()
    if bit_offset + total > buf_arr.size * 8:
        raise EOFError(
            f"need {total} bits at offset {bit_offset}, "
            f"buffer holds {buf_arr.size * 8}"
        )
    # Only the packed region's bytes, zero padded so every field's
    # window is whole.
    first = bit_offset >> 3
    stop = (bit_offset + total + 7) >> 3
    padded = np.zeros(stop - first + 8, dtype=np.uint8)
    padded[: stop - first] = buf_arr[first:stop]
    view = _window_view(padded)
    bit = bit_offset - 8 * first
    flat = lengths.ravel()
    out = np.empty(flat.size, dtype=np.uint64)
    for lo in range(0, flat.size, _PACK_FIELDS):
        lens = flat[lo : lo + _PACK_FIELDS]
        if max_len > _MAX_FIELD_BITS:
            split, slot, wide = _split_wide(lens)
            halves = _unpack_via_windows(view, split, bit)
            vals = halves[slot]
            vals[wide] = (vals[wide] << np.uint64(_SPLIT_BITS)) | halves[
                slot[wide] + 1
            ]
            out[lo : lo + lens.size] = vals
        else:
            out[lo : lo + lens.size] = _unpack_via_windows(view, lens, bit)
        bit += int(lens.sum(dtype=np.int64))
    return out.reshape(lengths.shape)


def _unpack_via_windows(
    view: np.ndarray, lengths: np.ndarray, bit_offset: int
) -> np.ndarray:
    """Fields of up to 57 bits from ``bit_offset`` on: one 8-byte window
    per field, gathered from :func:`_window_view`'s ``view``."""
    lengths_u = lengths.astype(np.uint64)
    starts = np.full(lengths.size, bit_offset, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    starts[1:] += bit_offset
    window = view[starts >> 3].astype(np.uint64)
    skew = (starts & 7).astype(np.uint64)
    mask = np.where(
        lengths_u > 0,
        (np.uint64(1) << lengths_u) - np.uint64(1),
        np.uint64(0),
    )
    values: np.ndarray = (window >> (np.uint64(64) - lengths_u - skew)) & mask
    return values


def read_bits_at(
    buf: np.ndarray, bitpos: np.ndarray, nbits: int
) -> np.ndarray:
    """Gather ``nbits``-wide windows at arbitrary bit positions, vectorized.

    Central primitive of the block-parallel Huffman and ZFP-like decoders:
    each decoding "round" reads one window per still-active block.

    Parameters
    ----------
    buf
        uint8 byte buffer.  May be shorter than the furthest window; reads
        past the end behave as if the buffer were zero padded.
    bitpos
        int64 array of bit offsets (MSB-first addressing).
    nbits
        Window width, ``1 <= nbits <= 57``.

    Returns
    -------
    uint64 array: the windows, right-aligned.
    """
    if not 1 <= nbits <= _MAX_FIELD_BITS:
        raise ValueError(f"nbits must be in [1, {_MAX_FIELD_BITS}], got {nbits}")
    buf = np.asarray(buf, dtype=np.uint8)
    bitpos = np.asarray(bitpos, dtype=np.int64)
    if np.any(bitpos < 0):
        raise ValueError("bit positions must be non-negative")
    # Zero-pad so an 8-byte window starting at any in-range position is valid.
    padded = np.concatenate([buf, np.zeros(8, dtype=np.uint8)])
    byte0 = bitpos >> 3
    if byte0.size and int(byte0.max()) > buf.size:
        raise EOFError("bit position beyond end of buffer")
    window = np.zeros(bitpos.shape, dtype=np.uint64)
    for i in range(8):
        window = (window << np.uint64(8)) | padded[byte0 + i].astype(np.uint64)
    skew = (bitpos & 7).astype(np.uint64)
    shift = np.uint64(64 - nbits) - skew
    return (window >> shift) & np.uint64((1 << nbits) - 1)
