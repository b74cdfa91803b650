"""The ``EntropyCoder`` protocol and process-level coder registry.

The compressor's entropy stage used to dispatch on string comparisons
(``entropy_coder == "arithmetic"``) scattered through
:mod:`repro.core.compressor`.  This module formalizes the stage: an
:class:`EntropyCoder` turns quantization codes into an
:class:`EntropyPayload` (and back), and a registry maps coder names —
the values ``SZConfig.entropy_coder`` accepts — to coder instances, so
third-party coders become registerable without touching core.

Container round-trip contract
-----------------------------
The container layer (:mod:`repro.core.stream`) persists a payload in
one of two layouts, selected by the header flag bits the coder
contributes via :meth:`EntropyCoder.flag`:

* ``codec`` + ``stream`` — the canonical-Huffman layout: the codec's
  length table round-trips through ``HuffmanCodec.write_table`` /
  ``read_table`` inside the (unaligned) container header, the blocked
  stream serializes via ``EncodedStream.to_bytes``.
* ``raw`` — an opaque byte payload the coder parses itself (the
  arithmetic layout).

Both layouts predate this registry; routing through it is byte-identical
(the golden-blob fixtures pin that).

Registering a coder
-------------------
>>> from repro.encoding import register_entropy_coder, available_coders
>>> class NullCoder:
...     coder_id = "null"
...     flag = 4  # unused container flag bit
...     def encode(self, codes, *, interval_bits, block_size, code_hist=None):
...         ...
...     def decode(self, payload, *, expected, interval_bits):
...         ...
>>> register_entropy_coder(NullCoder())  # doctest: +SKIP

After registration ``SZConfig(entropy_coder="null")`` validates (the
config checks :func:`available_coders`) and the compressor routes the
entropy stage through the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.encoding.huffman import EncodedStream, HuffmanCodec, symbol_histogram

__all__ = [
    "DEFAULT_ENTROPY_CODER",
    "EntropyCoder",
    "EntropyPayload",
    "available_coders",
    "coder_for_flags",
    "get_entropy_coder",
    "register_entropy_coder",
]

DEFAULT_ENTROPY_CODER = "huffman"
"""The coder every container without coder flag bits decodes through —
also the ``SZConfig.entropy_coder`` default."""


@dataclass(frozen=True)
class EntropyPayload:
    """What an :class:`EntropyCoder` hands the container layer.

    Exactly one layout is populated: ``codec`` + ``stream`` (structured
    Huffman layout) or ``raw`` (opaque).  ``flags`` carries the coder's
    container header flag bits so the decode side can find the coder
    again without a name field in the wire format.
    """

    coder_id: str
    flags: int
    codec: HuffmanCodec | None = None
    stream: EncodedStream | None = None
    raw: bytes | None = None


@runtime_checkable
class EntropyCoder(Protocol):
    """Entropy stage over quantization codes.

    ``encode``/``decode`` must be exact inverses for any in-range code
    array; the table (or model state) needed to invert must round-trip
    through the :class:`EntropyPayload` layout the coder populates.
    """

    @property
    def coder_id(self) -> str:
        """Registry name; the value ``SZConfig.entropy_coder`` takes."""
        ...

    @property
    def flag(self) -> int:
        """Container header flag bits identifying this coder's payload
        (0 = the default Huffman layout)."""
        ...

    def encode(
        self,
        codes: np.ndarray,
        *,
        interval_bits: int,
        block_size: int,
        code_hist: np.ndarray | None = None,
    ) -> EntropyPayload:
        """Encode quantization codes ``0 .. 2^interval_bits - 1``."""
        ...

    def decode(
        self, payload: EntropyPayload, *, expected: int, interval_bits: int
    ) -> np.ndarray:
        """Recover exactly ``expected`` codes from a payload.

        The codes come back as ``uint16``: every code is below
        ``2^interval_bits <= 2^16``.  A payload holding a code outside
        that range is corrupt and raises ``ValueError`` — the container
        reader rejects a Huffman table over any other alphabet, and the
        arithmetic coder checks the codes it decodes.
        """
        ...


class HuffmanEntropyCoder:
    """The paper's coder (Section IV-A): blocked canonical Huffman."""

    coder_id = DEFAULT_ENTROPY_CODER
    flag = 0

    def encode(
        self,
        codes: np.ndarray,
        *,
        interval_bits: int,
        block_size: int,
        code_hist: np.ndarray | None = None,
    ) -> EntropyPayload:
        alphabet = 1 << interval_bits
        if code_hist is None:
            code_hist = symbol_histogram(codes, alphabet)
        codec = HuffmanCodec.from_frequencies(code_hist)
        # The codec was built from these very codes, so the range /
        # zero-frequency validation scans are redundant here.
        stream = codec.encode(codes, block_size=block_size, validate=False)
        return EntropyPayload(
            self.coder_id, self.flag, codec=codec, stream=stream
        )

    def decode(
        self, payload: EntropyPayload, *, expected: int, interval_bits: int
    ) -> np.ndarray:
        if payload.codec is None or payload.stream is None:
            raise ValueError("huffman payload lost its codec/stream pair")
        return payload.codec.decode(payload.stream)


class ArithmeticEntropyCoder:
    """Adaptive binary range coder (out-of-paper extension).

    Codes are re-centered before coding so the dominant code (the
    interval center) maps to the cheapest symbol: 0 = unpredictable,
    1 = exact hit, then outward (zigzag).
    """

    coder_id = "arithmetic"

    @property
    def flag(self) -> int:
        from repro.core.stream import FLAG_ARITHMETIC

        return int(FLAG_ARITHMETIC)

    def encode(
        self,
        codes: np.ndarray,
        *,
        interval_bits: int,
        block_size: int,
        code_hist: np.ndarray | None = None,
    ) -> EntropyPayload:
        from repro.core.quantizer import interval_radius
        from repro.encoding.arithmetic import encode_symbols, zigzag

        radius = interval_radius(interval_bits)
        # int64: ``codes - radius`` would wrap in the codes' uint16.
        codes = codes.astype(np.int64)
        mapped = np.where(
            codes == 0,
            0,
            zigzag(codes - radius).astype(np.int64) + 1,
        )
        raw = encode_symbols(mapped, max_bits=interval_bits + 2)
        return EntropyPayload(self.coder_id, self.flag, raw=raw)

    def decode(
        self, payload: EntropyPayload, *, expected: int, interval_bits: int
    ) -> np.ndarray:
        from repro.core.quantizer import interval_radius
        from repro.encoding.arithmetic import decode_symbols, unzigzag

        if payload.raw is None:
            raise ValueError("arithmetic payload lost its byte stream")
        mapped = decode_symbols(
            payload.raw, expected, max_bits=interval_bits + 2
        )
        radius = interval_radius(interval_bits)
        codes = np.where(
            mapped == 0,
            0,
            unzigzag((mapped - 1).astype(np.uint64)) + radius,
        )
        # A corrupt payload can decode to any code the mapping reaches;
        # reject it here, before the uint16 narrowing could wrap it.
        if codes.size and (codes.min() < 0 or codes.max() >= 2 * radius):
            bad = codes[(codes < 0) | (codes >= 2 * radius)][0]
            raise ValueError(
                f"corrupt arithmetic payload: code {bad} outside "
                f"[0, {2 * radius}) for {interval_bits} interval bits"
            )
        return codes.astype(np.uint16)


_REGISTRY: dict[str, EntropyCoder] = {}


def register_entropy_coder(
    coder: EntropyCoder, *, replace: bool = False
) -> None:
    """Register ``coder`` under its ``coder_id``.

    Re-registering the same instance is a no-op; replacing a different
    instance under an existing name requires ``replace=True`` (guards
    against two extensions silently fighting over one name).
    """
    name = coder.coder_id
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not coder and not replace:
        raise ValueError(
            f"entropy coder {name!r} is already registered; "
            "pass replace=True to override it"
        )
    _REGISTRY[name] = coder


def get_entropy_coder(name: str) -> EntropyCoder:
    """Look up a registered coder by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown entropy coder {name!r}; "
            f"use one of {available_coders()}"
        ) from None


def available_coders() -> tuple[str, ...]:
    """Registered coder names, sorted — what ``SZConfig`` validates against."""
    return tuple(sorted(_REGISTRY))


def coder_for_flags(flags: int) -> EntropyCoder:
    """The coder whose flag bits are set in a container header.

    Falls back to the :data:`DEFAULT_ENTROPY_CODER` — a header with no
    coder flag bits is the (original) Huffman layout.
    """
    for coder in _REGISTRY.values():
        if coder.flag and flags & coder.flag:
            return coder
    return _REGISTRY[DEFAULT_ENTROPY_CODER]


register_entropy_coder(HuffmanEntropyCoder())
register_entropy_coder(ArithmeticEntropyCoder())
