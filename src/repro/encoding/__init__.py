"""Entropy-coding and bit-level substrates used by every compressor in repro.

Modules
-------
bitio
    ``BitWriter``/``BitReader`` field accumulators plus vectorized
    variable-length bit packing built on NumPy (``ScalarBitWriter`` is
    the retained byte-at-a-time reference).
huffman
    Canonical Huffman coding for arbitrary alphabet sizes (the paper's
    tailored variable-length encoder, Section IV-A).
arithmetic
    Adaptive binary range coder (the out-of-paper ``entropy_coder=
    "arithmetic"`` stage) and the ``zigzag`` mapping it codes through.
coders
    The :class:`EntropyCoder` protocol and the coder registry the
    compressor's entropy stage dispatches through
    (``get_entropy_coder`` / ``register_entropy_coder`` /
    ``available_coders``).

The byte-level lossless stage (the ``lossless_post`` wrapper and the
GZIP baseline) is stdlib ``zlib``; see :mod:`repro.core.lossless_post`.
"""

from repro.encoding.bitio import (
    BitReader,
    BitWriter,
    ScalarBitWriter,
    byte_windows64,
    gather_windows64,
    pack_varlen,
    read_bits_at,
    unpack_varlen,
)
from repro.encoding.coders import (
    DEFAULT_ENTROPY_CODER,
    EntropyCoder,
    EntropyPayload,
    available_coders,
    coder_for_flags,
    get_entropy_coder,
    register_entropy_coder,
)
from repro.encoding.huffman import HuffmanCodec

__all__ = [
    "BitReader",
    "BitWriter",
    "DEFAULT_ENTROPY_CODER",
    "EntropyCoder",
    "EntropyPayload",
    "HuffmanCodec",
    "ScalarBitWriter",
    "available_coders",
    "byte_windows64",
    "coder_for_flags",
    "gather_windows64",
    "get_entropy_coder",
    "pack_varlen",
    "read_bits_at",
    "register_entropy_coder",
    "unpack_varlen",
]
