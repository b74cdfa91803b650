"""Canonical public API: one config object, one codec object.

:class:`SZConfig` reifies every pipeline knob into a frozen, validated,
JSON-serializable value object; :class:`Codec` binds one to every access
pattern the library offers (buffer encode/decode in the numcodecs filter
contract, tiled containers, streaming writers/readers, file-to-file
compression).  The module-level functions (:func:`repro.compress`,
:func:`repro.compress_tiled`, ...) take the same ``SZConfig``, or the
keywords of :meth:`SZConfig.from_kwargs`.

>>> from repro.api import Codec, SZConfig
>>> cfg = SZConfig.from_kwargs(mode="rel", bound=1e-4)
>>> codec = Codec(cfg)
"""

from repro.api.codec import Codec, get_codec, register_codec
from repro.api.config import SZConfig

__all__ = ["Codec", "SZConfig", "get_codec", "register_codec"]
