"""Public-API snapshot: accidental symbol removal/addition must fail.

The ``__all__`` of ``repro`` (and of the canonical ``repro.api``
package) is a compatibility contract.  These snapshots pin it exactly:
removing a symbol breaks downstream imports, and adding one silently
grows the surface the project must support forever — both deserve a
deliberate test edit, not a drive-by.
"""

from __future__ import annotations

import repro
import repro.api

REPRO_ALL = [
    "Codec",
    "Collector",
    "CompressionStats",
    "ErrorBound",
    "SZConfig",
    "TiledReader",
    "TiledWriter",
    "autotune",
    "compress",
    "compress_tiled",
    "compress_with_stats",
    "container_info",
    "decompress",
    "decompress_region",
    "decompress_tiled",
    "estimate",
    "get_codec",
    "register_codec",
    "verify_bound",
    "__version__",
]

API_ALL = ["Codec", "SZConfig", "get_codec", "register_codec"]


class TestSnapshots:
    def test_repro_all_snapshot(self):
        assert list(repro.__all__) == REPRO_ALL

    def test_repro_api_all_snapshot(self):
        assert list(repro.api.__all__) == API_ALL

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name
        for name in repro.api.__all__:
            assert getattr(repro.api, name, None) is not None, name

    def test_readme_documented_mode_api_is_exported(self):
        # README documents repro.ErrorBound / repro.verify_bound; they
        # must stay importable from the top level.
        assert repro.ErrorBound.from_args("rel", 1e-4).mode == "rel"
        assert callable(repro.verify_bound)

    def test_every_public_symbol_has_a_docstring(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            obj = getattr(repro, name)
            assert getattr(obj, "__doc__", None), f"{name} lacks a docstring"
