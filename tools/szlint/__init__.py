"""szlint: repo-specific AST lint rules for the SZ-1.4 reproduction.

The golden-blob suite proves the codec's invariants at runtime; szlint
proves the cheap-to-check half of them statically, before a fixture ever
runs.  Rules (see ``tools/szlint/README.md`` for rationale):

* **SZ101** — writer/reader byte-width pairing in container modules.
* **SZ102** — determinism guard for encode/decode modules.
* **SZ104** — no buffer copies (``.tobytes()`` / ``bytes(...)``) in the
  decode path.
* **SZ105** — public entry points take an :class:`~repro.api.SZConfig`
  instead of growing keyword lists.
* **SZ106** — entropy coding is dispatched through the coder registry,
  never by comparing ``entropy_coder`` names.

Run as ``python -m tools.szlint src`` (``--json`` for machine output).
Suppress a finding with a trailing ``# szlint: ignore[SZ10x]`` comment.
"""

from __future__ import annotations

from tools.szlint.diagnostics import Diagnostic
from tools.szlint.engine import LintResult, lint_paths

__all__ = ["Diagnostic", "LintResult", "lint_paths"]
