"""Rule registry for szlint.

Each rule is a class with a ``rule_id``, a path-based ``applies``
predicate (bypassed by the engine's ``force_scope`` for fixture tests),
a per-file ``check`` and an optional cross-file ``finalize``.
"""

from __future__ import annotations

import ast

from tools.szlint.diagnostics import Diagnostic

__all__ = ["Rule", "all_rules"]


class Rule:
    """Base class: subclasses override ``check`` (and maybe ``finalize``)."""

    rule_id = "SZ000"

    def applies(self, module: str) -> bool:
        """Whether this rule runs on ``module`` (posix path string)."""
        return True

    def check(
        self, path: str, module: str, tree: ast.Module, source: str
    ) -> list[Diagnostic]:
        return []

    def finalize(self) -> list[Diagnostic]:
        """Cross-file diagnostics, emitted after every file was checked."""
        return []


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule (stateful across files)."""
    from tools.szlint.rules.sz101 import SZ101
    from tools.szlint.rules.sz102 import SZ102
    from tools.szlint.rules.sz104 import SZ104
    from tools.szlint.rules.sz105 import SZ105
    from tools.szlint.rules.sz106 import SZ106

    return [SZ101(), SZ102(), SZ104(), SZ105(), SZ106()]
