"""Shared AST pattern-matching helpers for szlint rules."""

from __future__ import annotations

import ast

__all__ = [
    "callee_name",
    "dotted_name",
    "int_literal",
    "slice_width",
    "str_literal",
]


def callee_name(call: ast.Call) -> str | None:
    """Terminal name of the called object: ``a.b.f(...)`` -> ``"f"``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dotted_name(node: ast.expr) -> str | None:
    """Full dotted path of a Name/Attribute chain, else None."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def int_literal(node: ast.expr | None) -> int | None:
    """Value of an int constant (including unary minus), else None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        if isinstance(node.value, bool):
            return None
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = int_literal(node.operand)
        if inner is not None:
            return -inner
    return None


def str_literal(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _decompose(
    node: ast.expr, sign: int = 1
) -> tuple[list[tuple[int, str]], int] | None:
    """Split an additive expression into (signed opaque terms, int offset).

    ``8`` -> ([], 8); ``pos + 6`` -> ([(1, "pos")], 6);
    ``8 + 6 * i`` -> ([(1, <dump of 6*i>)], 8).  Opaque sub-expressions
    are keyed by their AST dump so two slice bounds sharing the same
    symbolic part compare equal.
    """
    lit = int_literal(node)
    if lit is not None:
        return [], sign * lit
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = _decompose(node.left, sign)
        rsign = sign if isinstance(node.op, ast.Add) else -sign
        right = _decompose(node.right, rsign)
        if left is None or right is None:
            return None
        return left[0] + right[0], left[1] + right[1]
    return [(sign, ast.dump(node))], 0


def slice_width(node: ast.expr) -> int | None:
    """Byte width of a statically sized slice ``buf[a:b]``.

    Handles ``buf[8:16]``, ``buf[pos : pos + 6]``,
    ``buf[p + 8 : p + 14]`` and ``blob[2 + 6*i : 8 + 6*i]`` — the idioms
    the container readers use.  Returns None when the two bounds do not
    share the same symbolic part, i.e. the width is not derivable.
    """
    if not isinstance(node, ast.Subscript):
        return None
    sl = node.slice
    if not isinstance(sl, ast.Slice) or sl.step is not None:
        return None
    if sl.lower is None or sl.upper is None:
        return None
    lower = _decompose(sl.lower)
    upper = _decompose(sl.upper)
    if lower is None or upper is None:
        return None
    if sorted(lower[0]) != sorted(upper[0]):
        return None
    width = upper[1] - lower[1]
    return width if width > 0 else None
