"""Tests for the szlint codec-invariant lint pack (``tools/szlint``).

Each rule is exercised against a bad/good fixture pair under
``tests/fixtures/szlint/`` (with ``force_scope`` so the snippets do not
need to live under the real ``src/repro`` scope paths), and the live
``src/`` tree is asserted clean — the property the CI ``analysis`` job
enforces.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.szlint import Diagnostic, lint_paths  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "fixtures" / "szlint"

RULES = ("SZ101", "SZ102", "SZ104", "SZ105", "SZ106")


def _lint(path: Path, **kwargs):
    return lint_paths([path], force_scope=True, **kwargs)


def _rules_hit(result) -> set[str]:
    return {d.rule for d in result.diagnostics}


# ---------------------------------------------------------------------------
# Per-rule fixture behaviour
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule", RULES)
def test_bad_fixture_flags_only_its_rule(rule: str) -> None:
    result = _lint(FIXTURES / f"{rule.lower()}_bad.py")
    assert not result.ok
    assert _rules_hit(result) == {rule}


@pytest.mark.parametrize("rule", RULES)
def test_good_fixture_is_clean(rule: str) -> None:
    result = _lint(FIXTURES / f"{rule.lower()}_good.py")
    assert result.ok, [d.format() for d in result.diagnostics]
    assert result.files_checked == 1


def test_sz101_reports_both_drift_directions() -> None:
    result = _lint(FIXTURES / "sz101_bad.py")
    messages = [d.message for d in result.diagnostics]
    assert any("pack width 6" in m for m in messages)
    assert any("unpack width 2" in m for m in messages)
    # Diagnostics point at the offending pack/unpack lines.
    lines = {d.line for d in result.diagnostics}
    assert lines == {9, 16}


def test_sz102_covers_each_nondeterminism_class() -> None:
    result = _lint(FIXTURES / "sz102_bad.py")
    messages = " | ".join(d.message for d in result.diagnostics)
    for fragment in ("random", "wall-clock", "reduction", "set", "id()"):
        assert fragment in messages, fragment
    # Ufunc-method spellings are their own diagnostic class.
    assert "`add.reduce` ufunc reduction" in messages
    assert "`multiply.accumulate` ufunc reduction" in messages


def test_sz104_flags_tobytes_and_bytes_calls() -> None:
    result = _lint(FIXTURES / "sz104_bad.py")
    messages = " | ".join(d.message for d in result.diagnostics)
    assert ".tobytes()" in messages
    assert "bytes(...)" in messages


def test_sz105_counts_parameters() -> None:
    result = _lint(FIXTURES / "sz105_bad.py")
    (diag,) = result.diagnostics
    assert "compress_stream" in diag.message
    assert "7 named parameters" in diag.message


def test_sz106_flags_eq_and_membership_dispatch() -> None:
    result = _lint(FIXTURES / "sz106_bad.py")
    assert len(result.diagnostics) == 2
    assert all("entropy_coder" in d.message for d in result.diagnostics)
    assert all("get_entropy_coder" in d.message for d in result.diagnostics)


def test_sz106_exempts_the_encoding_package(tmp_path: Path) -> None:
    pkg = tmp_path / "repro" / "encoding"
    pkg.mkdir(parents=True)
    snippet = pkg / "custom.py"
    snippet.write_text('def pick(entropy_coder):\n'
                       '    return entropy_coder == "huffman"\n')
    # Without force_scope the registry package is exempt...
    assert lint_paths([snippet], select=["SZ106"]).ok
    # ...and the same code one level up is not.
    outside = tmp_path / "repro" / "custom.py"
    outside.write_text(snippet.read_text())
    result = lint_paths([outside], select=["SZ106"])
    assert not result.ok


# ---------------------------------------------------------------------------
# Engine behaviour: selection, suppression, errors
# ---------------------------------------------------------------------------


def test_select_restricts_rules() -> None:
    result = lint_paths(
        [FIXTURES / "sz102_bad.py"], force_scope=True, select=["SZ104"]
    )
    assert result.ok


def test_ignore_comment_suppresses_one_rule(tmp_path: Path) -> None:
    snippet = tmp_path / "decode_mod.py"
    snippet.write_text(
        "def decode(arr):\n"
        "    return arr.tobytes()  # szlint: ignore[SZ104]\n"
    )
    assert lint_paths([snippet], force_scope=True).ok


def test_bare_ignore_comment_suppresses_all_rules(tmp_path: Path) -> None:
    snippet = tmp_path / "decode_mod.py"
    snippet.write_text(
        "import time\n"
        "def decode(arr):\n"
        "    t = time.time()  # szlint: ignore\n"
        "    return arr.tobytes(), t  # szlint: ignore\n"
    )
    result = lint_paths([snippet], force_scope=True)
    assert result.ok, [d.format() for d in result.diagnostics]


def test_ignore_comment_for_other_rule_does_not_suppress(tmp_path: Path) -> None:
    snippet = tmp_path / "decode_mod.py"
    snippet.write_text(
        "def decode(arr):\n"
        "    return arr.tobytes()  # szlint: ignore[SZ102]\n"
    )
    result = lint_paths([snippet], force_scope=True)
    assert _rules_hit(result) == {"SZ104"}


def test_syntax_error_is_reported_not_raised(tmp_path: Path) -> None:
    snippet = tmp_path / "broken.py"
    snippet.write_text("def broken(:\n")
    result = lint_paths([snippet])
    assert not result.ok
    assert result.errors and "broken.py" in result.errors[0]


def test_diagnostic_format_is_clickable() -> None:
    diag = Diagnostic(path="src/x.py", line=12, rule="SZ104", message="msg")
    assert diag.format() == "src/x.py:12: SZ104 msg"


# ---------------------------------------------------------------------------
# The live tree must be clean — the invariant CI enforces
# ---------------------------------------------------------------------------


def test_live_src_tree_is_clean() -> None:
    result = lint_paths([REPO_ROOT / "src"])
    assert result.files_checked > 50
    assert result.ok, "\n".join(d.format() for d in result.diagnostics)
    assert not result.errors


# ---------------------------------------------------------------------------
# CLI contract: exit codes, text and --json output
# ---------------------------------------------------------------------------


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.szlint", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def test_cli_clean_tree_exits_zero() -> None:
    proc = _run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_findings_exit_one_with_rule_and_location() -> None:
    bad = str(FIXTURES / "sz104_bad.py")
    proc = _run_cli(bad, "--force-scope")
    assert proc.returncode == 1
    assert "SZ104" in proc.stdout
    assert "sz104_bad.py:7:" in proc.stdout


def test_cli_json_output() -> None:
    bad = str(FIXTURES / "sz101_bad.py")
    proc = _run_cli(bad, "--force-scope", "--json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert payload["count"] == len(payload["diagnostics"]) == 2
    rules = {d["rule"] for d in payload["diagnostics"]}
    assert rules == {"SZ101"}
    assert all(
        {"path", "line", "rule", "message"} <= set(d) for d in payload["diagnostics"]
    )


def test_cli_missing_path_exits_two() -> None:
    proc = _run_cli("no/such/path")
    assert proc.returncode == 2


def test_cli_select_filter() -> None:
    bad = str(FIXTURES / "sz102_bad.py")
    proc = _run_cli(bad, "--force-scope", "--select", "SZ104")
    assert proc.returncode == 0
