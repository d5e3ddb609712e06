"""CLI-level tests: `repro lint` / `python -m repro.analysis`.

Includes the acceptance gate: the real source tree lints clean.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
FAKE = FIXTURES / "fakerepo" / "repro"
GOOD = FIXTURES / "goodrepo" / "repro"


def test_repo_lints_clean_with_no_baseline():
    result = run_lint([str(SRC)])
    assert not result.errors
    assert result.findings == [], [
        f"{f.path}:{f.line}: {f.rule_id}" for f in result.findings
    ]
    assert result.files_checked > 50
    assert result.exit_code == 0


def test_cli_exit_codes(capsys):
    assert lint_main([str(GOOD)]) == 0
    assert lint_main([str(FAKE)]) == 1
    capsys.readouterr()


def test_cli_defaults_to_repro_package(capsys):
    assert lint_main([]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_repro_lint_subcommand(capsys):
    assert repro_main(["lint", str(GOOD)]) == 0
    assert repro_main(["lint", str(FAKE), "--select", "REPRO-ARCH01"]) == 1
    out = capsys.readouterr().out
    assert "REPRO-ARCH01" in out


def test_json_format_and_output_file(tmp_path, capsys):
    report_file = tmp_path / "lint.json"
    code = lint_main(
        [
            str(FAKE),
            "--format",
            "json",
            "--output",
            str(report_file),
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.loads(report_file.read_text(encoding="utf-8"))
    assert payload["exit_code"] == 1
    rule_ids = {f["rule_id"] for f in payload["findings"]}
    for family in ("ARCH", "PAGE", "LOCK", "ORDER", "TELE"):
        assert any(r.startswith(f"REPRO-{family}") for r in rule_ids), family
    for finding in payload["findings"]:
        assert finding["path"]
        assert finding["line"] >= 1
        assert finding["message"]


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "REPRO-ARCH01",
        "REPRO-ARCH02",
        "REPRO-ARCH03",
        "REPRO-PAGE01",
        "REPRO-PAGE02",
        "REPRO-PAGE03",
        "REPRO-LOCK01",
        "REPRO-LOCK02",
        "REPRO-LOCK03",
        "REPRO-ORDER01",
        "REPRO-TELE01",
        "REPRO-TELE02",
        "REPRO-TELE03",
    ):
        assert rule_id in out


def test_syntax_error_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")
    assert lint_main([str(broken)]) == 2
    assert "syntax error" in capsys.readouterr().out
