"""Text and JSON renderers for lint results."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.analysis.walker import Finding


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    unused_suppressions: list[tuple[str, int]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


def _display_path(path: str) -> str:
    try:
        rel = os.path.relpath(path)
    except ValueError:  # pragma: no cover - cross-drive on win32
        return path
    return rel.replace(os.sep, "/") if not rel.startswith("..") else path


def render_text(result: LintResult) -> str:
    lines: list[str] = []
    for finding in sorted(result.findings, key=Finding.sort_key):
        lines.append(
            f"{_display_path(finding.path)}:{finding.line}:"
            f"{finding.col + 1}: {finding.rule_id} {finding.message}"
        )
    for path, line in result.unused_suppressions:
        lines.append(
            f"{_display_path(path)}:{line}: warning: unused "
            "`# repro: ignore` suppression (no finding matched)"
        )
    for error in result.errors:
        lines.append(f"error: {error}")
    total = len(result.findings)
    summary = (
        f"{result.files_checked} files checked, "
        f"{total} finding{'s' if total != 1 else ''}"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "files_checked": result.files_checked,
        "findings": [
            {
                "rule_id": finding.rule_id,
                "path": _display_path(finding.path),
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
            }
            for finding in sorted(result.findings, key=Finding.sort_key)
        ],
        "unused_suppressions": [
            {"path": _display_path(path), "line": line}
            for path, line in result.unused_suppressions
        ],
        "errors": list(result.errors),
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
