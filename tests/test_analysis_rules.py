"""Fixture-driven self-tests for the repro.analysis rule families.

Bad fixtures carry ``# EXPECT: RULE-ID[,RULE-ID]`` markers on the
offending lines; the tests assert the linter reports *exactly* those
(rule id, line) pairs — nothing missing, nothing extra.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import RULES, run_lint
from repro.analysis import importgraph

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
FAKE = FIXTURES / "fakerepo" / "repro"
GOOD = FIXTURES / "goodrepo" / "repro"


def expected_markers(*paths: Path) -> set[tuple[str, int]]:
    out: set[tuple[str, int]] = set()
    for path in paths:
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if "# EXPECT:" not in line:
                continue
            spec = line.split("# EXPECT:", 1)[1].strip()
            for rule_id in spec.split(","):
                out.add((rule_id.strip(), lineno))
    return out


def reported(*paths: Path, select=None) -> set[tuple[str, int]]:
    result = run_lint([str(path) for path in paths], select=select)
    assert not result.errors, result.errors
    return {(f.rule_id, f.line) for f in result.findings}


BAD_CASES = [
    pytest.param((FAKE / "storage" / "bad_layering.py",), id="arch01"),
    pytest.param(
        (FAKE / "network" / "loop_a.py", FAKE / "network" / "loop_b.py"),
        id="arch02-cycle",
    ),
    pytest.param((FAKE / "obs" / "bad_standalone.py",), id="arch03"),
    pytest.param((FAKE / "core" / "bad_page.py",), id="page01-page03"),
    pytest.param((FAKE / "network" / "bad_expand.py",), id="page02"),
    pytest.param((FAKE / "core" / "bad_lock.py",), id="lock01-lock02"),
    pytest.param((FAKE / "service" / "bad_blocking.py",), id="lock03"),
    pytest.param((FAKE / "service" / "bad_order.py",), id="order01"),
    pytest.param((FAKE / "core" / "bad_tele.py",), id="tele01-03"),
    pytest.param((FAKE / "columnar" / "bad_kernel.py",), id="perf01"),
]


@pytest.mark.parametrize("paths", BAD_CASES)
def test_bad_fixture_reports_exact_findings(paths):
    assert reported(*paths) == expected_markers(*paths)


def test_every_rule_family_has_a_failing_fixture():
    """Each registered family is exercised by at least one bad case."""
    covered = set()
    for param in BAD_CASES:
        for rule_id, _ in expected_markers(*param.values[0]):
            covered.add(rule_id)
    assert covered == set(RULES), sorted(set(RULES) - covered)


def test_good_fixture_tree_is_clean():
    result = run_lint([str(GOOD)])
    assert not result.errors
    assert result.findings == []
    assert result.files_checked >= 10


def test_whole_fakerepo_matches_markers():
    """A directory walk finds every seeded violation exactly once."""
    marked = expected_markers(*sorted(FAKE.rglob("*.py")))
    assert reported(FAKE) == marked


def test_order01_message_names_both_locks():
    result = run_lint([str(FAKE / "service" / "bad_order.py")])
    assert len(result.findings) == 2
    for finding in result.findings:
        assert "BadOrdering._alock" in finding.message
        assert "BadOrdering._block" in finding.message


def test_suppression_comment_silences_rule():
    result = run_lint([str(FAKE / "core" / "suppressed_page.py")])
    assert result.findings == []
    # Both suppressions matched a finding, so none is stale.
    assert result.unused_suppressions == []


def test_unused_suppression_is_warned():
    result = run_lint([str(FAKE / "core" / "unused_ignore.py")])
    assert result.findings == []
    assert [line for _, line in result.unused_suppressions] == [3]


def test_suppression_only_covers_named_rule(tmp_path):
    # Naming the wrong rule id does not excuse the finding (and the
    # mismatched suppression is reported as stale).
    target = _mini_tree(
        tmp_path,
        "def walk(network, node):\n"
        "    return network.neighbors(node)  # repro: ignore[REPRO-LOCK01]\n",
    )
    result = run_lint([str(target)])
    assert [f.rule_id for f in result.findings] == ["REPRO-PAGE01"]
    assert [line for _, line in result.unused_suppressions] == [2]


def _mini_tree(tmp_path: Path, body: str) -> Path:
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tmp_path / "repro" / "core").mkdir()
    (tmp_path / "repro" / "core" / "__init__.py").write_text("")
    target = tmp_path / "repro" / "core" / "sample.py"
    target.write_text(body, encoding="utf-8")
    return target


def test_select_prefix_limits_rules():
    findings = reported(FAKE, select=["REPRO-ARCH"])
    assert findings
    assert all(rule_id.startswith("REPRO-ARCH") for rule_id, _ in findings)


def test_rule_catalogue_is_complete():
    families = {
        "ARCH": 3,
        "PAGE": 3,
        "LOCK": 3,
        "ORDER": 1,
        "TELE": 3,
        "PERF": 1,
    }
    for family, count in families.items():
        members = [r for r in RULES if r.startswith(f"REPRO-{family}")]
        assert len(members) == count, (family, members)
    for rule in RULES.values():
        assert rule.summary
        assert rule.scope in ("module", "project")


def test_layer_table_matches_the_source_tree():
    """``LAYERS`` ranks exactly the top-level modules and packages.

    REPRO-ARCH01 skips a module whose package has no rank, so an
    unranked package's own imports would go unchecked; a rank for a
    package that no longer exists would go unnoticed.
    """
    root = Path(importgraph.__file__).resolve().parents[1]
    modules = {path.stem for path in root.glob("*.py")} - {"__init__"}
    packages = {path.parent.name for path in root.glob("*/__init__.py")}
    assert set(importgraph.LAYERS) == modules | packages
