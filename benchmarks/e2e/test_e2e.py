"""Smoke test of the end-to-end benchmark, at ``--smoke`` sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import CE  # noqa: E402
from repro.service.errors import Overloaded  # noqa: E402
from repro.service.service import QueryService  # noqa: E402

CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in CATALOG["workloads"]]


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_catalog_matches_the_code():
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert CATALOG["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" for m in CATALOG["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = run_cli(
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--smoke", "--out", str(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in CATALOG[section]}
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (tmp_path / f"{workload}.trace.json").is_file()


def _entry_point_targets() -> set[tuple[int, str, int]]:
    specs = [s for layer in layertrace.LAYERS for s in layertrace.ENTRY_POINTS[layer]]
    return {
        (id(owner), attr, id(original))
        for spec in specs + list(layertrace.WAIT_POINTS)
        for _, owner, attr, original in layertrace._resolve(spec)
    }


def test_traced_run_writes_a_loadable_trace_and_restores_every_entry_point(
    tmp_path,
):
    before = _entry_point_targets()
    path = tmp_path / "fanout.trace.json"
    report = workloads.run("serve-fanout-au", 1, 1.0, str(path), smoke=True)
    assert _entry_point_targets() == before

    document = json.loads(path.read_text())
    assert document["schema"] == "repro-e2e-trace"
    assert document["missing"] == []
    spans = document["spans"]
    count = document["spans_written"]
    assert count > 0 and all(len(column) == count for column in spans.values())
    assert all(-1 <= p < i for i, p in enumerate(spans["parent"]))
    assert set(document["name_layer"]) <= set(layertrace.LAYERS) | {"wait"}
    summary = document["summary"]
    attributed = sum(summary["self_s_by_layer"].values())
    assert attributed + summary["unattributed_s"] == pytest.approx(
        summary["op_wall_s"]
    )
    assert report.metrics["trace.overhead_ratio"] > 0
    assert report.metrics["batching.dedupe_frac"] > 0


def test_a_wrong_answer_exits_1_naming_the_workload(monkeypatch, tmp_path, capsys):
    execute = CE._execute

    def drop_last_point(self, *args, **kwargs):
        return execute(self, *args, **kwargs)[:-1]

    monkeypatch.setattr(CE, "_execute", drop_last_point)
    code = run.main(
        ["--workload", "paper-cold-na", "--seconds", "1", "--smoke",
         "--out", str(tmp_path)]
    )
    assert code == 1
    assert "paper-cold-na" in capsys.readouterr().err


def test_a_failed_request_makes_the_run_incorrect(monkeypatch, tmp_path, capsys):
    submit = QueryService.submit
    calls = []

    def shed_every_fifth(self, *args, **kwargs):
        calls.append(None)
        if len(calls) % 5 == 0:
            raise Overloaded(1, 1)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(QueryService, "submit", shed_every_fifth)
    code = run.main(
        ["--workload", "serve-fanout-au", "--seconds", "1", "--smoke",
         "--out", str(tmp_path)]
    )
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_cli("--workload", "serve-fanout-au", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
