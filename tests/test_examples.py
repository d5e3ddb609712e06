"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them from
rotting.  Marked slow (they build real workloads).
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=300):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "skyline:" in proc.stdout
        assert "cost:" in proc.stdout

    def test_hotel_finder(self):
        proc = run_example("hotel_finder.py")
        assert proc.returncode == 0, proc.stderr
        assert "Pareto-optimal hotels" in proc.stdout
        assert "cheapest skyline hotel" in proc.stdout

    def test_meeting_planner(self):
        proc = run_example("meeting_planner.py")
        assert proc.returncode == 0, proc.stderr
        assert "streaming skyline" in proc.stdout
        assert "minimise total walking" in proc.stdout

    def test_algorithm_comparison(self):
        proc = run_example("algorithm_comparison.py", "CA")
        assert proc.returncode == 0, proc.stderr
        assert "LBC" in proc.stdout
        assert "naive" in proc.stdout
