"""Shared fixtures for the benchmark suite.

Workspaces are built once per session and shared across benchmark
points (mirroring how the paper's experiments reuse datasets); every
measured run starts with a cold buffer via ``reset_io``.

The benchmark scale defaults to the experiment default (10 % of the
paper's node counts).  Set ``REPRO_BENCH_SCALE`` to change it.

The scalar references the counter gates measure against live in
``tests/`` (one copy); that directory goes on ``sys.path`` here so
benchmark modules import them as the tests do.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.core import Workspace
from repro.datasets import build_preset, extract_objects, select_query_points

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.10"))
BENCH_BUFFER = 256 * 1024  # pressure-matched to the paper's 1 MiB (see DESIGN.md)


class BenchWorkloads:
    """Session-wide cache of (network, omega) -> workspace."""

    def __init__(self) -> None:
        self._networks: dict[str, object] = {}
        self._workspaces: dict[tuple[str, float], Workspace] = {}

    def network(self, name: str):
        if name not in self._networks:
            self._networks[name] = build_preset(name, scale=BENCH_SCALE)
        return self._networks[name]

    def workspace(self, name: str, omega: float = 0.50) -> Workspace:
        key = (name, omega)
        if key not in self._workspaces:
            network = self.network(name)
            objects = extract_objects(network, omega=omega, seed=1)
            self._workspaces[key] = Workspace.build(
                network, objects, paged=True, buffer_bytes=BENCH_BUFFER
            )
        return self._workspaces[key]

    def queries(self, name: str, count: int, seed: int = 100):
        return select_query_points(
            self.network(name), count, region_fraction=0.10, seed=seed
        )


@pytest.fixture(scope="session")
def workloads() -> BenchWorkloads:
    return BenchWorkloads()


def run_cold(workspace: Workspace, algorithm, queries):
    """One cold-buffer query execution; returns the result."""
    workspace.reset_io(cold=True)
    return algorithm.run(workspace, queries)


def attach_stats(benchmark, result) -> None:
    """Record the paper's series values alongside the timing."""
    s = result.stats
    benchmark.extra_info.update(
        {
            "skyline": s.skyline_count,
            "candidates": s.candidate_count,
            "candidate_ratio": round(s.candidate_ratio, 4),
            "nodes_settled": s.nodes_settled,
            "network_pages": s.network_pages,
            "total_pages": s.total_pages,
            "initial_response_s": round(s.initial_response_s, 6),
            "modeled_total_s": round(s.modeled_total_s, 6),
            "modeled_initial_s": round(s.modeled_initial_s, 6),
        }
    )
