"""The preprocessed-state claim: an oracle index collapses query cost.

The quick suite's ``query/LBC/au/q4/preprocessed`` workload answers the
same query point as ``query/LBC/au/q4/cold`` but with a hub-label index
built before the measured repeats.  The tentpole claim of the oracle
layer is that the preprocessed state does **at least 5× less** work on
the settled-node + page-miss axis than the cold online run — the index
replaces graph wavefronts with O(|label|) merge scans whose records are
spatially packed into a handful of pages.

These assertions are exact (counters, not timings), so they run in the
CI test job with ``--benchmark-disable`` alongside the other gate
assertions.
"""

from __future__ import annotations

import pytest

from repro.bench import WorkloadCache, run_workload
from repro.bench.suite import QueryWorkload

SPEEDUP_FLOOR = 5


def _workload(workload_id: str, **overrides) -> QueryWorkload:
    base = dict(
        workload_id=workload_id,
        algorithm="LBC",
        network="AU",
        scale=0.05,
        omega=0.5,
        query_count=4,
        repeats=1,
    )
    base.update(overrides)
    return QueryWorkload(**base)


def _work_total(counters: dict[str, int]) -> int:
    """Settled nodes plus every physical page miss, oracle included.

    ``total_pages`` already folds in ``oracle_pages``; adding the
    oracle's own settled nodes keeps the comparison honest for the
    ``ch`` kind, whose lookups do settle (upward-graph) nodes.
    """
    return (
        counters["nodes_settled"]
        + counters["oracle_nodes_settled"]
        + counters["total_pages"]
    )


@pytest.fixture(scope="module")
def cache() -> WorkloadCache:
    return WorkloadCache()


class TestPreprocessedState:
    def test_hublabel_beats_cold_by_5x(self, cache):
        cold = run_workload(_workload("query/LBC/au/q4/cold"), cache)["counters"]
        warm_index = run_workload(
            _workload(
                "query/LBC/au/q4/preprocessed",
                distance_backend="hublabel",
                preprocessed=True,
            ),
            cache,
        )["counters"]
        assert warm_index["skyline_count"] == cold["skyline_count"]
        assert warm_index["oracle_fallbacks"] == 0
        # The whole point of preprocessing: online search never runs.
        assert warm_index["nodes_settled"] == 0
        assert warm_index["network_pages"] == 0
        assert _work_total(cold) >= SPEEDUP_FLOOR * _work_total(warm_index)

    def test_oracle_counters_are_deterministic(self, cache):
        # Two repeats through the runner raise CounterDrift on any
        # mismatch; reaching the assertion means the oracle's page and
        # scan counters reproduced exactly.
        counters = run_workload(
            _workload(
                "query/LBC/au/q4/preprocessed",
                distance_backend="hublabel",
                preprocessed=True,
                repeats=2,
            ),
            cache,
        )["counters"]
        assert counters["oracle_label_entries"] > 0
        assert counters["oracle_pages"] > 0
