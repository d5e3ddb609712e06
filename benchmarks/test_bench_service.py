"""Serving-layer benchmarks: batched wavefront reuse and closed-loop load.

Two claims are measured:

* **Batching saves work.**  Co-located concurrent requests grouped by
  the :class:`~repro.service.batching.BatchPlanner` and executed
  back-to-back through the shared :class:`DistanceEngine` settle
  measurably fewer nodes than the same requests run one at a time from
  cold — the cross-request wavefront reuse the serving layer exists
  for.  Asserted, not just reported: batched must be ≥ 20 % cheaper,
  and every node the batch settles must be billed to one of its
  requests.
* **The service keeps up under closed-loop load.**  N client threads
  each issuing a stream of blocking queries: everything completes,
  nothing is shed, every answer matches a direct single-threaded run.

Batching is measured for EDC and CE: EDC's per-candidate distance
probes go through the engine's pooled A* expanders, and CE reads pooled
INE wavefronts through per-query cursors that replay what an earlier
request already emitted, so for both a warm pool converts straight
into skipped settles that ``engine.nodes_settled()`` accounts for.
The closed-loop client runs EDC.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import ALGORITHMS, Workspace
from repro.datasets import build_preset, extract_objects
from repro.service import (
    BatchPlanner,
    QueryService,
    ServiceRequest,
    execute_plan,
)

from conftest import BENCH_SCALE


def build_service_workspace() -> Workspace:
    """A fresh, identically-seeded workspace per measurement arm.

    ``astar`` backend: EDC's probes then run on the engine's pooled A*
    expanders, so a later request resumes an earlier one's wavefronts.
    """
    network = build_preset("AU", scale=BENCH_SCALE)
    objects = extract_objects(network, omega=0.50, seed=1)
    return Workspace.build(network, objects, distance_backend="astar")


def overlapping_requests(network, algorithm="EDC"):
    """Three co-located requests; adjacent pairs share two query points."""
    ids = sorted(network.node_ids())
    a, b, c, d, e = (ids[i] for i in (10, 11, 30, 31, 50))
    node_sets = [(a, b, c), (b, c, d), (c, d, e)]
    return [
        ServiceRequest(
            i, algorithm, [network.location_at_node(n) for n in nodes]
        )
        for i, nodes in enumerate(node_sets, start=1)
    ]


class TestBatchedNodeSavings:
    @pytest.mark.parametrize("algorithm", ["EDC", "CE"])
    def test_batched_settles_at_least_20pct_fewer_nodes(self, benchmark, algorithm):
        # Serial arm: each request runs alone from fully cold state.
        serial_ws = build_service_workspace()
        requests = overlapping_requests(serial_ws.network, algorithm)
        serial_nodes = 0
        serial_results = {}
        for request in requests:
            serial_ws.reset_io(cold=True)
            before = serial_ws.engine.nodes_settled()
            serial_results[request.request_id] = ALGORITHMS[algorithm]().run(
                serial_ws, request.queries
            )
            serial_nodes += serial_ws.engine.nodes_settled() - before

        # Batched arm: one plan over an identically-built workspace.
        batch_ws = build_service_workspace()
        batch_requests = overlapping_requests(batch_ws.network, algorithm)
        plans = BatchPlanner().plan(batch_requests)
        assert len(plans) == 1, "co-located requests must share one plan"

        def run_batched():
            batch_ws.reset_io(cold=True)
            before = batch_ws.engine.nodes_settled()
            outcomes = execute_plan(batch_ws, plans[0], ALGORITHMS)
            return outcomes, batch_ws.engine.nodes_settled() - before

        outcomes, batch_nodes = benchmark.pedantic(
            run_batched, rounds=1, iterations=1
        )

        for request_id, serial_result in serial_results.items():
            assert outcomes[request_id].same_answer(serial_result)
        billed = sum(outcome.stats.nodes_settled for outcome in outcomes.values())
        assert billed == batch_nodes, (
            f"requests billed {billed} of the {batch_nodes} nodes the batch "
            "settled"
        )
        assert serial_nodes > 0
        saving = 1.0 - batch_nodes / serial_nodes
        benchmark.extra_info["serial_nodes"] = serial_nodes
        benchmark.extra_info["batch_nodes"] = batch_nodes
        benchmark.extra_info["node_saving"] = round(saving, 4)
        assert batch_nodes <= 0.8 * serial_nodes, (
            f"batched execution settled {batch_nodes} nodes vs "
            f"{serial_nodes} serial — saving {saving:.1%} < 20%"
        )


class TestClosedLoopLoad:
    CLIENTS = 4
    QUERIES_PER_CLIENT = 5

    def test_service_under_closed_loop_clients(self, benchmark):
        workspace = build_service_workspace()
        network = workspace.network
        ids = sorted(network.node_ids())
        # Each client cycles through overlapping query sets so the
        # batching window actually has co-located work to merge.
        query_sets = [
            [network.location_at_node(ids[i]) for i in indexes]
            for indexes in ((10, 11, 30), (11, 30, 31), (30, 31, 50))
        ]
        direct = {}
        for i, queries in enumerate(query_sets):
            direct[i] = ALGORITHMS["EDC"]().run(workspace, queries)

        def closed_loop():
            errors: list = []
            completed = [0]
            lock = threading.Lock()

            with QueryService(workspace, workers=4, max_batch=8) as service:

                def client(offset):
                    for i in range(self.QUERIES_PER_CLIENT):
                        which = (offset + i) % len(query_sets)
                        try:
                            result = service.query(
                                "EDC", query_sets[which], timeout_s=120
                            )
                            if not result.same_answer(direct[which]):
                                raise AssertionError(
                                    f"wrong answer for set {which}"
                                )
                            with lock:
                                completed[0] += 1
                        except Exception as exc:
                            errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(self.CLIENTS)
                ]
                started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                elapsed = time.perf_counter() - started
                stats = service.stats_dict()
            return errors, completed[0], elapsed, stats

        errors, completed, elapsed, stats = benchmark.pedantic(
            closed_loop, rounds=1, iterations=1
        )
        assert not errors, errors
        expected = self.CLIENTS * self.QUERIES_PER_CLIENT
        assert completed == expected
        assert stats["queue"]["shed"] == 0
        assert stats["requests"]["completed"] == expected
        benchmark.extra_info["throughput_qps"] = round(
            completed / elapsed, 2
        )
        benchmark.extra_info["p50_s"] = stats["latency_s"]["p50_s"]
        benchmark.extra_info["p95_s"] = stats["latency_s"]["p95_s"]
        benchmark.extra_info["deduped"] = stats["requests"]["deduped"]
        benchmark.extra_info["mean_batch_size"] = stats["batches"][
            "mean_batch_size"
        ]
        if stats["batches"]["executed"]:
            assert stats["batches"]["mean_batch_size"] >= 1.0
