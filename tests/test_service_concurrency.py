"""Concurrency correctness: snapshot isolation and locked shared state.

The headline property: N reader threads issuing skyline queries while
a writer mutates edge weights must never observe a *torn* snapshot —
every answer equals the ground truth of either the pre-mutation or the
post-mutation network, never a mixture.  Plus targeted stress for the
two locked structures (engine memo/pool, buffer pool hit/miss
accounting) whose unguarded versions lose updates, and for the
service's worker wake-ups, whose loss would strand a queued request.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from conftest import build_random_network, cold_run, place_random_objects
from repro.core import ALGORITHMS, LBC, Workspace
from repro.engine import DistanceEngine
from repro.service import QueryService
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def build_workspace(seed_offset: int = 0, edge_scale: float | None = None):
    network = build_random_network(120, 90, seed=31, detour_max=0.6)
    objects = place_random_objects(network, 40, seed=32, attribute_count=2)
    workspace = Workspace.build(network, objects, distance_backend="astar")
    if edge_scale is not None:
        edge_id = sorted(network.edge_ids())[5]
        workspace.update_edge_length(
            edge_id, network.edge(edge_id).length * edge_scale
        )
    return workspace


class TestMutationQueryInterleaving:
    """Satellite: readers under a concurrent writer see no torn state."""

    EDGE_SCALE = 4.0  # mutation: stretch one edge to 4x its length
    QUERY_NODES = (3, 40, 77)
    READERS = 4
    QUERIES_PER_READER = 6

    def test_answers_match_pre_or_post_mutation_ground_truth(self):
        # Ground truths from two fresh, identical workspaces.
        reference_before = None
        reference_after = None
        for scale, bucket in ((None, "before"), (self.EDGE_SCALE, "after")):
            workspace = build_workspace(edge_scale=scale)
            queries = [
                workspace.network.location_at_node(n)
                for n in self.QUERY_NODES
            ]
            result = LBC().run(workspace, queries)
            if bucket == "before":
                reference_before = result
            else:
                reference_after = result
        # The mutation must actually change the answer vectors,
        # otherwise this test cannot detect a torn snapshot.
        assert not reference_before.same_answer(reference_after)

        workspace = build_workspace()
        network = workspace.network
        queries = [network.location_at_node(n) for n in self.QUERY_NODES]
        edge_id = sorted(network.edge_ids())[5]
        new_length = network.edge(edge_id).length * self.EDGE_SCALE

        outcomes: list = []
        errors: list = []
        start = threading.Barrier(self.READERS + 1)

        with QueryService(workspace, workers=self.READERS) as service:

            def reader():
                start.wait()
                for i in range(self.QUERIES_PER_READER):
                    try:
                        algorithm = ("LBC", "EDC", "CE")[i % 3]
                        outcomes.append(
                            service.query(algorithm, queries, timeout_s=60)
                        )
                    except Exception as exc:  # fail the test, not the thread
                        errors.append(exc)

            def writer():
                start.wait()
                # Mutate midway through the read storm.
                service.update_edge_length(edge_id, new_length)

            threads = [
                threading.Thread(target=reader)
                for _ in range(self.READERS)
            ]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "worker wedged"

        assert not errors, errors
        assert len(outcomes) == self.READERS * self.QUERIES_PER_READER
        matched_before = matched_after = 0
        for result in outcomes:
            if result.same_answer(reference_before):
                matched_before += 1
            elif result.same_answer(reference_after):
                matched_after += 1
            else:
                pytest.fail(
                    "torn snapshot: answer matches neither pre- nor "
                    f"post-mutation ground truth: {result.object_ids()}"
                )
        # The mutation happened once, so at least one side was observed.
        assert matched_before + matched_after == len(outcomes)
        assert matched_after >= 1  # queries after the mutation see it


class TestGatheringUnderStress:
    """Workers batch what is queued: bursts from many clients lose no
    request, batch none twice, bill every settle once and wedge no
    worker."""

    WORKERS = 4  # more workers than the runners have cores
    CLIENTS = 6
    BURSTS = 3
    POINT_SETS = ((3, 40), (40, 77), (5, 9), (11, 60))

    def test_every_request_is_batched_once_and_answered(self):
        workspace = build_workspace()
        network = workspace.network
        point_sets = [
            [network.location_at_node(n) for n in nodes]
            for nodes in self.POINT_SETS
        ]
        settled = workspace.engine.nodes_settled()
        pendings: list = []
        errors: list = []
        start = threading.Barrier(self.CLIENTS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(workspace, workers=self.WORKERS, max_batch=3) as service:

                def client(index):
                    start.wait()
                    for burst in range(self.BURSTS):
                        queries = point_sets[(index + burst) % len(point_sets)]
                        for algorithm in ("LBC", "EDC", "CE"):
                            try:
                                pendings.append(
                                    service.submit(algorithm, queries, timeout_s=60)
                                )
                            except Exception as exc:  # fail the test
                                errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(self.CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "client wedged"
                results = [p.result(timeout=60) for p in pendings]
                stats = service.stats_dict()
                records = service.recorder.ring_entries()
                with service._cond:
                    assert not service._active_keys
        finally:
            sys.setswitchinterval(interval)

        assert not errors, errors
        total = self.CLIENTS * self.BURSTS * 3
        assert len(results) == total
        assert stats["requests"]["completed"] == total
        assert stats["batches"]["requests_batched"] == total
        assert len(records) == total
        assert sum(r.counters["nodes_settled"] for r in records) == (
            workspace.engine.nodes_settled() - settled
        )
        references = {}
        for pending, result in zip(pendings, results):
            request = pending.request
            key = (request.algorithm, tuple(q.node_id for q in request.queries))
            if key not in references:
                references[key] = cold_run(
                    ALGORITHMS[request.algorithm](), workspace, request.queries
                )
            assert result.same_answer(references[key])


class TestKeyWaits:
    """A plan waiting for another plan's query-point keys never takes
    the wake-up meant for an idle worker."""

    def test_submit_wakes_an_idle_worker_not_a_key_waiter(self):
        workspace = build_workspace()
        network = workspace.network
        held_points, first, second = (
            [network.location_at_node(n) for n in nodes]
            for nodes in ((3, 40), (5, 9), (11, 60))
        )
        started = threading.Event()
        gate = threading.Event()

        class Held(LBC):
            def run(self, workspace, queries):
                started.set()
                gate.wait(30)
                return super().run(workspace, queries)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(
                workspace, workers=3, algorithms={**ALGORITHMS, "held": Held}
            ) as service:
                try:
                    held = service.submit("held", held_points)
                    assert started.wait(10)
                    waiter = service.submit("LBC", held_points)
                    while service.queue_depth():
                        time.sleep(0.001)
                    time.sleep(0.05)  # the waiter reaches its key wait
                    # The idle worker answers a disjoint request; its
                    # key release wakes the key waiter, which waits again.
                    service.query("LBC", first, timeout_s=10)
                    lone = service.submit("LBC", second)
                    answer = lone.result(timeout=3)
                    assert not waiter.done()
                finally:
                    gate.set()
                held.result(timeout=30)
                waiter.result(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert answer.same_answer(cold_run(LBC(), workspace, second))


class TestEngineThreadSafety:
    """Satellite: the memo LRU and expander pool survive concurrency."""

    def test_concurrent_distinct_source_distances_are_exact(self):
        workspace = build_workspace()
        network = workspace.network
        engine = workspace.engine
        node_ids = sorted(network.node_ids())
        sources = node_ids[:16]
        targets = node_ids[40:56]

        # Sequential ground truth on a fresh workspace.
        reference = {}
        fresh = build_workspace()
        for s in sources:
            for t in targets:
                reference[(s, t)] = fresh.engine.distance(
                    fresh.network.location_at_node(s),
                    fresh.network.location_at_node(t),
                )

        results: dict = {}
        errors: list = []
        lock = threading.Lock()

        def hammer(source_slice):
            try:
                for s in source_slice:
                    for t in targets:
                        d = engine.distance(
                            network.location_at_node(s),
                            network.location_at_node(t),
                        )
                        with lock:
                            results[(s, t)] = d
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(sources[i::4],))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        for key, expected in reference.items():
            assert results[key] == pytest.approx(expected)

    def test_concurrent_label_columns_answer_and_charge_exactly(self):
        """Threads on distinct query points drive their own pooled label
        columns over one oracle page pool; no page charge may be lost."""
        network = build_random_network(120, 90, seed=31, detour_max=0.6)
        objects = place_random_objects(network, 40, seed=32, attribute_count=2)
        workspace = Workspace.build(network, objects, distance_backend="hublabel")
        engine = workspace.engine
        oracle_io = engine.ensure_oracle().store.stats
        node_ids = sorted(network.node_ids())
        sources = [network.location_at_node(n) for n in node_ids[:16]]
        targets = [obj.location for obj in list(objects)[:24]]
        reference = DistanceEngine(network, backend="dijkstra")
        expected = {
            (i, j): reference.distance(s, t)
            for i, s in enumerate(sources)
            for j, t in enumerate(targets)
        }
        touches = 2 * sum(
            len(network.seed_frontier(s)) * len(network.seed_frontier(t))
            for s in sources
            for t in targets
        )
        results: dict = {}
        errors: list = []

        def hammer(indices):
            try:
                for i in indices:
                    for j, target in enumerate(targets):
                        results[(i, j)] = engine.distance(sources[i], target)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(range(i, 16, 4),))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "worker wedged"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert results == pytest.approx(expected)
        assert oracle_io.logical_reads == touches
        assert engine.cache_info()["pool_entries"] == len(sources)

    def test_memo_lru_structure_survives_hammering(self):
        """Tiny capacity forces constant eviction under contention."""
        from repro.engine.cache import DistanceMemo

        memo = DistanceMemo(capacity=8)
        errors: list = []

        def churn(offset):
            try:
                for i in range(2000):
                    key = ((offset + i) % 32,)
                    memo.put(key, float(i))
                    memo.get(((offset + i + 1) % 32,))
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i * 7,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(memo) <= 8
        counters = memo.counters
        assert counters.hits + counters.misses == 6 * 2000


class TestBufferPoolThreadSafety:
    """Satellite: hit/miss accounting loses no updates under threads."""

    THREADS = 6
    FETCHES_PER_THREAD = 3000

    def test_logical_reads_are_exact_under_concurrency(self):
        disk = DiskManager(page_size=128)
        pages = [disk.allocate().page_id for _ in range(64)]
        pool = BufferPool(disk, capacity_bytes=128 * 16)  # 16 frames
        errors: list = []

        def churn(seed):
            # Odd seeds fetch one page a call, even seeds four pages a
            # fetch_many call: both paths share one lock.
            try:
                state = seed
                batch = []
                for _ in range(self.FETCHES_PER_THREAD):
                    state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                    page_id = pages[state % len(pages)]
                    if seed % 2:
                        pool.fetch(page_id)
                        continue
                    batch.append(page_id)
                    if len(batch) == 4:
                        pool.fetch_many(batch)
                        batch = []
                pool.fetch_many(batch)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i + 1,))
            for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        # The lost-update bug makes this undercount; the lock makes it
        # exact: every fetch is one logical read, hits + misses.
        assert pool.stats.logical_reads == self.THREADS * self.FETCHES_PER_THREAD
        assert pool.stats.physical_reads >= len(pages) - 16
        assert pool.resident_count <= 16
