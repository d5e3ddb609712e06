"""Unit tests for the serving layer: planner, admission, deadlines.

Concurrent mutation/query interleaving lives in
``test_service_concurrency.py``; the HTTP transport in
``test_service_http.py``.
"""

from __future__ import annotations

import sys
import threading
import time
import types

import pytest

from conftest import build_random_network, cold_run, place_random_objects
from repro.core import ALGORITHMS, LBC, Workspace
from repro.core.result import SkylineResult
from repro.datasets import build_preset, extract_objects, select_query_points
import repro.service.service as service_module
from repro.service import (
    BadRequest,
    BatchPlanner,
    DeadlineExceeded,
    Overloaded,
    QueryService,
    ReadWriteLock,
    ServiceClosed,
    ServiceRequest,
    execute_plan,
)


@pytest.fixture(scope="module")
def dataset():
    network = build_random_network(150, 110, seed=21, detour_max=0.6)
    objects = place_random_objects(network, 50, seed=22, attribute_count=2)
    return network, objects


@pytest.fixture
def workspace(dataset):
    network, objects = dataset
    return Workspace.build(network, objects, distance_backend="astar")


def locations(network, *nodes):
    return [network.location_at_node(n) for n in nodes]


@pytest.fixture(scope="module")
def au():
    """AU at 2 %, the fan-out workload's preset at test size."""
    network = build_preset("AU", scale=0.02, seed=3)
    return network, extract_objects(network, omega=0.5, seed=4)


class SlowLBC(LBC):
    """LBC that sleeps before running: a plan that holds its worker."""

    def run(self, workspace, queries):
        time.sleep(0.3)
        return super().run(workspace, queries)


# ----------------------------------------------------------------------
# BatchPlanner
# ----------------------------------------------------------------------
class TestBatchPlanner:
    def test_disjoint_requests_get_separate_plans(self, dataset):
        network, _ = dataset
        requests = [
            ServiceRequest(1, "LBC", locations(network, 1, 2)),
            ServiceRequest(2, "LBC", locations(network, 30, 31)),
        ]
        plans = BatchPlanner().plan(requests)
        assert len(plans) == 2
        assert not plans[0].key_union() & plans[1].key_union()

    def test_overlap_is_transitive(self, dataset):
        """A-B share q2, B-C share q3 → one batch of three."""
        network, _ = dataset
        requests = [
            ServiceRequest(1, "LBC", locations(network, 1, 2)),
            ServiceRequest(2, "LBC", locations(network, 2, 3)),
            ServiceRequest(3, "LBC", locations(network, 3, 4)),
        ]
        plans = BatchPlanner().plan(requests)
        assert len(plans) == 1
        assert len(plans[0].units) == 3

    def test_identical_requests_dedupe_into_one_unit(self, dataset):
        network, _ = dataset
        same = locations(network, 5, 6, 7)
        permuted = locations(network, 7, 5, 6)
        requests = [
            ServiceRequest(1, "LBC", same),
            ServiceRequest(2, "LBC", list(same)),
            ServiceRequest(3, "LBC", permuted),
            ServiceRequest(4, "EDC", list(same)),  # different algorithm
        ]
        plans = BatchPlanner().plan(requests)
        assert len(plans) == 1
        units = plans[0].units
        assert len(units) == 2  # LBC×3 deduped, EDC separate
        sizes = sorted(len(u.requests) for u in units)
        assert sizes == [1, 3]

    def test_execute_plan_answers_match_direct_runs(self, workspace):
        network = workspace.network
        requests = [
            ServiceRequest(1, "LBC", locations(network, 1, 2, 3)),
            ServiceRequest(2, "EDC", locations(network, 2, 3, 9)),
        ]
        plans = BatchPlanner().plan(requests)
        assert len(plans) == 1
        outcomes = execute_plan(workspace, plans[0], ALGORITHMS)
        for request in requests:
            direct = cold_run(
                ALGORITHMS[request.algorithm](), workspace, request.queries
            )
            assert outcomes[request.request_id].same_answer(direct)

    def test_batch_bills_every_settle_and_page_to_a_request(self, workspace):
        # EDC's probes and CE's INE wavefronts both run on pooled
        # expanders, which engine.nodes_settled() counts.  The fourth
        # request dedupes under the first and bills nothing.
        network = workspace.network
        for algorithm in ("EDC", "CE"):
            requests = [
                ServiceRequest(i, algorithm, locations(network, *nodes))
                for i, nodes in enumerate(
                    ((1, 2, 3), (2, 3, 9), (3, 9, 12), (3, 2, 1)), start=1
                )
            ]
            plans = BatchPlanner().plan(requests)
            assert len(plans) == 1
            assert len(plans[0].units) == 3
            workspace.reset_io(cold=True)
            settled = workspace.engine.nodes_settled()
            pages = workspace.network_pages_read()
            outcomes = execute_plan(workspace, plans[0], ALGORITHMS)
            stats = [outcomes[r.request_id].stats for r in requests]
            assert sum(s.nodes_settled for s in stats) == (
                workspace.engine.nodes_settled() - settled
            )
            assert sum(s.network_pages for s in stats) == (
                workspace.network_pages_read() - pages
            )
            assert stats[3].extras["deduped_of"] == 1
            assert stats[3].skyline_count == stats[0].skyline_count

    def test_follower_vectors_are_permuted_not_copied(self, workspace):
        network = workspace.network
        attrs = workspace.attribute_count
        # (canonical, follower, the canonical column behind each of the
        # follower's): a rotation, and a duplicated point named once.
        cases = [
            ((4, 11, 17), (17, 4, 11), (2, 0, 1)),
            ((4, 4, 11), (11, 4), (2, 0)),
        ]
        for canonical_nodes, follower_nodes, columns in cases:
            canonical = ServiceRequest(
                1, "LBC", locations(network, *canonical_nodes)
            )
            follower = ServiceRequest(
                2, "LBC", locations(network, *follower_nodes)
            )
            plans = BatchPlanner().plan([canonical, follower])
            assert [len(u.requests) for u in plans[0].units] == [2]
            outcomes = execute_plan(workspace, plans[0], ALGORITHMS)
            a, b = outcomes[1], outcomes[2]
            assert a.object_ids() == b.object_ids()
            width = len(canonical_nodes)
            theirs = b.vectors_by_id()
            for object_id, vector in a.vectors_by_id().items():
                assert len(vector) == width + attrs
                assert theirs[object_id] == (
                    tuple(vector[c] for c in columns) + vector[width:]
                )
            assert b.stats.query_count == len(follower_nodes)
            direct = cold_run(LBC(), workspace, follower.queries)
            assert b.same_answer(direct)

    def test_unit_failure_does_not_sink_the_batch(self, workspace):
        network = workspace.network

        class Exploding:
            name = "explode"

            def run(self, workspace, queries):
                raise RuntimeError("boom")

        registry = dict(ALGORITHMS)
        registry["explode"] = Exploding
        requests = [
            ServiceRequest(1, "explode", locations(network, 1, 2)),
            ServiceRequest(2, "LBC", locations(network, 2, 3)),
        ]
        plans = BatchPlanner().plan(requests)
        outcomes = execute_plan(workspace, plans[0], registry)
        assert isinstance(outcomes[1], RuntimeError)
        direct = cold_run(LBC(), workspace, requests[1].queries)
        assert outcomes[2].same_answer(direct)


# ----------------------------------------------------------------------
# QueryService
# ----------------------------------------------------------------------
class TestQueryService:
    def test_blocking_query_matches_direct_run(self, workspace):
        network = workspace.network
        queries = locations(network, 3, 40, 77)
        with QueryService(workspace, workers=2) as service:
            result = service.query("LBC", queries)
            assert result.same_answer(cold_run(LBC(), workspace, queries))

    def test_unknown_algorithm_and_empty_queries_rejected(self, workspace):
        with QueryService(workspace, workers=1) as service:
            with pytest.raises(BadRequest):
                service.submit("nope", locations(workspace.network, 1))
            with pytest.raises(BadRequest):
                service.submit("LBC", [])

    def test_admission_control_sheds_when_queue_full(self, workspace):
        network = workspace.network
        queries = locations(network, 1, 2)
        with QueryService(workspace, workers=1, queue_limit=3) as service:
            service.pause()
            for _ in range(3):
                service.submit("LBC", queries)
            with pytest.raises(Overloaded) as exc_info:
                service.submit("LBC", queries)
            assert exc_info.value.queue_limit == 3
            assert service.stats_dict()["queue"]["shed"] == 1
            service.resume()

    def test_deadline_exceeded_for_stale_requests(self, workspace):
        network = workspace.network
        with QueryService(workspace, workers=1) as service:
            service.pause()
            pending = service.submit(
                "LBC", locations(network, 1, 2), timeout_s=0.01
            )
            time.sleep(0.08)
            service.resume()
            with pytest.raises(DeadlineExceeded):
                pending.result(timeout=10)
            assert service.stats_dict()["requests"]["timed_out"] == 1

    def test_dedupe_counted_and_consistent(self, workspace):
        network = workspace.network
        queries = locations(network, 8, 9, 10)
        settled = workspace.engine.nodes_settled()
        pages = workspace.network_pages_read()
        with QueryService(workspace, workers=1, max_batch=8) as service:
            service.pause()
            pendings = [service.submit("LBC", queries) for _ in range(4)]
            service.resume()
            results = [p.result(timeout=30) for p in pendings]
            for other in results[1:]:
                assert other.same_answer(results[0])
            assert service.stats_dict()["requests"]["deduped"] == 3
            # One run paid for four answers: the four completion
            # records bill exactly what the engine and store did.
            records = service.recorder.ring_entries()
            assert len(records) == 4
            assert sum(r.counters["nodes_settled"] for r in records) == (
                workspace.engine.nodes_settled() - settled
            )
            assert sum(r.counters["network_pages"] for r in records) == (
                workspace.network_pages_read() - pages
            )
            followers = [r for r in records if (r.extras or {}).get("deduped")]
            canonical = {r.request_id for r in records} - {
                r.request_id for r in followers
            }
            assert len(followers) == 3
            assert {r.extras["deduped_of"] for r in followers} == canonical

    def test_closed_service_rejects_submissions(self, workspace):
        service = QueryService(workspace, workers=1)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit("LBC", locations(workspace.network, 1))

    def test_close_drains_queued_requests(self, workspace):
        network = workspace.network
        service = QueryService(workspace, workers=2)
        pendings = [
            service.submit("LBC", locations(network, n, n + 1))
            for n in range(1, 9, 2)
        ]
        service.close()
        direct = {}
        for pending in pendings:
            result = pending.result(timeout=30)
            key = tuple(q.node_id for q in pending.request.queries)
            direct[key] = result
        for key, result in direct.items():
            reference = cold_run(LBC(), workspace, locations(network, *key))
            assert result.same_answer(reference)

    def test_mutations_tracked_and_visible(self, workspace):
        network = workspace.network
        queries = locations(network, 3, 40)
        with QueryService(workspace, workers=2) as service:
            before = service.query("LBC", queries)
            edge_id = sorted(network.edge_ids())[0]
            old_length = network.edge(edge_id).length
            service.update_edge_length(edge_id, old_length * 3.0)
            after = service.query("LBC", queries)
            stats = service.stats_dict()
            assert stats["requests"]["mutations"] == 1
            assert stats["workspace_version"] == 1
            # The post-mutation answer matches a fresh direct run.
            assert after.same_answer(cold_run(LBC(), workspace, queries))
            del before  # answers may or may not differ; no torn state

    def test_racing_clients_leave_no_inflight_entries(self, workspace):
        """A worker may finish a request before ``submit`` returns, so
        the request's in-flight entry must exist before it is queued:
        registered after, it outlives its own deregistration."""

        class Instant:
            name = "instant"

            def run(self, workspace, queries):
                return SkylineResult()

        network = workspace.network
        nodes = sorted(network.node_ids())
        per_client = 1000
        with QueryService(
            workspace,
            workers=4,
            queue_limit=4 * per_client,
            algorithms={**ALGORITHMS, "instant": Instant},
        ) as service:

            def client(k):
                for i in range(per_client):
                    node = nodes[(7 * k + i) % len(nodes)]
                    service.query("instant", locations(network, node))

            threads = [
                threading.Thread(target=client, args=(k,)) for k in range(4)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert service.stats_dict()["requests"]["completed"] == 4 * per_client
            assert service.inflight.count() == 0


class TestServedFaultsAndBilling:
    """Every settle and page billed to exactly one completion record,
    through the service, on two paths the library tests cannot reach: a
    failing batch unit and oracle-served queries."""

    def test_unit_failure_fails_one_request_and_leaks_nothing(
        self, workspace, tmp_path
    ):
        network = workspace.network
        boom = RuntimeError("boom")

        class Exploding:
            name = "explode"

            def run(self, workspace, queries):
                raise boom

        submitted = [
            ("explode", locations(network, 1, 2)),
            ("LBC", locations(network, 2, 3, 9)),
            ("EDC", locations(network, 9, 12)),
        ]
        settled = workspace.engine.nodes_settled()
        with QueryService(
            workspace,
            workers=2,
            algorithms={**ALGORITHMS, "explode": Exploding},
            flight_dir=str(tmp_path),
            slow_threshold_s=60.0,
        ) as service:
            service.pause()
            pendings = [service.submit(a, q) for a, q in submitted]
            service.resume()
            with pytest.raises(RuntimeError) as raised:
                pendings[0].result(timeout=30)
            assert raised.value is boom
            answers = [p.result(timeout=30) for p in pendings[1:]]
            assert service.stats_dict()["batches"]["executed"] == 1
            with service._cond:
                assert not service._active_keys
            assert service.inflight.count() == 0
            records = service.recorder.ring_entries()
            assert sorted(r.outcome for r in records) == [
                "completed",
                "completed",
                "failed",
            ]
            assert sum(r.counters.get("nodes_settled", 0) for r in records) == (
                workspace.engine.nodes_settled() - settled
            )
            assert service.recorder.dump_count == 1
        (dump,) = tmp_path.iterdir()
        assert dump.name.endswith("-error.json")
        for (algorithm, queries), answer in zip(submitted[1:], answers):
            direct = cold_run(ALGORITHMS[algorithm](), workspace, queries)
            assert answer.object_ids() == direct.object_ids()
            assert answer.vectors_by_id() == direct.vectors_by_id()

    def test_oracle_served_batch_bills_every_oracle_page(self, dataset):
        network, objects = dataset
        workspace = Workspace.build(network, objects, distance_backend="hublabel")
        workspace.engine.ensure_oracle()
        oracle_io = workspace.engine.oracle_io_stats()
        shared = locations(network, 1, 2, 3)
        submitted = [
            ("LBC", shared),
            ("EDC", locations(network, 2, 3, 9)),
            ("LBC", [shared[2], shared[0], shared[1]]),  # dedupes
        ]
        oracle_pages = oracle_io.physical_reads
        settled = workspace.engine.nodes_settled()
        with QueryService(workspace, workers=2) as service:
            service.pause()
            pendings = [service.submit(a, q) for a, q in submitted]
            service.resume()
            answers = [p.result(timeout=30) for p in pendings]
            assert service.stats_dict()["requests"]["deduped"] == 1
            records = {r.request_id: r for r in service.recorder.ring_entries()}
        canonical, edc, follower = (
            records[p.request.request_id].counters for p in pendings
        )
        assert canonical["oracle_label_entries"] > 0
        assert edc["oracle_label_entries"] > 0
        assert answers[2].stats.extras["deduped_of"] == pendings[0].request.request_id
        assert follower["oracle_label_entries"] == 0
        assert follower["oracle_pages"] == 0
        assert canonical["oracle_pages"] + edc["oracle_pages"] == (
            oracle_io.physical_reads - oracle_pages
        )
        assert canonical["oracle_pages"] + edc["oracle_pages"] > 0
        assert canonical["nodes_settled"] + edc["nodes_settled"] == (
            workspace.engine.nodes_settled() - settled
        )
        for (algorithm, queries), answer in zip(submitted, answers):
            direct = cold_run(ALGORITHMS[algorithm](), workspace, queries)
            assert answer.object_ids() == direct.object_ids()
            assert answer.vectors_by_id() == direct.vectors_by_id()


class TestGathering:
    """A worker batches what is queued, so a queued burst becomes one
    batch and a lone request runs at once."""

    def test_fan_out_burst_becomes_one_deduped_batch(self, au):
        network, objects = au
        workspace = Workspace.build(network, objects)
        queries = select_query_points(network, 4, seed=5)
        permuted = [queries[i] for i in (2, 0, 3, 1)]
        settled = workspace.engine.nodes_settled()
        pages = workspace.network_pages_read()
        with QueryService(workspace, workers=2) as service:
            service.pause()
            pendings = [
                service.submit(algorithm, order)
                for algorithm in ("LBC", "EDC", "CE")
                for order in (queries, permuted)
            ]
            service.resume()
            results = [p.result(timeout=30) for p in pendings]
            stats = service.stats_dict()
            assert stats["batches"]["executed"] == 1
            assert stats["requests"]["deduped"] == 3
            records = service.recorder.ring_entries()
            assert len(records) == 6
            assert sum(r.counters["nodes_settled"] for r in records) == (
                workspace.engine.nodes_settled() - settled
            )
            assert sum(r.counters["network_pages"] for r in records) == (
                workspace.network_pages_read() - pages
            )
        for canonical, follower in zip(pendings[::2], results[1::2]):
            assert follower.stats.extras["deduped_of"] == (
                canonical.request.request_id
            )
        # Exact vectors: a follower's columns are the canonical's,
        # permuted into the follower's query order.
        for pending, result in zip(pendings, results):
            request = pending.request
            reference = cold_run(
                ALGORITHMS[request.algorithm](), workspace, request.queries
            )
            assert result.object_ids() == reference.object_ids()
            assert result.vectors_by_id() == reference.vectors_by_id()

    def test_capped_drain_wakes_another_gatherer(self, au):
        network, objects = au
        workspace = Workspace.build(network, objects)
        gate = threading.Event()

        class Blocked(LBC):
            def run(self, workspace, queries):
                gate.wait(30)
                return super().run(workspace, queries)

        nodes = sorted(network.node_ids())
        pairs = [locations(network, *nodes[i : i + 2]) for i in range(0, 10, 2)]
        with QueryService(
            workspace,
            workers=2,
            max_batch=2,
            algorithms={**ALGORITHMS, "blocked": Blocked},
        ) as service:
            try:
                service.pause()
                blocked = [service.submit("blocked", q) for q in pairs[:2]]
                plain = [service.submit("LBC", q) for q in pairs[2:]]
                service.resume()
                # The first worker drains the two blocked requests and
                # holds on to them; the other worker takes the rest.
                answers = [p.result(timeout=10) for p in plain]
                assert not any(p.done() for p in blocked)
            finally:
                gate.set()
            for pending in blocked:
                pending.result(timeout=30)
        for queries, answer in zip(pairs[2:], answers):
            assert answer.same_answer(cold_run(LBC(), workspace, queries))

    def test_lone_requests_never_sleep(self, au, monkeypatch):
        network, objects = au
        workspace = Workspace.build(network, objects)
        sleeps = []
        clock = types.SimpleNamespace(**vars(time))
        clock.sleep = sleeps.append
        monkeypatch.setattr(service_module, "time", clock)
        point_sets = [select_query_points(network, 2, seed=s) for s in range(10)]
        with QueryService(workspace, workers=2) as service:
            answers = [service.query("LBC", q, timeout_s=10) for q in point_sets]
            assert service.stats_dict()["batches"]["executed"] == 10
        assert sleeps == []
        for queries, answer in zip(point_sets, answers):
            assert answer.same_answer(cold_run(LBC(), workspace, queries))


class TestPlanDeadlines:
    """Deadlines are checked as each plan starts, not once per batch."""

    def test_request_expired_behind_a_slow_plan_fails_unrun(self, au):
        network, objects = au
        workspace = Workspace.build(network, objects)
        queries = select_query_points(network, 4, seed=5)
        with QueryService(
            workspace, workers=1, algorithms={**ALGORITHMS, "slow": SlowLBC}
        ) as service:
            service.pause()
            slow = service.submit("slow", queries[:2])
            late = service.submit("LBC", queries[2:], timeout_s=0.1)
            service.resume()
            slow.result(timeout=30)
            with pytest.raises(DeadlineExceeded):
                late.result(timeout=30)
            (record,) = [
                r
                for r in service.recorder.ring_entries()
                if r.request_id == late.request.request_id
            ]
            assert record.outcome == "timed_out"
            assert record.counters.get("nodes_settled", 0) == 0
            assert service.stats_dict()["requests"]["timed_out"] == 1

    def test_expired_canonical_hands_its_unit_to_a_live_follower(self, au):
        network, objects = au
        workspace = Workspace.build(network, objects)
        queries = select_query_points(network, 4, seed=5)
        reversed_pair = queries[3:1:-1]
        settled = workspace.engine.nodes_settled()
        with QueryService(
            workspace, workers=1, algorithms={**ALGORITHMS, "slow": SlowLBC}
        ) as service:
            service.pause()
            service.submit("slow", queries[:2])
            canonical = service.submit("LBC", queries[2:], timeout_s=0.1)
            follower = service.submit("LBC", reversed_pair)
            service.resume()
            with pytest.raises(DeadlineExceeded):
                canonical.result(timeout=30)
            answer = follower.result(timeout=30)
            # The follower ran the unit, so it, not the expired
            # canonical, pays for the work.
            assert "deduped_of" not in answer.stats.extras
            assert answer.stats.nodes_settled > 0
            records = service.recorder.ring_entries()
            assert len(records) == 3
            assert sum(r.counters.get("nodes_settled", 0) for r in records) == (
                workspace.engine.nodes_settled() - settled
            )
        reference = cold_run(LBC(), workspace, reversed_pair)
        assert answer.object_ids() == reference.object_ids()
        assert answer.vectors_by_id() == reference.vectors_by_id()

    def test_deadline_lapsing_during_a_key_wait_fails_unbilled(self, au):
        network, objects = au
        workspace = Workspace.build(network, objects)
        queries = select_query_points(network, 2, seed=5)
        started = threading.Event()
        gate = threading.Event()

        class Held(LBC):
            def run(self, workspace, queries):
                started.set()
                gate.wait(30)
                return super().run(workspace, queries)

        with QueryService(
            workspace, workers=2, algorithms={**ALGORITHMS, "held": Held}
        ) as service:
            try:
                held = service.submit("held", queries)
                assert started.wait(10)
                late = service.submit("LBC", queries, timeout_s=0.2)
                # The second worker takes the request at once and waits
                # for the held plan's keys past its deadline.
                while service.queue_depth():
                    time.sleep(0.001)
                time.sleep(0.3)
                assert not late.done()
            finally:
                gate.set()
            held.result(timeout=30)
            with pytest.raises(DeadlineExceeded):
                late.result(timeout=30)
            (record,) = [
                r
                for r in service.recorder.ring_entries()
                if r.request_id == late.request.request_id
            ]
            assert record.outcome == "timed_out"
            assert record.counters.get("nodes_settled", 0) == 0
            with service._cond:
                assert not service._active_keys
            assert service.inflight.count() == 0


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
class TestReadWriteLock:
    def test_reentrant_writer_and_reader_passthrough(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():  # reentrant
                assert lock.write_held
            with lock.read_locked():  # owner may read
                pass
        assert not lock.write_held

    def test_release_write_by_stranger_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_write()


class TestWorkspaceSnapshotHooks:
    def test_version_bumps_once_per_logical_mutation(self, dataset):
        network, objects = dataset
        workspace = Workspace.build(network, objects)
        assert workspace.version == 0
        moved = next(iter(workspace.objects))
        workspace.move_object(
            moved.object_id, network.location_at_node(1)
        )
        # remove + add nested inside move still count as one mutation.
        assert workspace.version == 1

    def test_compound_mutation_invalidates_engine_once(self, dataset):
        network, objects = dataset
        workspace = Workspace.build(network, objects)
        engine = workspace.engine
        # Prime a cache entry so invalidation has something to count.
        engine.distance(
            network.location_at_node(1), network.location_at_node(2)
        )
        before = engine.counters.invalidations
        obj = next(iter(workspace.objects))
        workspace.move_object(obj.object_id, network.location_at_node(3))
        assert engine.counters.invalidations == before + 1
