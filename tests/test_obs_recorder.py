"""Flight recorder: ring retention and trace export, dump contents,
the end-to-end blocked-query path (a forced dump holds its live span
tree + thread stacks), and a raising telemetry sink.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import threading
import time

import pytest

from conftest import build_random_network, place_random_objects
from repro.core import ALGORITHMS, NaiveSkyline, Workspace
from repro.core.result import SkylineResult
from repro.core.stats import QueryStats
from repro.obs import tracing
from repro.obs.events import Completion
from repro.obs.recorder import (
    FlightRecorder,
    InFlightTable,
    install_signal_dump,
    safe_span_dict,
    thread_stacks,
)
from repro.obs.tracing import Span
from repro.service import QueryService


def flight_records(directory) -> list[str]:
    """Every flight-record file under ``directory``, in name order."""
    return sorted(glob.glob(os.path.join(str(directory), "flightrecord-*.json")))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def finished(span: Span, outcome="completed", latency_s=0.0) -> Completion:
    """The completion record of a request whose root span is ``span``."""
    return Completion(
        request_id=span.span_id,
        algorithm="LBC",
        outcome=outcome,
        trace_id=span.trace_id,
        latency_s=latency_s,
        span=span,
    )


class TestInFlightTable:
    def test_register_deregister_roundtrip(self):
        table = InFlightTable()
        span = Span("request.LBC")
        table.register(1, "LBC", span)
        table.register(2, "CE", None)
        assert table.count() == 2
        now = time.monotonic()
        snapshot = {e.request_id: e.to_dict(now) for e in table.entries()}
        assert snapshot[1]["algorithm"] == "LBC"
        assert snapshot[1]["trace_id"] == span.trace_id
        assert snapshot[1]["span"]["name"] == "request.LBC"
        assert snapshot[2]["trace_id"] is None
        assert "span" not in snapshot[2]
        table.deregister(1)
        assert table.count() == 1
        table.deregister(999)  # unknown ids are a no-op
        assert table.count() == 1


class TestFlightRecorder:
    def test_ring_is_bounded_and_keeps_newest(self):
        recorder = FlightRecorder(ring=4)
        for i in range(10):
            span = Span("request.LBC")
            span.attributes["i"] = i
            recorder.record(finished(span, latency_s=0.001 * i))
        assert recorder.ring_size == 4
        kept = [e.span.attributes["i"] for e in recorder.ring_entries()]
        assert kept == [6, 7, 8, 9]

    def test_dump_payload_contains_ring_inflight_and_stacks(self):
        table = InFlightTable()
        root = Span("request.LBC")
        child = Span("query.LBC", parent=root)
        child.counts["nodes_settled"] = 12.0
        table.register(3, "LBC", root)
        recorder = FlightRecorder(ring=8, inflight=table)
        done = Span("request.CE")
        done.finish()
        recorder.record(finished(done, latency_s=0.02))
        payload = recorder.dump_payload("test", extra={"note": "hi"})
        assert payload["flight_record"] == 1
        assert payload["reason"] == "test"
        assert payload["extra"] == {"note": "hi"}
        assert [e["trace"]["name"] for e in payload["ring"]] == ["request.CE"]
        (entry,) = payload["inflight"]
        assert entry["request_id"] == 3
        assert entry["span"]["name"] == "request.LBC"
        assert entry["span"]["children"][0]["name"] == "query.LBC"
        assert entry["span"]["children"][0]["counts"] == {
            "nodes_settled": 12.0
        }
        # The current thread's stack must be in the snapshot, and it
        # should mention this very test function.
        assert payload["threads"]
        joined = "\n".join(
            line for lines in payload["threads"].values() for line in lines
        )
        assert "dump_payload" in joined or "test_dump_payload" in joined

    def test_dump_writes_a_loadable_file(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        recorder.record(finished(Span("request.LBC")))
        path = recorder.dump("slow_query")
        assert path is not None and path.endswith(".json")
        payload = load(path)
        assert payload["reason"] == "slow_query"
        assert flight_records(tmp_path) == [path]
        assert recorder.dump_count == 1

    def test_dump_rate_limited_unless_forced(self, tmp_path):
        clock = [0.0]
        recorder = FlightRecorder(
            dump_dir=str(tmp_path),
            min_dump_interval_s=5.0,
            clock=lambda: clock[0],
        )
        assert recorder.dump("error") is not None
        clock[0] = 1.0
        assert recorder.dump("error") is None  # burst suppressed
        assert recorder.stats()["dumps_suppressed"] == 1
        assert recorder.dump("sigusr2", force=True) is not None
        clock[0] = 10.0
        assert recorder.dump("error") is not None
        assert recorder.dump_count == 3

    def test_dump_without_directory_is_a_noop(self):
        recorder = FlightRecorder()
        assert recorder.dump("error") is None
        assert recorder.dump_count == 0

    def test_ring_traces_export_and_load(self, tmp_path):
        recorder = FlightRecorder(ring=2)
        for i in range(3):
            with tracing.span(f"q{i}") as root:
                tracing.record("pages", i)
            recorder.record(finished(root))
        kept = [entry.span for entry in recorder.ring_entries()]
        assert [s.name for s in kept] == ["q1", "q2"]
        paths = recorder.export_traces(str(tmp_path))
        assert len(paths) == 2
        assert paths[-1].endswith(f"trace-{kept[-1].trace_id}.json")
        loaded = load(paths[-1])
        assert loaded["name"] == "q2"
        assert loaded["counts"] == {"pages": 2}
        assert loaded["trace_id"] == kept[-1].trace_id


class TestSafeSpanDict:
    def test_round_trips_a_normal_tree(self):
        root = Span("request.LBC")
        child = Span("query.LBC", parent=root)
        child.finish()
        root.finish()  # finished spans serialise identically every time
        assert safe_span_dict(root) == root.to_dict()

    def test_persistent_races_degrade_to_a_truncated_stub(self):
        class RacySpan(Span):
            def to_dict(self):
                raise RuntimeError("dictionary changed size during iteration")

        stub = safe_span_dict(RacySpan("request.LBC"))
        assert stub["truncated"] is True
        assert stub["name"] == "request.LBC"
        json.dumps(stub)


class TestThreadStacks:
    def test_every_live_thread_is_captured(self):
        gate = threading.Event()
        ready = threading.Event()

        def parked():
            ready.set()
            gate.wait(timeout=10)

        thread = threading.Thread(
            target=parked, name="parked-thread", daemon=True
        )
        thread.start()
        ready.wait(timeout=5)
        try:
            stacks = thread_stacks()
            mine = [k for k in stacks if k.startswith("parked-thread-")]
            assert mine
            assert any("parked" in line for line in stacks[mine[0]])
        finally:
            gate.set()
            thread.join(timeout=5)


class BlockingAlgorithm:
    """A query that does a little work, then wedges until released."""

    name = "blocking"

    gate = threading.Event()
    started = threading.Event()

    def run(self, workspace, queries):
        with tracing.span("query.blocking") as root:
            tracing.record("nodes_settled", 1.0)
            type(self).started.set()
            type(self).gate.wait(timeout=30.0)
        stats = QueryStats(algorithm=self.name, trace_id=root.trace_id)
        return SkylineResult(points=[], stats=stats, trace=root)


@pytest.fixture
def blocked_service(tmp_path):
    network = build_random_network(60, 30, seed=11)
    objects = place_random_objects(network, 10, seed=12)
    workspace = Workspace.build(network, objects)
    BlockingAlgorithm.gate = threading.Event()
    BlockingAlgorithm.started = threading.Event()
    service = QueryService(
        workspace,
        workers=1,
        algorithms={**ALGORITHMS, "blocking": BlockingAlgorithm},
        flight_dir=str(tmp_path),
    )
    try:
        yield service, tmp_path
    finally:
        BlockingAlgorithm.gate.set()
        service.close()


class TestServiceStallDetection:
    def test_blocked_query_is_flagged_and_dumped(self, blocked_service):
        """A query wedged mid-run stays in the in-flight table, and a
        dump taken meanwhile shows its live tree and its thread."""
        service, tmp_path = blocked_service
        network = service.workspace.network
        node = sorted(network.node_ids())[0]
        pending = service.submit(
            "blocking", [network.location_at_node(node)]
        )
        assert BlockingAlgorithm.started.wait(timeout=10.0)
        assert service.inflight.count() == 1
        assert service.health_dict()["inflight"] == 1

        # A forced dump (what SIGUSR2 triggers) holds the blocked
        # query's *live* span tree and every thread's stack.
        path = service.recorder.dump("sigusr2", force=True)
        assert flight_records(tmp_path) == [path]
        payload = load(path)
        assert payload["reason"] == "sigusr2"
        entry = next(
            e
            for e in payload["inflight"]
            if e["request_id"] == pending.request.request_id
        )
        assert entry["algorithm"] == "blocking"
        assert entry["span"]["name"] == "request.blocking"
        child_names = [c["name"] for c in entry["span"]["children"]]
        assert "query.blocking" in child_names
        blocked = entry["span"]["children"][
            child_names.index("query.blocking")
        ]
        assert blocked["counts"]["nodes_settled"] == 1.0
        stacks = "\n".join(
            line
            for lines in payload["threads"].values()
            for line in lines
        )
        assert "BlockingAlgorithm" in stacks or "gate.wait" in stacks

        # Release the gate: the query completes normally afterwards.
        BlockingAlgorithm.gate.set()
        result = pending.result(timeout=10.0)
        assert result.stats.algorithm == "blocking"
        assert service.inflight.count() == 0


class TestSinkFailure:
    def test_raising_sink_neither_kills_the_worker_nor_strands_requests(
        self, tmp_path
    ):
        # A flight dir that is a regular file makes every slow_query
        # dump raise; the query must still be answered.
        not_a_dir = tmp_path / "flight"
        not_a_dir.write_text("")
        network = build_random_network(60, 30, seed=13)
        objects = place_random_objects(network, 10, seed=14)
        workspace = Workspace.build(network, objects)
        service = QueryService(
            workspace,
            workers=1,
            default_timeout_s=2.0,
            flight_dir=str(not_a_dir),
            slow_threshold_s=0.0,
        )
        try:
            nodes = sorted(network.node_ids())
            for pair in (nodes[:2], nodes[2:4]):
                locations = [network.location_at_node(n) for n in pair]
                result = service.query("LBC", locations)
                assert result.same_answer(
                    NaiveSkyline().run(workspace, locations)
                )
            (worker,) = service._threads
            assert worker.is_alive()
            assert service.inflight.count() == 0
            assert service.queue_depth() == 0
            assert not service._active_keys
            stats = service.stats_dict()
            assert stats["telemetry_errors"] >= 1
            # No dump reached the disk, so none counts as written.
            assert stats["flight_recorder"]["dumps_written"] == 0
        finally:
            service.close()


@pytest.mark.skipif(
    not hasattr(signal, "SIGUSR2"), reason="platform lacks SIGUSR2"
)
class TestSignalDump:
    def test_sigusr2_forces_a_dump(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        previous = signal.getsignal(signal.SIGUSR2)
        assert install_signal_dump(recorder)
        try:
            signal.raise_signal(signal.SIGUSR2)
            (path,) = flight_records(tmp_path)
            assert load(path)["reason"] == "sigusr2"
        finally:
            signal.signal(signal.SIGUSR2, previous)
