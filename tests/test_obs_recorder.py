"""Flight recorder and stall watchdog: ring retention and trace export,
dump contents, deterministic stall detection, the end-to-end
blocked-query path (watchdog flags it, the dump holds its live span
tree + thread stacks), and a raising telemetry sink.
"""

from __future__ import annotations

import json
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
    StallWatchdog,
    format_flight_record,
    install_signal_dump,
    latest_flight_record,
    load_flight_record,
    safe_span_dict,
    thread_stacks,
)
from repro.obs.tracing import Span
from repro.service import QueryService


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
        snapshot = {e["request_id"]: e for e in table.snapshot()}
        assert snapshot[1]["algorithm"] == "LBC"
        assert snapshot[1]["trace_id"] == span.trace_id
        assert snapshot[1]["span"]["name"] == "request.LBC"
        assert snapshot[2]["trace_id"] is None
        assert "span" not in snapshot[2]
        table.deregister(1)
        assert table.count() == 1
        table.deregister(999)  # unknown ids are a no-op
        assert table.count() == 1


class TestStallWatchdog:
    def test_progress_resets_the_deadline(self):
        clock = [0.0]
        table = InFlightTable(clock=lambda: clock[0])
        watchdog = StallWatchdog(
            table, deadline_s=10.0, clock=lambda: clock[0]
        )
        span = Span("request.LBC")
        table.register(1, "LBC", span)
        assert watchdog.scan() == []  # baseline signal captured
        clock[0] = 5.0
        span.counts["nodes_settled"] = 5.0  # work happened
        assert watchdog.scan() == []
        clock[0] = 14.0  # 9s since last progress: under deadline
        assert watchdog.scan() == []
        clock[0] = 16.0  # 11s with a frozen counter set: stalled
        flagged = watchdog.scan()
        assert [e.request_id for e in flagged] == [1]
        assert flagged[0].stalled
        assert watchdog.stall_count == 1
        # One flag per query: later scans don't re-fire.
        clock[0] = 100.0
        assert watchdog.scan() == []
        assert watchdog.stall_count == 1

    def test_growing_span_tree_counts_as_progress(self):
        clock = [0.0]
        table = InFlightTable(clock=lambda: clock[0])
        watchdog = StallWatchdog(
            table, deadline_s=10.0, clock=lambda: clock[0]
        )
        root = Span("request.LBC")
        table.register(1, "LBC", root)
        watchdog.scan()
        for step in range(1, 5):
            clock[0] = step * 8.0  # each gap under the deadline
            Span("lbc.resolve", parent=root)  # tree keeps growing
            assert watchdog.scan() == []
        assert watchdog.stall_count == 0

    def test_on_stall_callback_fires_once_per_query(self):
        clock = [0.0]
        seen = []
        table = InFlightTable(clock=lambda: clock[0])
        watchdog = StallWatchdog(
            table,
            deadline_s=1.0,
            on_stall=seen.append,
            clock=lambda: clock[0],
        )
        table.register(7, "CE", Span("request.CE"))
        watchdog.scan()
        clock[0] = 5.0
        watchdog.scan()
        clock[0] = 50.0
        watchdog.scan()
        assert [e.request_id for e in seen] == [7]


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
        payload = load_flight_record(path)
        assert payload["reason"] == "slow_query"
        assert latest_flight_record(str(tmp_path)) == path
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
        assert recorder.suppressed_count == 1
        assert recorder.dump("stall", force=True) is not None
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
        with open(paths[-1]) as handle:
            loaded = Span.from_dict(json.load(handle))
        assert loaded.name == "q2"
        assert loaded.total("pages") == 2
        assert loaded.trace_id == kept[-1].trace_id


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


class TestFormatFlightRecord:
    def test_renders_all_sections(self):
        table = InFlightTable()
        root = Span("request.LBC")
        Span("query.LBC", parent=root).counts["nodes_settled"] = 4.0
        entry = table.register(5, "LBC", root)
        entry.stalled = True
        recorder = FlightRecorder(inflight=table)
        done = Span("request.CE")
        done.finish()
        recorder.record(finished(done, latency_s=0.5))
        text = format_flight_record(recorder.dump_payload("stall"))
        assert "reason=stall" in text
        assert "recent completed traces (1):" in text
        assert "request.CE" in text
        assert "in-flight queries (1):" in text
        assert "STALLED" in text
        assert "request.LBC" in text and "query.LBC" in text
        assert "thread stacks" in text

    def test_thread_section_can_be_omitted(self):
        recorder = FlightRecorder()
        text = format_flight_record(
            recorder.dump_payload("test"), include_threads=False
        )
        assert "thread stacks" not in text


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
        stall_deadline_s=0.2,
        diag_interval_s=0.02,
        flight_dir=str(tmp_path),
    )
    try:
        yield service, tmp_path
    finally:
        BlockingAlgorithm.gate.set()
        service.close()


class TestServiceStallDetection:
    def test_blocked_query_is_flagged_and_dumped(self, blocked_service):
        service, tmp_path = blocked_service
        network = service.workspace.network
        node = sorted(network.node_ids())[0]
        pending = service.submit(
            "blocking", [network.location_at_node(node)]
        )
        assert BlockingAlgorithm.started.wait(timeout=10.0)

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if service.watchdog.stall_count >= 1:
                break
            time.sleep(0.02)
        assert service.watchdog.stall_count == 1
        assert service.inflight.stalled_count() == 1
        assert service.health_dict()["stalled"] == 1

        # The stall trigger wrote a flight record with the blocked
        # query's *live* span tree and every thread's stack.
        path = latest_flight_record(str(tmp_path))
        assert path is not None and "-stall" in path
        payload = load_flight_record(path)
        assert payload["reason"] == "stall"
        entry = next(
            e
            for e in payload["inflight"]
            if e["request_id"] == pending.request.request_id
        )
        assert entry["stalled"] is True
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
        text = format_flight_record(payload)
        assert "STALLED" in text

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
            assert service.stats_dict()["telemetry_errors"] >= 1
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
            path = latest_flight_record(str(tmp_path))
            assert path is not None
            assert load_flight_record(path)["reason"] == "sigusr2"
        finally:
            signal.signal(signal.SIGUSR2, previous)
