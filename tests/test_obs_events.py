"""Completion records and the wide-event log: event validation,
rotation, backpressure, and service-level reconciliation against
QueryStats."""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time

import pytest

from conftest import (
    build_random_network,
    place_random_objects,
    random_locations,
)
from repro.core import Workspace
from repro.core.stats import SPAN_COUNTER_FIELDS, QueryStats
from repro.obs.events import (
    WIDE_EVENT_VERSION,
    Completion,
    EventLog,
    EventReader,
    iter_events,
    read_events,
)
from repro.obs.tracing import Span
from repro.service import QueryService


def event_of(**fields):
    """The wide event of a completion record built from ``fields``."""
    return Completion(**fields).to_event()


class TestWideEventBuilder:
    def test_canonical_shape(self):
        event = event_of(
            request_id=7,
            algorithm="LBC",
            outcome="completed",
            trace_id="abc",
            latency_s=0.25,
            span_duration_s=0.2,
            batch_id=3,
            engine_backend="astar",
            query_count=2,
            query_nodes=[1, 2],
            skyline_count=5,
            candidate_count=9,
            counters={"nodes_settled": 10, "network_pages": 4},
        )
        assert event["event"] == "query"
        assert event["v"] == WIDE_EVENT_VERSION
        assert event["request_id"] == 7
        assert event["outcome"] == "completed"
        assert event["trace_id"] == "abc"
        assert event["batch_id"] == 3
        assert event["counters"] == {"nodes_settled": 10, "network_pages": 4}
        assert "error" not in event
        json.dumps(event)  # must be JSON-serialisable as built

    def test_error_and_extras_blocks_are_optional(self):
        event = event_of(
            request_id=1,
            algorithm="CE",
            outcome="failed",
            error="ValueError: boom",
            extras={"shard": 2},
        )
        assert event["error"] == "ValueError: boom"
        assert event["extras"] == {"shard": 2}

    def test_record_is_frozen_and_keeps_its_span_out_of_the_event(self):
        span = Span("request.LBC")
        span.finish()
        record = Completion(
            request_id=1, algorithm="LBC", outcome="completed", span=span
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.latency_s = 1.0
        assert record.span is span
        assert set(record.to_event()) == {
            "event", "v", "ts", "request_id", "algorithm", "outcome",
            "trace_id", "batch_id", "engine_backend", "latency_s",
            "span_duration_s", "query_count", "query_nodes",
            "skyline_count", "candidate_count", "counters",
        }

    @pytest.mark.parametrize(
        "counters",
        [{"nodes_settled": "10"}, {"ok": True}, {"": 1}, {3: 1.0}],
    )
    def test_non_numeric_counters_rejected_at_the_producer(self, counters):
        with pytest.raises(TypeError):
            event_of(
                request_id=1,
                algorithm="LBC",
                outcome="completed",
                counters=counters,
            )


class TestEventLog:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            for i in range(20):
                assert log.emit(
                    event_of(
                        request_id=i, algorithm="LBC", outcome="completed"
                    )
                )
            assert log.flush()
        events = read_events(path)
        assert [e["request_id"] for e in events] == list(range(20))
        stats = log.stats()
        assert stats["emitted"] == 20
        assert stats["written"] == 20
        assert stats["dropped"] == 0

    def test_size_rotation_keeps_bounded_generations(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path, rotate_bytes=600, rotate_keep=2)
        for i in range(40):
            log.emit(
                event_of(request_id=i, algorithm="LBC", outcome="completed")
            )
        log.close()
        assert log.rotations > 0
        assert os.path.exists(path)
        assert os.path.exists(f"{path}.1")
        assert os.path.exists(f"{path}.2")
        assert not os.path.exists(f"{path}.3")  # oldest dropped
        # Rotated generations read back oldest-first, newest last, with
        # strictly increasing ids within the retained window.
        ids = [e["request_id"] for e in iter_events(path)]
        assert ids == sorted(ids)
        assert ids[-1] == 39
        # Live file alone holds only the newest slice.
        live = [e["request_id"] for e in iter_events(path, include_rotated=False)]
        assert live == ids[-len(live):]

    def test_accounting_identity_after_close(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        for i in range(10):
            log.emit(event_of(request_id=i, algorithm="CE", outcome="completed"))
        log.close()
        stats = log.stats()
        assert stats["emitted"] == stats["written"] + stats["dropped"]
        # Emits after close never block and are counted as drops.
        assert not log.emit(
            event_of(request_id=99, algorithm="CE", outcome="completed")
        )
        stats = log.stats()
        assert stats["emitted"] == stats["written"] + stats["dropped"]


class SlowWriterLog(EventLog):
    """EventLog whose writer blocks until released — drives the
    bounded-queue shedding path deterministically."""

    def __init__(self, *args, **kwargs):
        self.release = threading.Event()
        super().__init__(*args, **kwargs)

    def _write_record(self, event):
        self.release.wait(timeout=10.0)
        super()._write_record(event)


class TestBackpressure:
    def test_full_queue_sheds_and_counts_exactly(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = SlowWriterLog(path, queue_limit=4)
        emitted = 20
        accepted = sum(
            log.emit(
                event_of(request_id=i, algorithm="LBC", outcome="completed")
            )
            for i in range(emitted)
        )
        # The writer is wedged: at most queue_limit + the one record the
        # writer already claimed can be in flight; the rest shed.
        assert accepted <= log._queue.maxsize + 1
        assert log.dropped == emitted - accepted
        assert log.emitted == emitted
        log.release.set()
        log.close()
        stats = log.stats()
        assert stats["emitted"] == emitted
        assert stats["written"] == accepted
        assert stats["emitted"] == stats["written"] + stats["dropped"]
        # Everything accepted made it to disk, in order.
        assert len(read_events(path)) == accepted

    def test_emit_never_blocks_under_a_wedged_writer(self, tmp_path):
        log = SlowWriterLog(str(tmp_path / "events.jsonl"), queue_limit=1)
        start = time.perf_counter()
        for i in range(100):
            log.emit(
                event_of(request_id=i, algorithm="LBC", outcome="completed")
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # shedding, not stalling
        log.release.set()
        log.close()


@pytest.fixture(scope="module")
def served_events(tmp_path_factory):
    """A service with an event log, a burst of queries, the parsed log."""
    tmp_path = tmp_path_factory.mktemp("events")
    network = build_random_network(100, 60, seed=21, detour_max=0.6)
    objects = place_random_objects(network, 30, seed=22, attribute_count=2)
    workspace = Workspace.build(network, objects, distance_backend="astar")
    path = str(tmp_path / "events.jsonl")
    service = QueryService(workspace, workers=2, event_log_path=path)
    results = {}
    for i, seed in enumerate((5, 6, 7)):
        queries = random_locations(network, 2 + i % 2, seed=seed)
        result = service.query("LBC", queries, trace_id=f"trace-{i}")
        results[f"trace-{i}"] = result
    service.close()
    return results, read_events(path)


class TestServiceReconciliation:
    def test_one_event_per_query(self, served_events):
        results, events = served_events
        assert len(events) == len(results)
        assert {e["trace_id"] for e in events} == set(results)

    def test_counters_reconcile_field_for_field(self, served_events):
        results, events = served_events
        for event in events:
            stats = results[event["trace_id"]].stats
            expected = stats.counter_fields()
            assert event["counters"] == expected
            for name in SPAN_COUNTER_FIELDS:
                assert event["counters"][name] == getattr(stats, name)

    def test_metadata_reconciles(self, served_events):
        results, events = served_events
        for event in events:
            stats = results[event["trace_id"]].stats
            assert event["algorithm"] == "LBC"
            assert event["outcome"] == "completed"
            assert event["engine_backend"] == stats.distance_backend
            assert event["skyline_count"] == stats.skyline_count
            assert event["candidate_count"] == stats.candidate_count
            assert event["query_count"] == stats.query_count
            assert event["batch_id"] is not None
            assert event["latency_s"] >= event["span_duration_s"] > 0.0
            assert event["span_duration_s"] == stats.total_response_s
            assert event["trace_id"] == stats.trace_id


class TestDualClocks:
    def test_span_duration_is_the_execution_clock(self, tmp_path):
        """``latency_s`` includes queue wait; ``span_duration_s`` is the
        algorithm's own run time, whatever the wait."""
        network = build_random_network(60, 40, seed=23)
        objects = place_random_objects(network, 15, seed=24)
        workspace = Workspace.build(network, objects)
        path = str(tmp_path / "events.jsonl")
        service = QueryService(workspace, workers=1, event_log_path=path)
        try:
            service.pause()
            pending = service.submit(
                "LBC", random_locations(network, 2, seed=9)
            )
            time.sleep(0.25)
            service.resume()
            result = pending.result(timeout=30)
        finally:
            service.close()
        (event,) = read_events(path)
        assert event["latency_s"] - event["span_duration_s"] >= 0.2
        assert event["span_duration_s"] == result.stats.total_response_s


def _write_log(path: str, count: int, start: int = 0) -> None:
    with EventLog(path) as log:
        for i in range(start, start + count):
            log.emit(
                event_of(request_id=i, algorithm="LBC", outcome="completed")
            )
        log.flush()


class TestCrashTolerantReading:
    """A reader must survive what a crashing writer leaves behind."""

    def test_truncated_final_line_is_skipped_and_counted(self, tmp_path):
        # A crash mid-write leaves a partial last record; iteration used
        # to abort with JSONDecodeError right there.
        path = str(tmp_path / "events.jsonl")
        _write_log(path, 5)
        with open(path, encoding="utf-8") as handle:
            full = handle.read()
        last = full.rstrip("\n").rsplit("\n", 1)[-1]
        truncated = full[: len(full) - len(last) // 2 - 1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(truncated)
        reader = iter_events(path)
        events = list(reader)
        assert [e["request_id"] for e in events] == [0, 1, 2, 3]
        assert reader.corrupt_lines == 1

    def test_corrupt_middle_line_is_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        _write_log(path, 4)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = "{not json at all\n"
        lines[2] = '"a bare string, not an object"\n'
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        reader = iter_events(path)
        events = list(reader)
        assert [e["request_id"] for e in events] == [0, 3]
        assert reader.corrupt_lines == 2

    def test_clean_log_reports_zero_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        _write_log(path, 3)
        reader = iter_events(path)
        assert len(list(reader)) == 3
        assert reader.corrupt_lines == 0

    def test_missing_log_yields_nothing(self, tmp_path):
        reader = iter_events(str(tmp_path / "nope.jsonl"))
        assert list(reader) == []
        assert reader.corrupt_lines == 0


class TestRotatedGenerationReading:
    """Reading across ``path.N … path.1, path`` oldest-first."""

    def _rotated_log(self, tmp_path) -> str:
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path, rotate_bytes=600, rotate_keep=3)
        for i in range(40):
            log.emit(
                event_of(request_id=i, algorithm="LBC", outcome="completed")
            )
        log.close()
        assert log.rotations >= 2
        return path

    def test_generations_read_oldest_first(self, tmp_path):
        path = self._rotated_log(tmp_path)
        reader = iter_events(path)
        ids = [e["request_id"] for e in reader]
        assert ids == sorted(ids)
        assert ids[-1] == 39
        assert reader.files_read >= 3
        assert reader.corrupt_lines == 0

    def test_include_rotated_false_reads_only_the_live_file(self, tmp_path):
        path = self._rotated_log(tmp_path)
        live = [
            e["request_id"]
            for e in iter_events(path, include_rotated=False)
        ]
        everything = [e["request_id"] for e in iter_events(path)]
        assert live == everything[-len(live):]
        assert len(live) < len(everything)
        # The live slice is exactly what the un-rotated file holds.
        with open(path, encoding="utf-8") as handle:
            assert len(live) == sum(1 for line in handle if line.strip())

    def test_rotation_racing_the_reader_skips_vanished_generations(
        self, tmp_path
    ):
        # Between listing generations and opening one, the writer can
        # rotate it away (path.2 -> path.3 beyond rotate_keep); a
        # vanished file must be skipped, not raised.
        path = self._rotated_log(tmp_path)
        reader = EventReader(path)
        listed = reader._paths()
        victim = listed[0]  # the oldest rotated generation
        os.remove(victim)
        reader._paths = lambda: listed  # freeze the pre-race listing
        ids = [e["request_id"] for e in reader]
        assert ids == sorted(ids)  # surviving generations, still ordered
        assert ids[-1] == 39
        assert reader.files_read == len(listed) - 1

    def test_corrupt_lines_accumulate_across_generations(self, tmp_path):
        path = self._rotated_log(tmp_path)
        # Damage one line in a rotated generation and one in the live file.
        for target in (f"{path}.1", path):
            with open(target, encoding="utf-8") as handle:
                lines = handle.readlines()
            lines[0] = "{broken\n"
            with open(target, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
        reader = iter_events(path)
        list(reader)
        assert reader.corrupt_lines == 2


class TestEventLogQueueDepth:
    def test_queue_depth_property_tracks_the_writer_backlog(self, tmp_path):
        log = SlowWriterLog(str(tmp_path / "events.jsonl"), queue_limit=8)
        assert log.queue_depth == 0
        for i in range(6):
            log.emit(
                event_of(request_id=i, algorithm="LBC", outcome="completed")
            )
        # The wedged writer holds one record; the rest sit in the queue.
        assert log.queue_depth >= 4
        assert log.queue_depth == log.stats()["queue_depth"]
        log.release.set()
        log.close()
        assert log.queue_depth == 0


class TestCounterFields:
    def test_counter_fields_covers_every_span_counter(self):
        stats = QueryStats(nodes_settled=3, network_pages=2, oracle_pages=1)
        fields = stats.counter_fields()
        assert set(fields) == set(SPAN_COUNTER_FIELDS)
        assert fields["nodes_settled"] == 3
        assert fields["network_pages"] == 2
        assert fields["oracle_pages"] == 1
