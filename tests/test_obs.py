"""The telemetry subsystem: metrics, tracing, the slow-query view.

Unit coverage for :mod:`repro.obs` plus the integration contracts the
rest of the stack relies on:

* exact reconciliation — a traced query's per-span counter sums equal
  its ``QueryStats`` totals *and* the workspace's independent physical
  counters (no drift, no double counting);
* ``/statsz`` exposes every documented field with a numeric value;
* ``/metricsz`` renders parseable Prometheus text with zero duplicate
  metric families and the serving-path families present.
"""

from __future__ import annotations

import ast
import json
import math
import os
import random
import re
from pathlib import Path

import pytest

from repro.core import CE, EDC, LBC, LBCLazy, Workspace
from repro.obs import (
    Completion,
    FlightRecorder,
    MetricRegistry,
    Span,
    format_trace,
    names,
    parse_prometheus_text,
    tracing,
)
from repro.service.service import QueryService

from conftest import build_random_network, place_random_objects, random_locations


# ----------------------------------------------------------------------
# Metric registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_only_goes_up(self):
        registry = MetricRegistry()
        counter = registry.counter("repro_test_total", "help").labels()
        counter.inc()
        counter.inc(2.5)
        with pytest.raises(ValueError):
            counter.inc(-1.0)
        samples = registry.collect()["repro_test_total"]
        assert samples == [("repro_test_total", {}, 3.5)]

    def test_gauge_set_inc_dec(self):
        registry = MetricRegistry()
        gauge = registry.gauge("repro_depth", "help").labels()
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert registry.collect()["repro_depth"] == [("repro_depth", {}, 4.0)]

    def test_labeled_family_children(self):
        registry = MetricRegistry()
        family = registry.counter("repro_reads_total", "", labels=("pool",))
        family.labels(pool="network").inc(3)
        family.labels(pool="index").inc(1)
        samples = registry.collect()["repro_reads_total"]
        assert ("repro_reads_total", {"pool": "index"}, 1.0) in samples
        assert ("repro_reads_total", {"pool": "network"}, 3.0) in samples
        with pytest.raises(ValueError):
            family.labels(wrong="x")

    def test_callback_children_read_at_scrape_time(self):
        registry = MetricRegistry()
        state = {"value": 1.0}
        registry.register_callback(
            "repro_live", lambda: state["value"], kind="gauge"
        )
        assert registry.collect()["repro_live"][0][2] == 1.0
        state["value"] = 9.0
        assert registry.collect()["repro_live"][0][2] == 9.0

    def test_callback_children_reject_writes(self):
        registry = MetricRegistry()
        family = registry.register_callback("repro_cb_total", lambda: 1.0,
                                            kind="counter")
        with pytest.raises(TypeError):
            family.labels().inc()

    def test_histogram_buckets_cumulative(self):
        registry = MetricRegistry()
        hist = registry.histogram(
            "repro_lat_seconds", "", buckets=(0.1, 1.0)
        ).labels()
        for value in (0.05, 0.5, 0.7, 5.0):
            hist.observe(value)
        counts, total, count = hist.snapshot()
        assert count == 4
        assert total == pytest.approx(6.25)
        # Cumulative: le=0.1 -> 1, le=1.0 -> 3, le=+Inf -> 4.
        assert counts == [1, 3, 4]

    def test_histogram_renders_bucket_sum_count(self):
        registry = MetricRegistry()
        registry.histogram("repro_h", "", buckets=(1.0,)).labels().observe(0.5)
        text = registry.render()
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_sum 0.5" in text
        assert "repro_h_count 1" in text

    def test_kind_conflict_rejected(self):
        registry = MetricRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")

    def test_render_parse_round_trip(self):
        registry = MetricRegistry()
        registry.counter("repro_a_total", "a counter").labels().inc(2)
        family = registry.gauge("repro_b", "a gauge", labels=("pool",))
        family.labels(pool="net").set(1.5)
        registry.histogram("repro_c_seconds", "a histogram",
                           buckets=(0.5,)).labels().observe(0.25)
        parsed = parse_prometheus_text(registry.render())
        assert parsed["repro_a_total"]["type"] == "counter"
        assert parsed["repro_a_total"]["samples"] == [
            ("repro_a_total", {}, 2.0)
        ]
        assert parsed["repro_b"]["samples"] == [
            ("repro_b", {"pool": "net"}, 1.5)
        ]
        bucket_samples = [
            s for s in parsed["repro_c_seconds"]["samples"]
            if s[0] == "repro_c_seconds_bucket"
        ]
        assert [s[1]["le"] for s in bucket_samples] == ["0.5", "+Inf"]

    def test_parser_rejects_duplicate_family(self):
        text = (
            "# HELP repro_x help\n# TYPE repro_x counter\nrepro_x 1\n"
            "# HELP repro_x help\n# TYPE repro_x counter\nrepro_x 2\n"
        )
        with pytest.raises(ValueError, match="duplicate family"):
            parse_prometheus_text(text)

    def test_parser_rejects_stray_sample(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_unknown 1\n")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_record_is_noop_without_active_span(self):
        tracing.record("orphan_counter", 5)
        assert tracing.current_span() is None

    def test_span_nesting_and_totals(self):
        with tracing.span("root") as root:
            tracing.record("pages", 1)
            with tracing.span("child"):
                tracing.record("pages", 2)
                tracing.record("settles", 7)
            with tracing.span("child"):
                tracing.record("pages", 4)
        assert root.own("pages") == 1
        assert root.total("pages") == 7
        assert root.totals() == {"pages": 7.0, "settles": 7.0}
        assert [c.name for c in root.children] == ["child", "child"]
        assert all(c.trace_id == root.trace_id for c in root.children)
        assert root.end_perf is not None

    def test_span_ids_are_distinct_16_digit_hex(self):
        ids = [tracing._new_id() for _ in range(100_000)]
        assert len(set(ids)) == len(ids)
        assert all(re.fullmatch("[0-9a-f]{16}", i) for i in ids)

    def test_span_ids_ignore_the_global_random_seed(self):
        random.seed(0)
        first = [Span("root").span_id for _ in range(100)]
        random.seed(0)
        second = [Span("root").span_id for _ in range(100)]
        assert not set(first) & set(second)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_its_own_ids(self):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report one id and leave at once
            os.write(write_end, tracing._new_id().encode())
            os._exit(0)
        os.close(write_end)
        child_id = os.read(read_end, 16).decode()
        os.close(read_end)
        os.waitpid(pid, 0)
        # Without a reseed the child would replay the parent's stream.
        assert child_id != tracing._new_id()

    def test_children_visible_before_exit(self):
        # The first-result probe reads totals while children are open.
        with tracing.span("root") as root:
            with tracing.span("inner"):
                tracing.record("pages", 3)
                assert root.total("pages") == 3

    def test_suppressed_detaches_ambient_span(self):
        with tracing.span("root") as root:
            with tracing.suppressed():
                tracing.record("pages", 100)
                with tracing.span("shadow"):
                    tracing.record("pages", 1)
        assert root.total("pages") == 0
        assert root.children == []

    def test_activate_reparents_across_contexts(self):
        root = Span("request.LBC")
        with tracing.activate(root):
            with tracing.span("query.LBC"):
                tracing.record("pages", 2)
        root.finish()
        assert root.total("pages") == 2
        assert root.children[0].parent_id == root.span_id
        # activate(None) is a harmless no-op context.
        with tracing.activate(None):
            assert tracing.current_span() is None

    def test_format_trace_aggregates_siblings(self):
        with tracing.span("query.LBC", algorithm="LBC") as root:
            for _ in range(3):
                with tracing.span("lbc.resolve"):
                    tracing.record("nodes_settled", 2)
                    tracing.record("network_pages", 1)
        text = format_trace(root)
        assert f"trace {root.trace_id}" in text
        assert "lbc.resolve ×3" in text
        assert "nodes_settled=6" in text
        assert "network_pages=3" in text

    def test_span_path_walks_ancestry(self):
        with tracing.span("query.LBC") as root:
            with tracing.span("lbc.resolve") as leaf:
                assert leaf.path() == ("query.LBC", "lbc.resolve")
        assert root.path() == ("query.LBC",)

    def test_thread_mirror_tracks_innermost_span(self):
        import threading

        ident = threading.get_ident()
        assert ident not in tracing.active_spans()
        with tracing.span("query.LBC") as root:
            with tracing.span("lbc.resolve") as inner:
                assert tracing.active_spans()[ident] is inner
                assert tracing.active_roots()[ident] is root
            assert tracing.active_spans()[ident] is root
        assert ident not in tracing.active_spans()

    def test_thread_mirror_restored_by_suppressed_and_activate(self):
        import threading

        ident = threading.get_ident()
        with tracing.span("query.LBC") as root:
            with tracing.suppressed():
                assert ident not in tracing.active_spans()
            assert tracing.active_spans()[ident] is root
        detached = Span("request.CE")
        with tracing.activate(detached):
            assert tracing.active_spans()[ident] is detached
        assert ident not in tracing.active_spans()


def test_every_registered_name_is_used_in_src():
    """Each span name and metric family appears as a literal outside
    ``obs/names.py``; a name nothing mints is dead vocabulary."""
    names_path = Path(names.__file__).resolve()
    literals: set[str] = set()
    for path in names_path.parents[1].rglob("*.py"):
        if path == names_path:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    assert names.SPAN_NAMES - literals == set()
    assert names.METRIC_FAMILIES - literals == set()


# ----------------------------------------------------------------------
# Slow-query log: /slowlogz's view over the flight-recorder ring
# ----------------------------------------------------------------------
def completion(request_id, latency_s, outcome="completed", **fields):
    return Completion(
        request_id=request_id,
        algorithm="LBC",
        outcome=outcome,
        latency_s=latency_s,
        **fields,
    )


class TestSlowQueryLog:
    def test_threshold_filters(self):
        recorder = FlightRecorder()
        recorder.record(completion("r1", 0.1))
        recorder.record(completion("r2", 0.9))
        recorder.record(completion("r3", 0.9, outcome="failed"))
        assert [r.request_id for r in recorder.slow_records(0.5)] == ["r2"]

    def test_reservoir_bounds_memory(self):
        # The ring is the log's only store, so it bounds the records.
        recorder = FlightRecorder(ring=8)
        for i in range(1000):
            recorder.record(completion(f"r{i}", 1.0 + i * 1e-6))
        assert len(recorder.slow_records(0.0)) == 8

    def test_records_sorted_slowest_first(self):
        recorder = FlightRecorder()
        for latency in (0.2, 0.9, 0.5):
            recorder.record(completion("r", latency))
        assert [r.latency_s for r in recorder.slow_records(0.0)] == [
            0.9, 0.5, 0.2,
        ]

    def test_to_dict_is_json_serialisable(self, small_service):
        queries = random_locations(small_service.workspace.network, 2, seed=5)
        small_service.query("LBC", queries)
        payload = json.loads(json.dumps(small_service.slowlog_dict()))
        assert payload["threshold_s"] == 0.0
        assert payload["slow_count"] == 1
        (record,) = payload["records"]
        assert record["outcome"] == "completed"
        assert {"trace_id", "query_nodes", "counters"} <= set(record)

    def test_dual_clock_fields(self):
        # latency_s (queue wait + execution, monotonic) and
        # span_duration_s (execution only) are distinct; ts is a
        # wall-clock stamp for log correlation only.
        recorder = FlightRecorder()
        recorder.record(completion("r1", 0.8, span_duration_s=0.3))
        (record,) = recorder.slow_records(0.0)
        assert record.latency_s == 0.8
        assert record.span_duration_s == 0.3
        assert record.latency_s >= record.span_duration_s
        assert record.ts > 1e9  # epoch seconds, not monotonic
        assert record.to_event()["span_duration_s"] == 0.3


# ----------------------------------------------------------------------
# Exact reconciliation: spans vs QueryStats vs physical counters
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_workspace() -> Workspace:
    network = build_random_network(80, 60, seed=9)
    objects = place_random_objects(network, 40, seed=10, attribute_count=1)
    return Workspace.build(network, objects, paged=True)


@pytest.mark.parametrize("algorithm_cls", [CE, EDC, LBC, LBCLazy])
def test_trace_reconciles_with_stats_and_physical_counters(
    traced_workspace, algorithm_cls
):
    workspace = traced_workspace
    queries = random_locations(workspace.network, 3, seed=21)
    workspace.reset_io(cold=True)
    net_before = workspace.network_pages_read()
    idx_before = workspace.index_pages_read()
    mid_before = workspace.middle_pages_read()
    settled_before = workspace.engine.nodes_settled()

    result = algorithm_cls().run(workspace, queries)
    stats, trace = result.stats, result.trace

    assert trace is not None
    assert stats.trace_id == trace.trace_id
    totals = trace.totals()

    # Span sums == the stats row (the stats *are* the span view).
    assert totals.get("nodes_settled", 0) == stats.nodes_settled
    assert totals.get("network_pages", 0) == stats.network_pages
    assert totals.get("index_pages", 0) == stats.index_pages
    assert totals.get("middle_pages", 0) == stats.middle_pages
    assert totals.get("distance_computations", 0) == stats.distance_computations

    # Span sums == the independent physical deltas (no drift).
    assert stats.network_pages == workspace.network_pages_read() - net_before
    assert stats.index_pages == workspace.index_pages_read() - idx_before
    assert stats.middle_pages == workspace.middle_pages_read() - mid_before
    assert stats.nodes_settled == workspace.engine.nodes_settled() - settled_before

    # A paged run that settled nodes must have touched network pages.
    assert stats.nodes_settled > 0
    assert stats.network_pages > 0
    assert all(math.isfinite(v) for v in totals.values())


def test_untraced_direct_expansion_unaffected(traced_workspace):
    """record() outside a span is a no-op: raw expanders keep working."""
    workspace = traced_workspace
    queries = random_locations(workspace.network, 2, seed=33)
    result = LBC().run(workspace, queries)
    baseline = {p.obj.object_id for p in result}
    # The same query again — memoised, still traced, same answer.
    repeat = LBC().run(workspace, queries)
    assert {p.obj.object_id for p in repeat} == baseline


# ----------------------------------------------------------------------
# Service integration: /statsz schema and /metricsz exposition
# ----------------------------------------------------------------------
STATSZ_NUMERIC_FIELDS = {
    ("uptime_s",),
    ("started_unix",),
    ("workers",),
    ("queue", "depth"),
    ("queue", "limit"),
    ("queue", "shed"),
    ("queue", "active_keys"),
    ("requests", "submitted"),
    ("requests", "completed"),
    ("requests", "failed"),
    ("requests", "timed_out"),
    ("requests", "deduped"),
    ("requests", "mutations"),
    ("latency_s", "count"),
    ("latency_s", "mean_s"),
    ("latency_s", "p50_s"),
    ("latency_s", "p95_s"),
    ("latency_s", "p99_s"),
    ("batches", "executed"),
    ("batches", "requests_batched"),
    ("batches", "mean_batch_size"),
    ("engine_nodes_settled",),
    ("buffers", "network_physical_reads"),
    ("buffers", "index_physical_reads"),
    ("buffers", "middle_physical_reads"),
    ("slow_queries", "threshold_s"),
    ("slow_queries", "count"),
    ("slow_queries", "retained"),
    ("telemetry_errors",),
    ("workspace_version",),
}

SERVICE_FAMILIES = {
    "repro_service_requests_total",
    "repro_service_queue_depth",
    "repro_insight_latency_seconds",
    "repro_insight_queries_total",
    "repro_service_batch_size",
    "repro_service_slow_queries_total",
    "repro_buffer_reads_total",
    "repro_buffer_hit_ratio",
    "repro_engine_memo_events_total",
    "repro_engine_nodes_settled_total",
}


@pytest.fixture
def small_service():
    network = build_random_network(50, 35, seed=5)
    objects = place_random_objects(network, 25, seed=6, attribute_count=1)
    workspace = Workspace.build(network, objects, paged=True)
    service = QueryService(workspace, workers=2, slow_threshold_s=0.0)
    try:
        yield service
    finally:
        service.close()


def test_statsz_schema_every_field_numeric(small_service):
    queries = random_locations(small_service.workspace.network, 2, seed=77)
    small_service.query("LBC", queries)
    stats = small_service.stats_dict()
    for path in STATSZ_NUMERIC_FIELDS:
        node = stats
        for key in path:
            assert key in node, f"missing /statsz field {'.'.join(path)}"
            node = node[key]
        assert isinstance(node, (int, float)) and not isinstance(node, bool), (
            f"/statsz field {'.'.join(path)} is {type(node).__name__}"
        )
    assert isinstance(stats["queue"]["paused"], bool)
    assert isinstance(stats["algorithms"], list)


def test_metricsz_parses_with_no_duplicate_families(small_service):
    network = small_service.workspace.network
    for seed in range(3):
        queries = random_locations(network, 2, seed=seed)
        small_service.query("LBC", queries)
    text = small_service.metrics.render()
    parsed = parse_prometheus_text(text)  # raises on duplicate families
    assert SERVICE_FAMILIES <= set(parsed)

    def sample_value(family, **labels):
        for name, got, value in parsed[family]["samples"]:
            if name == family and got == labels:
                return value
        raise AssertionError(f"no sample {family}{labels}")

    assert sample_value("repro_service_requests_total", outcome="completed") == 3
    assert sample_value("repro_service_requests_total", outcome="submitted") == 3
    assert sample_value("repro_service_queue_depth") == 0
    # Engine hit/miss and buffer traffic flowed through the callbacks.
    assert sample_value("repro_engine_memo_events_total", event="misses") > 0
    assert (
        sample_value("repro_buffer_reads_total", pool="network", mode="logical")
        > 0
    )
    ratio = sample_value("repro_buffer_hit_ratio", pool="network")
    assert 0.0 <= ratio <= 1.0
    # Latency comes from the insight cohorts: their counts add up to
    # the completed requests, each with three positive quantiles.
    cohorts = parsed["repro_insight_queries_total"]["samples"]
    assert sum(v for _, _, v in cohorts) == 3
    latency = parsed["repro_insight_latency_seconds"]["samples"]
    assert len(latency) == 3 * len(cohorts)
    assert all(v > 0.0 for _, _, v in latency)


def test_request_spans_cover_query_work(small_service):
    queries = random_locations(small_service.workspace.network, 2, seed=11)
    result = small_service.query("CE", queries)
    trace = small_service.recorder.ring_entries()[-1].span
    assert trace.name == "request.CE"
    assert trace.attributes["outcome"] == "ok"
    children = [c.name for c in trace.children]
    assert "query.CE" in children
    # The request span's subtree carries the query's counters.
    assert trace.total("nodes_settled") == result.stats.nodes_settled
    assert trace.total("network_pages") == result.stats.network_pages


def test_slow_query_log_captures_trace_ids(small_service):
    queries = random_locations(small_service.workspace.network, 2, seed=13)
    result = small_service.query("LBC", queries)  # threshold 0.0 -> slow
    payload = small_service.slowlog_dict()
    assert payload["slow_count"] == 1
    (record,) = payload["records"]
    assert record["algorithm"] == "LBC"
    assert record["trace_id"] == result.stats.trace_id
    assert record["counters"]["nodes_settled"] == result.stats.nodes_settled
    # Both clocks: total latency from enqueue, and the execution time
    # the client's stats row reports.
    assert record["span_duration_s"] == result.stats.total_response_s
    assert record["latency_s"] >= record["span_duration_s"] > 0.0
