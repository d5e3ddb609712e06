"""Insight plane: cohort keying, offline analysis, regression gating,
the CLI's exit codes, and live-vs-offline agreement through a real
service."""

from __future__ import annotations

import json
import math
import time

import pytest

from conftest import (
    build_random_network,
    place_random_objects,
    random_locations,
)
from repro.core import ALGORITHMS, Workspace
from repro.core.result import SkylineResult
from repro.core.stats import QueryStats
from repro.insight import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REGRESSION,
    InsightHub,
    InsightSummary,
    cohort_key,
    cohort_of_event,
    compare_summaries,
    exact_quantile,
    format_growth,
    is_regression,
    load_summary,
    q_bucket_label,
    relative_increase,
    split_cohort,
    summarize_events,
    top_events,
)
from repro.insight.cli import main as insight_main
from repro.obs import Completion, read_events, tracing
from repro.service import QueryService


def make_event(
    request_id=1,
    algorithm="EDC",
    backend="dijkstra",
    query_count=5,
    outcome="completed",
    latency_s=0.01,
    nodes_settled=100,
    network_pages=4,
    trace_id=None,
):
    return {
        "event": "query",
        "v": 1,
        "ts": 1.7e9 + request_id,
        "request_id": request_id,
        "algorithm": algorithm,
        "outcome": outcome,
        "trace_id": trace_id or f"trace-{request_id}",
        "batch_id": request_id,
        "engine_backend": backend,
        "latency_s": latency_s,
        "span_duration_s": latency_s * 0.8,
        "query_count": query_count,
        "query_nodes": list(range(query_count)),
        "skyline_count": 3,
        "candidate_count": 9,
        "counters": {
            "nodes_settled": nodes_settled,
            "network_pages": network_pages,
        },
    }


def write_log(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


class TestCohortKeying:
    def test_q_buckets_are_powers_of_two(self):
        assert q_bucket_label(1) == "|Q|[1,2)"
        assert q_bucket_label(2) == "|Q|[2,4)"
        assert q_bucket_label(3) == "|Q|[2,4)"
        assert q_bucket_label(4) == "|Q|[4,8)"
        assert q_bucket_label(7) == "|Q|[4,8)"
        assert q_bucket_label(8) == "|Q|[8,16)"
        assert q_bucket_label(16) == "|Q|[16,inf)"
        assert q_bucket_label(1000) == "|Q|[16,inf)"
        assert q_bucket_label(0) == "|Q|[1,2)"  # clamped

    def test_cohort_key_normalises_empty_parts(self):
        assert cohort_key("EDC", "", 5, "failed") == "EDC/-/|Q|[4,8)/failed"
        assert (
            cohort_key("LBC", "astar", 2, "completed")
            == "LBC/astar/|Q|[2,4)/completed"
        )

    def test_cohort_of_event_matches_cohort_key(self):
        event = make_event(algorithm="CE", backend="astar", query_count=9)
        assert cohort_of_event(event) == cohort_key(
            "CE", "astar", 9, "completed"
        )

    def test_split_round_trips(self):
        key = cohort_key("EDC", "dijkstra", 6, "completed")
        parts = split_cohort(key)
        assert parts["algorithm"] == "EDC"
        assert parts["backend"] == "dijkstra"
        assert parts["q"] == "|Q|[4,8)"
        assert parts["outcome"] == "completed"


class TestGateArithmetic:
    def test_relative_increase(self):
        assert relative_increase(100, 150) == pytest.approx(0.5)
        assert relative_increase(0, 5) == float("inf")
        assert relative_increase(0, 0) == 0.0

    def test_regression_needs_both_legs(self):
        # +62% but +0.5ms absolute: noise, not a regression.
        assert not is_regression(
            0.0008, 0.0013, threshold=0.5, absolute_floor=0.005
        )
        # Same ratio at meaningful magnitude: a finding.
        assert is_regression(
            0.08, 0.13, threshold=0.5, absolute_floor=0.005
        )
        assert not is_regression(100, 100, threshold=0.0)

    def test_format_growth_reads_as_attribution(self):
        assert format_growth(120, 380) == "120 -> 380 (+3.2x)"
        assert "+12.5%" in format_growth(80, 90)
        assert format_growth(0.117647, 0) == "0.117647 -> 0 (-100.0%)"

    def test_bench_compare_shares_the_arithmetic(self):
        from repro.bench import compare as bench_compare
        from repro.insight import gate

        assert bench_compare._relative_increase is gate.relative_increase


class TestSummarize:
    def test_cohorts_and_exact_digests(self):
        latencies = [0.001 * i for i in range(1, 21)]
        events = [
            make_event(request_id=i, latency_s=lat, nodes_settled=50 + i)
            for i, lat in enumerate(latencies)
        ]
        events.append(make_event(request_id=99, algorithm="LBC"))
        summary = summarize_events(events)
        assert summary.events == 21
        key = cohort_key("EDC", "dijkstra", 5, "completed")
        assert set(summary.cohorts) == {
            key,
            cohort_key("LBC", "dijkstra", 5, "completed"),
        }
        digest = summary.cohorts[key]
        assert digest.count == 20
        assert digest.latency_s["p50"] == exact_quantile(latencies, 0.5)
        assert digest.latency_s["p99"] == exact_quantile(latencies, 0.99)
        assert digest.latency_s["max"] == max(latencies)
        settled = digest.counters["nodes_settled"]
        assert settled["sum"] == sum(50 + i for i in range(20))
        assert settled["max"] == 69
        assert digest.counters["network_pages"]["mean"] == 4.0

    def test_slow_exemplars_link_trace_ids(self):
        events = [
            make_event(request_id=i, latency_s=0.001 * (i + 1))
            for i in range(10)
        ]
        summary = summarize_events(events, exemplars=3)
        digest = next(iter(summary.cohorts.values()))
        assert [e["trace_id"] for e in digest.slowest] == [
            "trace-9",
            "trace-8",
            "trace-7",
        ]
        assert digest.slowest[0]["latency_s"] == pytest.approx(0.010)

    def test_non_query_events_are_ignored(self):
        events = [make_event(), {"event": "heartbeat", "ts": 0.0}]
        summary = summarize_events(events)
        assert summary.events == 1

    def test_summarize_records_a_registered_span(self):
        with tracing.span("query.test-harness") as root:
            summarize_events([make_event()])
        assert [child.name for child in root.children] == [
            "insight.summarize"
        ]

    def test_report_round_trips_through_json(self):
        summary = summarize_events(
            [make_event(request_id=i) for i in range(5)], source="x"
        )
        payload = json.loads(json.dumps(summary.to_dict()))
        revived = InsightSummary.from_dict(payload)
        assert revived.to_dict() == summary.to_dict()


class TestCompare:
    def _summaries(self, base_events, curr_events):
        return (
            summarize_events(base_events, source="base"),
            summarize_events(curr_events, source="curr"),
        )

    def test_identical_logs_diff_clean_and_deterministically(self):
        events = [make_event(request_id=i) for i in range(10)]
        for _ in range(3):
            base, curr = self._summaries(events, list(events))
            diff = compare_summaries(base, curr)
            assert diff.ok
            assert diff.failures == [] and diff.warnings == []

    def test_doubled_counter_names_cohort_and_counter(self):
        base_events = [
            make_event(request_id=i, nodes_settled=100) for i in range(10)
        ]
        curr_events = [
            make_event(request_id=i, nodes_settled=200) for i in range(10)
        ]
        base, curr = self._summaries(base_events, curr_events)
        diff = compare_summaries(base, curr)
        assert not diff.ok
        assert len(diff.failures) == 1
        message = diff.failures[0]
        assert cohort_key("EDC", "dijkstra", 5, "completed") in message
        assert "nodes_settled" in message
        assert "100 -> 200" in message

    def test_latency_regression_fails_by_default_warns_in_advisory(self):
        base_events = [
            make_event(request_id=i, latency_s=0.01) for i in range(10)
        ]
        curr_events = [
            make_event(request_id=i, latency_s=0.08) for i in range(10)
        ]
        base, curr = self._summaries(base_events, curr_events)
        diff = compare_summaries(base, curr)
        assert not diff.ok
        assert any("latency_s p50" in f for f in diff.failures)
        advisory = compare_summaries(base, curr, advisory_latency=True)
        assert advisory.ok
        assert any("latency_s p50" in w for w in advisory.warnings)

    def test_absolute_floor_suppresses_tiny_noise(self):
        base_events = [
            make_event(request_id=i, latency_s=0.0008) for i in range(10)
        ]
        curr_events = [
            make_event(request_id=i, latency_s=0.0013) for i in range(10)
        ]
        base, curr = self._summaries(base_events, curr_events)
        # +62% relative but +0.5ms absolute: below the default floor.
        assert compare_summaries(base, curr).ok

    def test_min_count_skips_anecdotal_cohorts(self):
        base, curr = self._summaries(
            [make_event(nodes_settled=10)], [make_event(nodes_settled=99)]
        )
        assert compare_summaries(base, curr, min_count=3).ok
        assert not compare_summaries(base, curr, min_count=1).ok

    def test_cohort_coverage_changes_surface(self):
        base, curr = self._summaries(
            [make_event(algorithm="EDC"), make_event(algorithm="CE")],
            [make_event(algorithm="EDC"), make_event(algorithm="LBC")],
        )
        diff = compare_summaries(base, curr)
        assert diff.ok  # coverage changes never fail
        assert any("CE/" in w for w in diff.warnings)
        assert any("LBC/" in n for n in diff.notes)

    def test_counter_disappearance_fails(self):
        base_events = [make_event(request_id=i) for i in range(5)]
        curr_events = [make_event(request_id=i) for i in range(5)]
        for event in curr_events:
            del event["counters"]["network_pages"]
        base, curr = self._summaries(base_events, curr_events)
        diff = compare_summaries(base, curr)
        assert any("network_pages" in f for f in diff.failures)

    def test_kind_mismatch_is_not_comparable(self):
        base = summarize_events([make_event()])
        bench = InsightSummary(kind="bench")
        diff = compare_summaries(base, bench)
        assert any("kind mismatch" in f for f in diff.failures)

    def test_compare_records_a_registered_span(self):
        base = summarize_events([make_event()])
        with tracing.span("query.test-harness") as root:
            compare_summaries(base, base)
        assert [child.name for child in root.children] == ["insight.compare"]


class TestTopEvents:
    def test_slowest_first_with_cohort_filter(self):
        events = [
            make_event(request_id=i, latency_s=0.001 * (i + 1))
            for i in range(8)
        ] + [
            make_event(
                request_id=100 + i, algorithm="LBC", latency_s=0.5 + i
            )
            for i in range(2)
        ]
        top = top_events(events, k=3)
        assert [e["request_id"] for e in top] == [101, 100, 7]
        assert all("cohort" in e for e in top)
        only_edc = top_events(events, k=3, cohort="EDC")
        assert [e["request_id"] for e in only_edc] == [7, 6, 5]


class TestSummarySources:
    def test_event_log_source_counts_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_log(path, [make_event(request_id=i) for i in range(4)])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "query", "truncat')
        summary = load_summary(path)
        assert summary.events == 4
        assert summary.corrupt_lines == 1

    def test_saved_report_source_round_trips(self, tmp_path):
        log = str(tmp_path / "events.jsonl")
        write_log(log, [make_event(request_id=i) for i in range(6)])
        report = str(tmp_path / "report.json")
        assert insight_main(["summarize", log, "--out", report]) == EXIT_OK
        revived = load_summary(report)
        direct = load_summary(log)
        assert revived.cohorts.keys() == direct.cohorts.keys()
        assert compare_summaries(direct, revived).ok

    def test_bench_artifact_source(self, tmp_path):
        artifact = {
            "schema": "repro-bench",
            "schema_version": 1,
            "suite": "default",
            "suite_version": 2,
            "benchmarks": [
                {
                    "id": "query/CE/au/q2/cold",
                    "counters": {"nodes_settled": 300, "network_pages": 11},
                    "params": {"repeats": 3},
                    "timing_s": {"p50": 0.007, "mean": 0.008, "max": 0.012},
                }
            ],
        }
        path = str(tmp_path / "BENCH_test.json")
        with open(path, "w") as handle:
            json.dump(artifact, handle)
        summary = load_summary(path)
        assert summary.kind == "bench"
        digest = summary.cohorts["query/CE/au/q2/cold"]
        assert digest.counters["nodes_settled"]["mean"] == 300
        assert digest.latency_s["p50"] == pytest.approx(0.007)
        # Two bench artifacts diff with the same machinery as two logs.
        worse = json.loads(json.dumps(artifact))
        worse["benchmarks"][0]["counters"]["nodes_settled"] = 600
        worse_path = str(tmp_path / "BENCH_worse.json")
        with open(worse_path, "w") as handle:
            json.dump(worse, handle)
        diff = compare_summaries(summary, load_summary(worse_path))
        assert any("nodes_settled" in f for f in diff.failures)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_summary(str(tmp_path / "absent.jsonl"))


class TestCLI:
    def test_exit_codes_match_the_bench_convention(self, tmp_path, capsys):
        base = str(tmp_path / "base.jsonl")
        same = str(tmp_path / "same.jsonl")
        worse = str(tmp_path / "worse.jsonl")
        events = [make_event(request_id=i) for i in range(8)]
        write_log(base, events)
        write_log(same, events)
        write_log(
            worse,
            [
                make_event(request_id=i, nodes_settled=250)
                for i in range(8)
            ],
        )
        assert insight_main(["summarize", base]) == EXIT_OK
        assert insight_main(["compare", base, same]) == EXIT_OK
        assert insight_main(["compare", base, worse]) == EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "nodes_settled" in out
        assert "REGRESSION" in out
        assert (
            insight_main(["compare", base, str(tmp_path / "nope.jsonl")])
            == EXIT_ERROR
        )
        assert (
            insight_main(["summarize", str(tmp_path / "nope.jsonl")])
            == EXIT_ERROR
        )

    def test_json_reporters_emit_parseable_payloads(self, tmp_path, capsys):
        log = str(tmp_path / "events.jsonl")
        write_log(log, [make_event(request_id=i) for i in range(5)])
        assert insight_main(["summarize", log, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-insight"
        assert insight_main(["compare", log, log, "--json"]) == EXIT_OK
        diff = json.loads(capsys.readouterr().out)
        assert diff["ok"] is True
        assert insight_main(["top", log, "-k", "2", "--json"]) == EXIT_OK
        top = json.loads(capsys.readouterr().out)
        assert len(top) == 2

    def test_top_lists_slowest_with_trace_ids(self, tmp_path, capsys):
        log = str(tmp_path / "events.jsonl")
        write_log(
            log,
            [
                make_event(request_id=i, latency_s=0.001 * (i + 1))
                for i in range(6)
            ],
        )
        assert insight_main(["top", log, "-k", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "trace-5" in out and "trace-2" not in out

    def test_repro_cli_dispatches_insight(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        log = str(tmp_path / "events.jsonl")
        write_log(log, [make_event()])
        assert repro_main(["insight", "summarize", log]) == EXIT_OK
        assert "cohorts" in capsys.readouterr().out


class SleepyAlgorithm:
    """Configurable injected latency (the molasses hook, adjustable)."""

    name = "molasses"
    delay_s = 0.0

    def run(self, workspace, queries):
        with tracing.span("query.molasses") as root:
            if self.delay_s:
                time.sleep(self.delay_s)
        stats = QueryStats(algorithm=self.name, trace_id=root.trace_id)
        return SkylineResult(points=[], stats=stats, trace=root)


def _run_service_log(tmp_path, name, delay_s, queries_per_algo=6):
    """One service run with an event log; returns the log path."""
    network = build_random_network(90, 50, seed=61, detour_max=0.6)
    objects = place_random_objects(network, 25, seed=62, attribute_count=2)
    workspace = Workspace.build(network, objects, distance_backend="astar")
    path = str(tmp_path / f"{name}.jsonl")

    class _Sleepy(SleepyAlgorithm):
        pass

    _Sleepy.delay_s = delay_s
    service = QueryService(
        workspace,
        workers=2,
        event_log_path=path,
        algorithms={**ALGORITHMS, "molasses": _Sleepy},
    )
    try:
        for i in range(queries_per_algo):
            locations = random_locations(network, 2, seed=100 + i)
            service.query("LBC", locations)
            service.query("molasses", locations)
    finally:
        service.close()
    return path


class TestInjectedRegressionEndToEnd:
    def test_molasses_latency_flips_compare_between_two_logs(self, tmp_path):
        baseline = _run_service_log(tmp_path, "base", delay_s=0.0)
        regressed = _run_service_log(tmp_path, "curr", delay_s=0.12)
        # Deterministic exit 0 on an unchanged log, across repeats.
        for _ in range(2):
            assert (
                insight_main(["compare", baseline, baseline]) == EXIT_OK
            )
        assert (
            insight_main(["compare", baseline, regressed])
            == EXIT_REGRESSION
        )
        base_summary = load_summary(baseline)
        diff = compare_summaries(base_summary, load_summary(regressed))
        molasses_key = cohort_key("molasses", "", 2, "completed")
        assert any(
            molasses_key in f and "latency_s" in f for f in diff.failures
        )
        # The untouched algorithm's counters did not false-positive.
        assert not any(
            "LBC/" in f and "nodes_settled" in f for f in diff.failures
        )


class TestLiveHub:
    def test_observe_keys_and_digests(self):
        hub = InsightHub()
        seen = []
        hub._on_new_cohort = seen.append
        for i in range(20):
            hub.observe(
                Completion(
                    request_id=i,
                    algorithm="EDC",
                    engine_backend="dijkstra",
                    query_count=5,
                    outcome="completed",
                    latency_s=0.001 * (i + 1),
                    counters={
                        "nodes_settled": 100 + i,
                        "network_pages": 3,
                        "index_pages": 2,
                    },
                )
            )
        key = cohort_key("EDC", "dijkstra", 5, "completed")
        assert hub.cohort_keys() == [key]
        assert hub.cohort_count_of(key) == 20
        assert hub.observed == 20
        report = hub.report()
        cohort = report["cohorts"][key]
        assert cohort["count"] == 20
        # page_misses digests the *sum* of every *_pages counter.
        assert cohort["counters"]["page_misses"]["mean"] == pytest.approx(
            5.0, rel=0.02
        )
        exact_p50 = exact_quantile(
            [0.001 * (i + 1) for i in range(20)], 0.5
        )
        assert cohort["latency_s"]["p50"] == pytest.approx(
            exact_p50, rel=hub.alpha
        )

    def test_new_cohort_callback_fires_once_per_cohort(self):
        seen = []
        hub = InsightHub(on_new_cohort=seen.append)
        for i in range(3):
            hub.observe(
                Completion(
                    request_id=i,
                    algorithm="CE",
                    query_count=1,
                    outcome="failed",
                    latency_s=0.001,
                )
            )
        hub.observe(
            Completion(
                request_id=3,
                algorithm="CE",
                engine_backend="astar",
                query_count=1,
                outcome="completed",
                latency_s=0.001,
            )
        )
        assert seen == [
            cohort_key("CE", "", 1, "failed"),
            cohort_key("CE", "astar", 1, "completed"),
        ]

    def test_merged_latency_covers_all_cohorts(self):
        hub = InsightHub()
        for algorithm, outcome in (("CE", "completed"), ("EDC", "failed")):
            for i in range(10):
                hub.observe(
                    Completion(
                        request_id=i,
                        algorithm=algorithm,
                        engine_backend="dijkstra",
                        query_count=2,
                        outcome=outcome,
                        latency_s=0.002 * (i + 1),
                    )
                )
        assert hub.merged_latency().count == 20
        assert hub.merged_latency(outcome="completed").count == 10


@pytest.fixture(scope="module")
def insight_service(tmp_path_factory):
    """A service with insight + event log, a query burst, both views."""
    tmp_path = tmp_path_factory.mktemp("insight-e2e")
    network = build_random_network(110, 70, seed=71, detour_max=0.6)
    objects = place_random_objects(network, 35, seed=72, attribute_count=2)
    workspace = Workspace.build(network, objects, distance_backend="astar")
    path = str(tmp_path / "events.jsonl")
    service = QueryService(workspace, workers=2, event_log_path=path)
    try:
        for i in range(10):
            queries = random_locations(network, 2 + (i % 3), seed=200 + i)
            algorithm = ("LBC", "EDC")[i % 2]
            service.query(algorithm, queries)
        service.events.flush()
        live = service.insight_report()
        metrics_text = service.metrics.render()
        events = read_events(path)
    finally:
        service.close()
    return live, events, metrics_text


class TestLiveOfflineAgreement:
    """The acceptance contract: /insightz must agree with offline
    summarize over the same events within the sketch's alpha."""

    def test_same_cohorts_same_counts(self, insight_service):
        live, events, _ = insight_service
        offline = summarize_events(events)
        assert set(live["cohorts"]) == set(offline.cohorts)
        for key, cohort in live["cohorts"].items():
            assert cohort["count"] == offline.cohorts[key].count
        assert live["observed"] == offline.events

    def test_latency_quantiles_agree_within_alpha(self, insight_service):
        live, events, _ = insight_service
        alpha = live["alpha"]
        offline = summarize_events(events)
        for key, cohort in live["cohorts"].items():
            assert not cohort["collapsed"]
            exact = offline.cohorts[key].latency_s
            for stat in ("p50", "p90", "p99"):
                assert (
                    abs(cohort["latency_s"][stat] - exact[stat])
                    <= alpha * exact[stat] + 1e-12
                ), f"{key} {stat}"

    def test_settled_digest_agrees_with_event_counters(self, insight_service):
        live, events, _ = insight_service
        alpha = live["alpha"]
        for key, cohort in live["cohorts"].items():
            exact = sorted(
                float(e["counters"].get("nodes_settled", 0))
                for e in events
                if cohort_of_event(e) == key
            )
            live_p50 = cohort["counters"]["nodes_settled"]["p50"]
            exact_p50 = exact_quantile(exact, 0.5)
            assert abs(live_p50 - exact_p50) <= alpha * exact_p50 + 1e-12
            # Means are exact on both sides.
            assert cohort["counters"]["nodes_settled"][
                "mean"
            ] == pytest.approx(sum(exact) / len(exact))

    def test_event_log_queue_depth_gauge_is_exported(self, insight_service):
        from repro.obs.metrics import parse_prometheus_text

        _, _, metrics_text = insight_service
        families = parse_prometheus_text(metrics_text)
        assert "repro_event_log_queue_depth" in families
        name, labels, value = families["repro_event_log_queue_depth"][
            "samples"
        ][0]
        assert value == 0.0  # flushed before scraping
        totals = {
            labels["event"]: value
            for _, labels, value in families["repro_service_events_total"][
                "samples"
            ]
        }
        assert totals["emitted"] == totals["written"] + totals["dropped"]

    def test_cohort_labels_round_trip_through_prometheus_text(
        self, insight_service
    ):
        from repro.obs.metrics import parse_prometheus_text

        live, _, metrics_text = insight_service
        families = parse_prometheus_text(metrics_text)
        exported = {
            labels["cohort"]: value
            for _, labels, value in families["repro_insight_queries_total"][
                "samples"
            ]
        }
        # Commas inside |Q|[a,b) survive exposition and strict parsing.
        assert exported == {
            key: float(cohort["count"])
            for key, cohort in live["cohorts"].items()
        }


class TestSingleLatencyAggregator:
    """/statsz percentiles and the latency SLO read the hub's merged
    ``completed`` sketch: lifetime counts, quantiles within alpha."""

    def test_statsz_and_slo_agree_with_the_event_log(self, tmp_path):
        network = build_random_network(90, 60, seed=91, detour_max=0.6)
        objects = place_random_objects(network, 30, seed=92)
        workspace = Workspace.build(network, objects)
        path = str(tmp_path / "events.jsonl")
        threshold_s = 0.004
        service = QueryService(
            workspace,
            workers=2,
            event_log_path=path,
            slo_latency_threshold_s=threshold_s,
        )
        queries = 12
        try:
            for i in range(queries):
                service.query(
                    ("LBC", "EDC", "CE")[i % 3],
                    random_locations(network, 2 + i % 3, seed=300 + i),
                )
            stats = service.stats_dict()
            slo = next(
                o
                for o in service.slo_report()["objectives"]
                if o["name"] == "latency"
            )
            merged = service.insight.merged_latency(outcome="completed")
        finally:
            service.close()
        latencies = sorted(e["latency_s"] for e in read_events(path))
        assert stats["latency_s"]["count"] == queries == slo["total"]
        alpha = merged.alpha
        for key, q in (("p50_s", 0.5), ("p95_s", 0.95), ("p99_s", 0.99)):
            exact = exact_quantile(latencies, q)
            assert abs(stats["latency_s"][key] - exact) <= alpha * exact + 1e-6
        # Good counts snap the threshold up to its bucket's bound and are
        # otherwise exact, for the configured threshold and any other.
        gamma = (1.0 + alpha) / (1.0 - alpha)
        for threshold in (threshold_s, *latencies):
            bound = gamma ** math.ceil(math.log(threshold) / math.log(gamma))
            assert threshold <= bound < threshold * gamma
            exact_good = sum(1 for v in latencies if v <= bound)
            assert merged.count_at_most(threshold) == exact_good
        assert slo["good"] == merged.count_at_most(threshold_s)
