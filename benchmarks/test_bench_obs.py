"""Telemetry overhead: the subsystem must observe, not perturb.

Two questions, each with a measurement and an assertion:

* **Hot-path cost** — ``tracing.record`` is one contextvar read plus
  one dict update per settled node / page miss.  A full Dijkstra
  expansion under an active span vs without one bounds the end-to-end
  throughput overhead of tracing (acceptance: < 5 %).
* **Scrape cost** — ``/metricsz`` renders entirely from scrape-time
  callbacks; rendering a realistic registry must stay microseconds,
  since operators poll it at high frequency.

Timing comparisons use interleaved min-of-N (min is robust to
scheduler noise; interleaving cancels thermal/frequency drift).
"""

from __future__ import annotations

import time

import pytest

from repro.core import LBC, Workspace
from repro.network import DijkstraExpander
from repro.obs import tracing
from repro.service.service import QueryService

from conftest import attach_stats, run_cold


def _min_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestTracingOverhead:
    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    def test_full_expansion(self, benchmark, workloads, traced):
        """One complete network expansion, with/without an active span."""
        network = workloads.network("AU")
        source = workloads.queries("AU", 1, seed=7)[0]

        def expand():
            expander = DijkstraExpander(network, source)
            while expander.expand_next() is not None:
                pass
            return expander.nodes_settled

        if traced:
            def run():
                with tracing.span("bench.expansion"):
                    return expand()
        else:
            run = expand

        settled = benchmark(run)
        benchmark.extra_info["nodes_settled"] = settled

    def test_overhead_under_five_percent(self, workloads):
        """Interleaved min-of-N: traced expansion within 5 % of untraced."""
        network = workloads.network("NA")
        source = workloads.queries("NA", 1, seed=3)[0]

        def expand():
            expander = DijkstraExpander(network, source)
            while expander.expand_next() is not None:
                pass

        def traced():
            with tracing.span("bench.expansion"):
                expand()

        expand(), traced()  # warm caches and code paths
        rounds = 7
        base = float("inf")
        instrumented = float("inf")
        for _ in range(rounds):
            base = min(base, _min_of(expand, 1))
            instrumented = min(instrumented, _min_of(traced, 1))
        overhead = (instrumented - base) / base
        assert overhead < 0.05, (
            f"tracing overhead {overhead:.1%} "
            f"(untraced {base * 1e3:.2f}ms, traced {instrumented * 1e3:.2f}ms)"
        )

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    def test_lbc_query_end_to_end(self, benchmark, workloads, traced):
        """A full LBC query; ``run()`` always opens the query span, so
        the comparison isolates the *request-span* layer the service
        adds on top of a bare run."""
        workspace = workloads.workspace("AU", 0.50)
        queries = workloads.queries("AU", 4)
        algorithm = LBC()

        if traced:
            def run():
                with tracing.span("request.LBC"):
                    return run_cold(workspace, algorithm, queries)
        else:
            def run():
                return run_cold(workspace, algorithm, queries)

        result = benchmark.pedantic(run, rounds=2, iterations=1)
        attach_stats(benchmark, result)


class TestCompletionOverhead:
    def test_sinks_under_five_percent(self, workloads, tmp_path):
        """One completion record per query, sent through the service's
        own fan-out (``QueryService._publish``: wide-event emit, insight
        hub, flight ring, dump triggers — the code ``_finish`` runs),
        must stay within 5 % of tracing-only.  On failure, a
        flight-record dump is written to ``$REPRO_FLIGHT_DIR`` so CI
        retains the evidence."""
        import os

        from repro.obs import Completion

        network = workloads.network("NA")
        source = workloads.queries("NA", 1, seed=3)[0]
        service = QueryService(
            workloads.workspace("AU"),
            workers=1,
            event_log_path=str(tmp_path / "bench-events.jsonl"),
            flight_dir=os.environ.get("REPRO_FLIGHT_DIR"),
            slow_threshold_s=float("inf"),
        )

        def traced():
            with tracing.span("bench.expansion") as root:
                expander = DijkstraExpander(network, source)
                while expander.expand_next() is not None:
                    pass
            return root

        def published():
            root = traced()
            service._publish(
                Completion(
                    request_id=0,
                    algorithm="bench",
                    outcome="completed",
                    trace_id=root.trace_id,
                    latency_s=root.duration_s,
                    span_duration_s=root.duration_s,
                    engine_backend="dijkstra",
                    query_count=1,
                    counters=root.totals(),
                    span=root,
                )
            )

        traced(), published()  # warm caches and code paths
        rounds = 7
        base = float("inf")
        instrumented = float("inf")
        for _ in range(rounds):
            base = min(base, _min_of(traced, 1))
            instrumented = min(instrumented, _min_of(published, 1))
        service.close()
        overhead = (instrumented - base) / base
        stats = service.stats_dict()
        if overhead >= 0.05:
            service.recorder.dump(
                "bench_overhead",
                force=True,
                extra={
                    "overhead": overhead,
                    "tracing_only_s": base,
                    "published_s": instrumented,
                    "event_log": stats["events"],
                },
            )
        assert overhead < 0.05, (
            f"completion-sink overhead {overhead:.1%} "
            f"(tracing-only {base * 1e3:.2f}ms, "
            f"+sinks {instrumented * 1e3:.2f}ms)"
        )
        # Every sink really took the records, and none raised.
        assert stats["telemetry_errors"] == 0
        assert stats["events"]["dropped"] == 0
        assert stats["events"]["written"] == rounds + 1
        assert service.recorder.ring_size == rounds + 1
        cohort = service.insight_report()["cohorts"][
            "bench/dijkstra/|Q|[1,2)/completed"
        ]
        assert cohort["count"] == rounds + 1
        assert cohort["latency_s"]["p99"] > 0.0
        assert not cohort["collapsed"]


class TestScrapeCost:
    def test_metricsz_render(self, benchmark):
        """Render a serving registry after real traffic."""
        from conftest import BENCH_BUFFER
        from repro.datasets import build_preset, extract_objects, select_query_points

        network = build_preset("AU", scale=0.05)
        objects = extract_objects(network, omega=0.5, seed=1)
        workspace = Workspace.build(
            network, objects, paged=True, buffer_bytes=BENCH_BUFFER
        )
        with QueryService(workspace, workers=2) as service:
            for seed in range(4):
                queries = select_query_points(
                    network, 3, region_fraction=0.2, seed=seed
                )
                service.query("LBC", queries)
            text = benchmark(service.metrics.render)
        assert "repro_service_requests_total" in text
