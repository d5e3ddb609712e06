"""The paper's experiments through the bench runner: recipes, workspace
cache, draws, figure views and the ablation tables, on tiny grids."""

from dataclasses import replace

import pytest

from repro.bench import WorkloadCache, format_series, run_workload
from repro.bench.figures import (
    ABLATION_PANELS,
    PAPER_PANELS,
    FigureSeries,
    figure_series,
    panel_value,
    winner_summary,
)
from repro.bench.suite import (
    DEFAULT_BUFFER_BYTES,
    REGION_FRACTION,
    QueryWorkload,
    suite_workloads,
)

TINY = QueryWorkload(
    workload_id="query/LBC/ca/q2/tiny",
    algorithm="LBC",
    network="CA",
    scale=0.03,
    omega=0.3,
    query_count=2,
    trials=2,
    repeats=1,
)

PANELS = {panel.figure: panel for panel in PAPER_PANELS + ABLATION_PANELS}


def tiny(algorithm="LBC", **changes) -> QueryWorkload:
    """TINY with a different algorithm or knobs, under a unique id."""
    workload = replace(TINY, algorithm=algorithm, **changes)
    return replace(workload, workload_id=f"{algorithm}/{sorted(changes.items())}")


@pytest.fixture(scope="module")
def cache():
    return WorkloadCache()


class TestExperimentConfig:
    """The paper's defaults, as the figure panels and suites pin them."""

    def test_defaults_match_paper(self):
        # ω = 50 %, |Q| = 4 and network NA wherever a panel holds them.
        assert PANELS["Fig4a"].fixed == {"network": "NA", "omega": 0.5}
        assert PANELS["Fig4b"].fixed == {"network": "NA", "query_count": 4}
        assert PANELS["Fig4c"].fixed == {"omega": 0.5, "query_count": 4}
        assert REGION_FRACTION == 0.10
        assert DEFAULT_BUFFER_BYTES == 256 * 1024
        paper = suite_workloads("paper")
        assert {w.scale for w in paper} == {0.10}
        assert {w.trials for w in paper} == {5}


class TestWorkloadCache:
    def test_workspace_reused(self, cache):
        a = cache.workspace(TINY)
        b = cache.workspace(TINY)
        assert a is b

    def test_different_omega_different_workspace(self, cache):
        a = cache.workspace(TINY)
        b = cache.workspace(replace(TINY, omega=0.6))
        assert a is not b

    def test_network_shared_across_omegas(self, cache):
        a = cache.workspace(TINY)
        b = cache.workspace(replace(TINY, omega=0.6))
        assert a.network is b.network

    def test_clear(self):
        local = WorkloadCache()
        first = local.workspace(TINY)
        local.clear()
        assert local.workspace(TINY) is not first


class TestRunExperiment:
    def test_aggregates_all_algorithms(self, cache):
        for algorithm in ("CE", "LBC"):
            record = run_workload(tiny(algorithm), cache)
            assert record["params"]["trials"] == 2
            # Sums over two draws, each with a non-empty skyline.
            assert record["counters"]["skyline_count"] >= 2
            assert record["timing_s"]["p50"] > 0

    def test_metric_lookup(self, cache):
        record = run_workload(TINY, cache)
        counters = record["counters"]
        assert panel_value(record, "candidate_ratio") == (
            counters["candidate_count"] / counters["object_count"]
        )
        assert panel_value(record, "nodes_settled") == counters["nodes_settled"] / 2

    def test_aggregate_from_empty_rejected(self):
        with pytest.raises(ValueError, match="no record"):
            figure_series(PANELS["Fig4a"], [])


class TestFigureRunners:
    @pytest.fixture(scope="class")
    def fig4a(self):
        # Fig 4(a)'s own declaration (NA, ω = 50 %) over a tiny |Q| sweep.
        local = WorkloadCache()
        records = [
            run_workload(
                tiny(algorithm, network="NA", scale=0.02, omega=0.5, query_count=q),
                local,
            )
            for q in (2, 3)
            for algorithm in ("CE", "EDC", "LBC")
        ]
        return figure_series(PANELS["Fig4a"], records)

    def test_fig4a_structure(self, fig4a):
        assert fig4a.figure == "Fig4a"
        assert fig4a.x_values == [2, 3]
        assert set(fig4a.series) == {"CE", "EDC", "LBC"}
        for values in fig4a.series.values():
            assert len(values) == 2
            assert all(0 <= v <= 1 for v in values)

    def test_format_series_contains_rows(self, fig4a):
        text = format_series(fig4a)
        assert "Fig4a" in text
        assert "LBC" in text
        assert "|C|/|D|" in text

    def test_winner_summary(self):
        series = FigureSeries(
            figure="X", title="t", x_label="x", y_label="y",
            x_values=[1, 2],
            series={"A": [1.0, 5.0], "B": [2.0, 1.0]},
        )
        assert winner_summary(series) == {"A": 1, "B": 1}


class TestAblations:
    """The ablation panels over a tiny copy of the ``ablations`` grid."""

    @pytest.fixture(scope="class")
    def records(self):
        local = WorkloadCache()
        workloads = [
            tiny(algorithm, network=network)
            for network in ("CA", "AU", "NA")
            for algorithm in ("LBC", "LBC-noplb", "LBC-lazy", "CE")
        ]
        workloads += [
            tiny("LBC", network=network, distance_backend="astar+landmarks")
            for network in ("CA", "AU", "NA")
        ]
        workloads += [
            tiny("CE", network="NA", buffer_bytes=kib * 1024) for kib in (64, 1024)
        ]
        return [run_workload(workload, local) for workload in workloads]

    def test_plb_ablation_structure(self, records):
        series = figure_series(PANELS["Abl-plb"], records)
        assert set(series.series) == {"LBC", "LBC-noplb"}
        assert series.x_values == ["CA", "AU", "NA"]

    def test_lazy_ablation_lazy_never_worse_overall(self, records):
        series = figure_series(PANELS["Abl-lazy"], records)
        total_eager = sum(series.series["LBC"])
        total_lazy = sum(series.series["LBC-lazy"])
        assert total_lazy <= total_eager * 1.2

    def test_heuristic_ablation(self, records):
        # ALT bounds through the engine backend: Abl-backend's CA point.
        series = figure_series(PANELS["Abl-backend"], records)
        assert set(series.series) == {"dijkstra", "astar+landmarks"}
        index = series.x_values.index("CA")
        euclid = series.series["dijkstra"][index]
        alt = series.series["astar+landmarks"][index]
        assert alt <= euclid

    def test_buffer_ablation_monotone(self, records):
        series = figure_series(PANELS["Abl-buf"], records)
        assert series.x_values == [64 * 1024, 256 * 1024, 1024 * 1024]
        small, _, big = series.series["CE"]
        assert big <= small
