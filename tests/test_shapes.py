"""Unit tests for the figure shape-verification predicates."""


from repro.bench.figures import FigureSeries
from repro.bench.shapes import (
    check_flat,
    check_non_decreasing,
    check_pointwise_leq,
    check_ratio_at,
    check_slowing_growth,
    check_winner_at,
    verify_all,
    verify_fig4a,
    verify_fig4c,
    verify_fig5a,
)


def make_series(figure, x_values, series, x_label="x"):
    return FigureSeries(
        figure=figure,
        title=figure,
        x_label=x_label,
        y_label="y",
        x_values=list(x_values),
        series={k: list(v) for k, v in series.items()},
    )


class TestPredicates:
    def test_non_decreasing_pass(self):
        s = make_series("F", [1, 2, 3], {"A": [1.0, 2.0, 3.0]})
        assert check_non_decreasing(s, "A").passed

    def test_non_decreasing_tolerates_small_dips(self):
        s = make_series("F", [1, 2, 3], {"A": [1.0, 0.95, 3.0]})
        assert check_non_decreasing(s, "A").passed

    def test_non_decreasing_fails_on_collapse(self):
        s = make_series("F", [1, 2, 3], {"A": [3.0, 1.0, 0.5]})
        assert not check_non_decreasing(s, "A").passed

    def test_flat_pass_and_fail(self):
        s = make_series("F", [1, 2], {"A": [1.0, 1.5], "B": [1.0, 10.0]})
        assert check_flat(s, "A").passed
        assert not check_flat(s, "B").passed

    def test_pointwise_leq(self):
        s = make_series("F", [1, 2], {"A": [1.0, 2.0], "B": [1.5, 2.5]})
        assert check_pointwise_leq(s, "A", "B").passed
        assert not check_pointwise_leq(s, "B", "A").passed

    def test_pointwise_leq_slack(self):
        s = make_series("F", [1], {"A": [1.05], "B": [1.0]})
        assert check_pointwise_leq(s, "A", "B", slack=0.10).passed
        assert not check_pointwise_leq(s, "A", "B", slack=0.01).passed

    def test_winner_at(self):
        s = make_series("F", ["CA", "NA"], {"A": [1.0, 5.0], "B": [2.0, 3.0]})
        assert check_winner_at(s, "CA", "A").passed
        assert check_winner_at(s, "NA", "B").passed
        assert not check_winner_at(s, "NA", "A").passed

    def test_ratio_at(self):
        s = make_series("F", ["NA"], {"CE": [100.0], "LBC": [20.0]})
        assert check_ratio_at(s, "NA", "CE", "LBC", at_least=4.0).passed
        assert not check_ratio_at(s, "NA", "CE", "LBC", at_least=6.0).passed

    def test_slowing_growth(self):
        fast_then_slow = make_series(
            "F", [1, 2, 3, 4], {"A": [0.0, 10.0, 15.0, 17.0]}
        )
        assert check_slowing_growth(fast_then_slow, "A").passed
        accelerating = make_series(
            "F", [1, 2, 3, 4], {"A": [0.0, 1.0, 5.0, 20.0]}
        )
        assert not check_slowing_growth(accelerating, "A").passed

    def test_slowing_growth_needs_points(self):
        s = make_series("F", [1, 2], {"A": [1.0, 2.0]})
        assert not check_slowing_growth(s, "A").passed


class TestFigureVerifiers:
    def test_fig4a_paperlike_passes(self):
        s = make_series(
            "Fig4a",
            [2, 4, 8, 15],
            {
                "CE": [0.04, 0.12, 0.22, 0.24],
                "EDC": [0.07, 0.15, 0.23, 0.25],
                "LBC": [0.05, 0.12, 0.22, 0.25],
            },
            x_label="|Q|",
        )
        checks = verify_fig4a(s)
        assert all(c.passed for c in checks)

    def test_fig4c_detects_delta_effect(self):
        good = make_series(
            "Fig4c",
            ["CA", "AU", "NA"],
            {"CE": [0.2, 0.09, 0.12], "EDC": [0.42, 0.11, 0.15],
             "LBC": [0.37, 0.10, 0.12]},
        )
        assert all(c.passed for c in verify_fig4c(good))
        flipped = make_series(
            "Fig4c",
            ["CA", "AU", "NA"],
            {"CE": [0.5, 0.09, 0.12], "EDC": [0.3, 0.11, 0.15],
             "LBC": [0.2, 0.10, 0.12]},
        )
        assert not all(c.passed for c in verify_fig4c(flipped))

    def test_fig5a_headline_factor(self):
        s = make_series(
            "Fig5a",
            ["CA", "AU", "NA"],
            {"CE": [4.6, 14.8, 131.0], "EDC": [4.4, 15.0, 38.6],
             "LBC": [4.4, 12.6, 29.8]},
        )
        checks = verify_fig5a(s)
        assert all(c.passed for c in checks)

    def test_verify_all_skips_missing_figures(self):
        s = make_series(
            "Fig5a",
            ["CA", "NA"],
            {"CE": [4.0, 100.0], "EDC": [4.0, 40.0], "LBC": [4.0, 30.0]},
        )
        checks = verify_all({"Fig5a": s})
        assert checks
        assert all(c.figure == "Fig5a" for c in checks)

    def test_verify_all_empty(self):
        assert verify_all({}) == []

    def test_check_str_format(self):
        s = make_series("F", [1], {"A": [1.0], "B": [2.0]})
        check = check_winner_at(s, 1, "A")
        text = str(check)
        assert text.startswith("[PASS]")
        assert "F" in text


class TestMeasuredShapes:
    """The encoded claims hold on an actually-measured (small) run."""

    def test_fig5a_claims_on_real_measurement(self):
        """A 2-draw run satisfies the ordering claims; the headline
        CE/LBC >= 2x factor needs more draws (some query draws barely
        stress CE), so here we assert a softer 1.2x."""
        from repro.bench import WorkloadCache, run_workload
        from repro.bench.figures import PAPER_PANELS, figure_series
        from repro.bench.shapes import (
            check_non_decreasing,
            check_ratio_at,
            check_winner_at,
            verify_fig5c,
        )
        from repro.bench.suite import QueryWorkload

        cache = WorkloadCache()
        records = [
            run_workload(
                QueryWorkload(
                    workload_id=f"query/{algorithm}/{network}",
                    algorithm=algorithm,
                    network=network,
                    scale=0.10,
                    omega=0.5,
                    query_count=4,
                    trials=2,
                    repeats=1,
                ),
                cache,
            )
            for network in ("CA", "AU", "NA")
            for algorithm in ("CE", "EDC", "LBC")
        ]
        panels = {panel.figure: panel for panel in PAPER_PANELS}
        pages = figure_series(panels["Fig5a"], records)
        initial = figure_series(panels["Fig5c"], records)
        for check in (
            check_non_decreasing(pages, "CE"),
            check_winner_at(pages, "NA", "LBC"),
            check_ratio_at(pages, "NA", "CE", "LBC", at_least=1.2),
        ):
            assert check.passed, str(check)
        for check in verify_fig5c(initial):
            assert check.passed, str(check)
