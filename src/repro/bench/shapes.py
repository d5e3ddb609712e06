"""Machine-checked figure shapes.

EXPERIMENTS.md argues the reproduction preserves the paper's *shapes* —
who wins, what grows, where trends bend.  This module turns those prose
claims into predicates over :class:`FigureSeries`, so

    repro bench --suite paper

measures the figure grid and prints PASS/FAIL per claim instead of
asking a reader to eyeball tables (a failed claim exits 1; CI gates
``paper-quick``).  The checks are deliberately tolerant (averages over
few draws are noisy); each failure names the series and values
involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bench.figures import FigureSeries


@dataclass(frozen=True)
class ShapeCheck:
    """One verified claim about a figure."""

    figure: str
    claim: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.figure}: {self.claim} — {self.detail}"


def _fmt(values: Sequence[float]) -> str:
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


# ----------------------------------------------------------------------
# Predicate helpers (each returns a ShapeCheck)
# ----------------------------------------------------------------------
def check_non_decreasing(
    series: FigureSeries, name: str, slack: float = 0.10
) -> ShapeCheck:
    """The named series grows along x (within relative slack)."""
    values = series.series[name]
    ok = all(
        b >= a * (1 - slack) for a, b in zip(values, values[1:])
    ) and values[-1] >= values[0]
    return ShapeCheck(
        figure=series.figure,
        claim=f"{name} grows with {series.x_label}",
        passed=ok,
        detail=_fmt(values),
    )


def check_flat(series: FigureSeries, name: str, tolerance: float = 2.0) -> ShapeCheck:
    """The named series stays within a max/min factor of ``tolerance``."""
    values = [v for v in series.series[name] if v > 0]
    ok = bool(values) and max(values) <= tolerance * min(values)
    return ShapeCheck(
        figure=series.figure,
        claim=f"{name} roughly flat in {series.x_label} (factor <= {tolerance})",
        passed=ok,
        detail=_fmt(series.series[name]),
    )


def check_pointwise_leq(
    series: FigureSeries, smaller: str, larger: str, slack: float = 0.10
) -> ShapeCheck:
    """``smaller``'s series never exceeds ``larger``'s (with slack)."""
    a = series.series[smaller]
    b = series.series[larger]
    ok = all(x <= y * (1 + slack) + 1e-12 for x, y in zip(a, b))
    return ShapeCheck(
        figure=series.figure,
        claim=f"{smaller} <= {larger} at every {series.x_label}",
        passed=ok,
        detail=f"{smaller}={_fmt(a)} vs {larger}={_fmt(b)}",
    )


def check_winner_at(
    series: FigureSeries, x, winner: str
) -> ShapeCheck:
    """``winner`` has the smallest value at x-position ``x``."""
    index = series.x_values.index(x)
    values = {name: series.series[name][index] for name in series.series}
    best = min(values, key=values.get)
    return ShapeCheck(
        figure=series.figure,
        claim=f"{winner} wins at {series.x_label}={x}",
        passed=best == winner,
        detail=", ".join(f"{k}={v:.4g}" for k, v in sorted(values.items())),
    )


def check_ratio_at(
    series: FigureSeries, x, numerator: str, denominator: str, at_least: float
) -> ShapeCheck:
    """numerator/denominator >= at_least at x (a headline factor)."""
    index = series.x_values.index(x)
    num = series.series[numerator][index]
    den = series.series[denominator][index]
    ratio = num / den if den else float("inf")
    return ShapeCheck(
        figure=series.figure,
        claim=(
            f"{numerator}/{denominator} >= {at_least} at "
            f"{series.x_label}={x}"
        ),
        passed=ratio >= at_least,
        detail=f"ratio = {ratio:.2f}",
    )


def check_slowing_growth(series: FigureSeries, name: str) -> ShapeCheck:
    """Later growth increments are smaller than earlier ones (per unit x).

    Verifies the paper's 'increases at a slowing rate' reading of
    Figure 4(a) by comparing the average slope of the first half of the
    sweep against the second half.
    """
    xs = series.x_values
    values = series.series[name]
    if len(values) < 3 or not all(isinstance(x, (int, float)) for x in xs):
        return ShapeCheck(
            series.figure, f"{name} growth slows", False, "not enough points"
        )
    mid = len(values) // 2
    early = (values[mid] - values[0]) / (xs[mid] - xs[0])
    late = (values[-1] - values[mid]) / (xs[-1] - xs[mid])
    return ShapeCheck(
        figure=series.figure,
        claim=f"{name} grows at a slowing rate",
        passed=late <= early + 1e-12,
        detail=f"early slope {early:.4g}, late slope {late:.4g}",
    )


# ----------------------------------------------------------------------
# The paper's claims, figure by figure
# ----------------------------------------------------------------------
def verify_fig4a(series: FigureSeries) -> list[ShapeCheck]:
    checks = [check_slowing_growth(series, name) for name in sorted(series.series)]
    checks.append(check_pointwise_leq(series, "LBC", "EDC"))
    return checks


def verify_fig4b(series: FigureSeries) -> list[ShapeCheck]:
    return [check_flat(series, name) for name in sorted(series.series)]


def verify_fig4c(series: FigureSeries) -> list[ShapeCheck]:
    # EDC's filtering efficiency collapses on the sparse network.
    index = series.x_values.index("CA")
    edc = series.series["EDC"][index]
    ce = series.series["CE"][index]
    return [
        ShapeCheck(
            figure=series.figure,
            claim="EDC worse than CE on CA (the δ effect)",
            passed=edc >= ce,
            detail=f"EDC={edc:.4g}, CE={ce:.4g}",
        ),
        check_pointwise_leq(series, "LBC", "EDC"),
    ]


def verify_fig5a(series: FigureSeries) -> list[ShapeCheck]:
    return [
        check_non_decreasing(series, "CE"),
        check_non_decreasing(series, "LBC", slack=0.25),
        check_winner_at(series, "NA", "LBC"),
        check_ratio_at(series, "NA", "CE", "LBC", at_least=2.0),
    ]


def verify_fig5c(series: FigureSeries) -> list[ShapeCheck]:
    return [
        check_winner_at(series, x, "LBC") for x in series.x_values
    ]


def verify_fig6a(series: FigureSeries) -> list[ShapeCheck]:
    return [
        check_non_decreasing(series, "CE", slack=0.25),
        check_pointwise_leq(series, "LBC", "CE"),
        check_winner_at(series, series.x_values[-1], "LBC"),
    ]


def verify_fig6c(series: FigureSeries) -> list[ShapeCheck]:
    checks = [check_flat(series, "LBC", tolerance=5.0)]
    last = series.x_values[-1]
    first = series.x_values[0]
    for name in ("CE", "EDC"):
        i0, i1 = series.x_values.index(first), series.x_values.index(last)
        grew = series.series[name][i1] > series.series[name][i0]
        checks.append(
            ShapeCheck(
                figure=series.figure,
                claim=f"{name} initial response grows with |Q|",
                passed=grew,
                detail=_fmt(series.series[name]),
            )
        )
    return checks


def verify_fig6d(series: FigureSeries) -> list[ShapeCheck]:
    return [check_flat(series, name, tolerance=2.5) for name in sorted(series.series)]


def verify_all(figures: dict[str, FigureSeries]) -> list[ShapeCheck]:
    """Run every encoded claim against the provided figures.

    ``figures`` maps figure ids ("Fig4a", ...) to their series; missing
    figures are skipped silently so partial runs still verify.
    """
    verifiers = {
        "Fig4a": verify_fig4a,
        "Fig4b": verify_fig4b,
        "Fig4c": verify_fig4c,
        "Fig5a": verify_fig5a,
        "Fig5c": verify_fig5c,
        "Fig6a": verify_fig6a,
        "Fig6c": verify_fig6c,
        "Fig6d": verify_fig6d,
    }
    checks: list[ShapeCheck] = []
    for figure_id, verify in verifiers.items():
        series = figures.get(figure_id)
        if series is not None:
            checks.extend(verify(series))
    return checks
