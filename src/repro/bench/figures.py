"""Figure views: the paper's panels and the ablation tables over records.

A figure is declared, never measured.  Each :class:`Panel` names the
workload parameter on its x axis, the metric it plots, the parameters
it holds fixed, and the parameter that names each series;
:func:`figure_series` pivots an artifact's records into a
:class:`FigureSeries`, and :func:`format_series` prints it shaped like
the paper's plot.  Panels bind to suites by name (:data:`FIGURES`), so
a record of another suite — ``full``'s CA row, say — never feeds a
partial figure.

Metrics reproduce the paper's per-query means from a record's sums
over its ``trials`` draws:

* a counter → counter ÷ trials;
* ``candidate_ratio`` → candidate_count ÷ object_count (|C|/|D|);
* ``modeled_total_s`` / ``modeled_initial_s`` → mean response time
  (total, or to the first skyline point) + mean pages read by then ×
  :attr:`QueryStats.IO_PENALTY_S`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stats import QueryStats
from repro.datasets.presets import DENSITY_ORDER


@dataclass
class FigureSeries:
    """The data behind one reproduced figure."""

    figure: str
    title: str
    x_label: str
    y_label: str
    x_values: list = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)


@dataclass(frozen=True)
class Panel:
    """One figure panel: a declared view over a suite's records.

    ``fixed`` maps a parameter to its required value; a tuple value
    admits any of its members.
    """

    figure: str
    title: str
    x: str
    metric: str
    fixed: dict
    series: str = "algorithm"


X_LABELS = {
    "query_count": "|Q|",
    "omega": "ω",
    "network": "network",
    "buffer_bytes": "buffer bytes",
}

_MODELED = "seconds (wall + modeled I/O)"
Y_LABELS = {
    "candidate_ratio": "|C|/|D|",
    "network_pages": "network pages",
    "nodes_settled": "nodes settled",
    "modeled_total_s": _MODELED,
    "modeled_initial_s": _MODELED,
}


def panel_value(record: dict, metric: str) -> float:
    """A record's per-query mean of ``metric`` (see the module doc)."""
    counters = record["counters"]
    trials = record["params"]["trials"]
    if metric == "candidate_ratio":
        return counters["candidate_count"] / counters["object_count"]
    if metric == "modeled_total_s":
        seconds = record["timing_s"]["p50"]
        pages = counters["total_pages"]
    elif metric == "modeled_initial_s":
        seconds = record["initial_timing_s"]["p50"]
        pages = (
            counters["initial_network_pages"] + counters["initial_index_pages"]
        )
    else:
        return counters[metric] / trials
    return (seconds + pages * QueryStats.IO_PENALTY_S) / trials


def _admits(expected, actual) -> bool:
    if isinstance(expected, tuple):
        return actual in expected
    return actual == expected


def _x_order(value):
    # Networks plot sparse → dense, as in the paper.
    return DENSITY_ORDER.index(value) if value in DENSITY_ORDER else value


def figure_series(panel: Panel, records: list[dict]) -> FigureSeries:
    """Pivot records into the panel's series.

    Raises ``ValueError`` unless every (x, series) cell resolves to
    exactly one query record.
    """
    cells: dict[tuple, float] = {}
    for record in records:
        params = record["params"]
        if record["kind"] != "query" or not all(
            _admits(value, params[key]) for key, value in panel.fixed.items()
        ):
            continue
        cell = (params[panel.x], params[panel.series])
        if cell in cells:
            raise ValueError(f"{panel.figure}: two records for cell {cell}")
        cells[cell] = panel_value(record, panel.metric)
    if not cells:
        raise ValueError(f"{panel.figure}: no record matches {panel.fixed}")
    x_values = sorted({x for x, _ in cells}, key=_x_order)
    names = sorted({name for _, name in cells})
    for x in x_values:
        for name in names:
            if (x, name) not in cells:
                raise ValueError(f"{panel.figure}: no record for cell {(x, name)}")
    return FigureSeries(
        figure=panel.figure,
        title=panel.title,
        x_label=X_LABELS[panel.x],
        y_label=Y_LABELS[panel.metric],
        x_values=x_values,
        series={name: [cells[(x, name)] for x in x_values] for name in names},
    )


# ----------------------------------------------------------------------
# The paper's panels (Section 6): three sweeps, twelve views
# ----------------------------------------------------------------------
_SWEEPS = {
    # x parameter: (how titles name it, the parameters held fixed)
    "query_count": ("|Q|", {"network": "NA", "omega": 0.5}),
    "omega": ("ω", {"network": "NA", "query_count": 4}),
    "network": ("network density", {"omega": 0.5, "query_count": 4}),
}
_METRIC_TITLES = {
    "candidate_ratio": "Candidate ratio",
    "network_pages": "Network disk pages",
    "modeled_total_s": "Total response time",
    "modeled_initial_s": "Initial response time",
}

PAPER_PANELS = tuple(
    Panel(
        figure,
        f"{_METRIC_TITLES[metric]} vs {_SWEEPS[x][0]}",
        x,
        metric,
        _SWEEPS[x][1],
    )
    for figure, x, metric in (
        ("Fig4a", "query_count", "candidate_ratio"),
        ("Fig4b", "omega", "candidate_ratio"),
        ("Fig4c", "network", "candidate_ratio"),
        ("Fig5a", "network", "network_pages"),
        ("Fig5b", "network", "modeled_total_s"),
        ("Fig5c", "network", "modeled_initial_s"),
        ("Fig6a", "query_count", "network_pages"),
        ("Fig6b", "query_count", "modeled_total_s"),
        ("Fig6c", "query_count", "modeled_initial_s"),
        ("Fig6d", "omega", "network_pages"),
        ("Fig6e", "omega", "modeled_total_s"),
        ("Fig6f", "omega", "modeled_initial_s"),
    )
)

# ----------------------------------------------------------------------
# The ablation tables
# ----------------------------------------------------------------------
ABLATION_PANELS = (
    Panel(
        "Abl-plb",
        "LBC with vs without path-distance lower bounds",
        "network",
        "nodes_settled",
        {"algorithm": ("LBC", "LBC-noplb"), "distance_backend": "dijkstra"},
    ),
    Panel(
        "Abl-lazy",
        "LBC vs LBC-lazy (lazily-bounded source dimension)",
        "network",
        "nodes_settled",
        {"algorithm": ("LBC", "LBC-lazy"), "distance_backend": "dijkstra"},
    ),
    Panel(
        "Abl-buf",
        "CE network pages vs buffer size (NA)",
        "buffer_bytes",
        "network_pages",
        {"algorithm": "CE", "network": "NA"},
    ),
    Panel(
        "Abl-backend",
        "Engine backend: euclidean A* vs astar+landmarks (LBC)",
        "network",
        "nodes_settled",
        {"algorithm": "LBC"},
        series="distance_backend",
    ),
)

FIGURES: dict[str, tuple[Panel, ...]] = {
    "paper": PAPER_PANELS,
    "paper-quick": PAPER_PANELS,
    "ablations": ABLATION_PANELS,
}
"""The panels each suite renders, by suite name."""


def suite_figures(artifact: dict) -> dict[str, FigureSeries]:
    """Every panel bound to the artifact's suite, keyed by figure id."""
    return {
        panel.figure: figure_series(panel, artifact["benchmarks"])
        for panel in FIGURES.get(artifact["suite"], ())
    }


def format_series(series: FigureSeries, precision: int = 4) -> str:
    """Render a figure's data as an aligned text table."""
    names = sorted(series.series)
    header = [series.x_label, *names]
    rows: list[list[str]] = []
    for i, x in enumerate(series.x_values):
        row = [_fmt(x, precision)]
        for name in names:
            row.append(_fmt(series.series[name][i], precision))
        rows.append(row)
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    lines = [
        f"{series.figure}: {series.title}  [y = {series.y_label}]",
        "  ".join(h.rjust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def winner_summary(series: FigureSeries) -> dict[str, int]:
    """How many x-points each algorithm wins (minimises the metric)."""
    wins: dict[str, int] = {name: 0 for name in series.series}
    for i in range(len(series.x_values)):
        best = min(series.series, key=lambda name: series.series[name][i])
        wins[best] += 1
    return wins
