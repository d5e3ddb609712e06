"""Common machinery shared by the skyline algorithms.

Every algorithm subclasses :class:`SkylineAlgorithm` and implements
``_execute``; the base class handles query validation, timing, and the
telemetry root span whose counters *are* the per-query stats.

Accounting model: ``run`` opens one root tracing span per query
(:mod:`repro.obs.tracing`).  Every instrumented event — a buffer-pool
miss, a settled node, a memo probe — charges the innermost span of the
executing thread, and the root's recursive totals become
:class:`~repro.core.stats.QueryStats`.  Single-threaded this equals the
old before/after counter-delta scheme exactly; under the concurrent
service it is strictly better, because another worker's page misses can
no longer leak into this query's delta.  It also makes the
reconciliation invariant structural: span sums and stats totals agree
because they are the same numbers.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

from repro.columnar.store import SkylineBlock
from repro.core.query import Workspace
from repro.core.result import SkylinePoint, SkylineResult
from repro.core.stats import QueryStats
from repro.network.graph import NetworkLocation
from repro.obs import tracing
from repro.skyline.dominance import dominates


class SkylineAlgorithm(ABC):
    """A multi-source network skyline query processor."""

    name: str = "abstract"

    def run(
        self, workspace: Workspace, queries: list[NetworkLocation]
    ) -> SkylineResult:
        """Answer one query, returning points and cost statistics.

        Stats are read off this run's root tracing span, so workspaces
        can be reused freely; call :meth:`Workspace.reset_io`
        beforehand for cold-buffer runs.
        """
        workspace.validate_queries(queries)
        stats = QueryStats(
            algorithm=self.name,
            query_count=len(queries),
            object_count=len(workspace.objects),
        )
        engine = workspace.engine

        with tracing.span(
            f"query.{self.name}",
            algorithm=self.name,
            query_count=len(queries),
        ) as root:
            started = time.perf_counter()
            timer = _ResponseTimer(
                started,
                # Children attach to the root at creation, so live
                # totals include spans still open when the first point
                # is confirmed mid-execution.
                pages_probe=lambda: (
                    int(root.total("network_pages")),
                    int(
                        root.total("index_pages") + root.total("middle_pages")
                    ),
                ),
            )
            points = self._execute(workspace, list(queries), stats, timer)
            finished = time.perf_counter()

        stats.skyline_count = len(points)
        stats.trace_id = root.trace_id
        if engine is not None:
            stats.distance_backend = engine.backend_name
        totals = root.totals()
        stats.nodes_settled = int(totals.get("nodes_settled", 0))
        stats.distance_computations = int(totals.get("distance_computations", 0))
        stats.lb_expansions = int(totals.get("lb_expansions", 0))
        stats.engine_hits = int(totals.get("engine_hits", 0))
        stats.engine_misses = int(totals.get("engine_misses", 0))
        stats.engine_evictions = int(totals.get("engine_evictions", 0))
        stats.network_pages = int(totals.get("network_pages", 0))
        stats.index_pages = int(totals.get("index_pages", 0))
        stats.middle_pages = int(totals.get("middle_pages", 0))
        stats.oracle_pages = int(totals.get("oracle_pages", 0))
        stats.oracle_nodes_settled = int(totals.get("oracle_nodes_settled", 0))
        stats.oracle_label_entries = int(totals.get("oracle_label_entries", 0))
        stats.oracle_fallbacks = int(totals.get("oracle_fallbacks", 0))
        stats.total_response_s = finished - started
        stats.initial_response_s = timer.first_response(default=stats.total_response_s)
        net_at_first, idx_at_first = timer.pages_at_first(
            default=(stats.network_pages, stats.index_pages + stats.middle_pages)
        )
        stats.initial_network_pages = net_at_first
        stats.initial_index_pages = idx_at_first
        root.attributes["skyline_count"] = len(points)
        return SkylineResult(points=points, stats=stats, trace=root)

    @abstractmethod
    def _execute(
        self,
        workspace: Workspace,
        queries: list[NetworkLocation],
        stats: QueryStats,
        timer: "_ResponseTimer",
    ) -> list[SkylinePoint]:
        """Algorithm body: return the skyline points in discovery order."""


class _ResponseTimer:
    """Records when (and at what I/O cost) the first point is confirmed."""

    def __init__(self, started: float, pages_probe=None) -> None:
        self._started = started
        self._first: float | None = None
        self._pages_probe = pages_probe
        self._pages_at_first: tuple[int, int] | None = None

    def mark_first_result(self) -> None:
        """Call when a skyline point is first reported to the user."""
        if self._first is None:
            self._first = time.perf_counter()
            if self._pages_probe is not None:
                self._pages_at_first = self._pages_probe()

    def first_response(self, default: float) -> float:
        if self._first is None:
            return default
        return self._first - self._started

    def pages_at_first(self, default: tuple[int, int]) -> tuple[int, int]:
        if self._pages_at_first is None:
            return default
        return self._pages_at_first


def insert_skyline_point(
    skyline: list[SkylinePoint], new_point: SkylinePoint
) -> bool:
    """Add a confirmed point, evicting members it dominates.

    With continuous distances eviction never fires, but exact ties
    (co-located objects, symmetric networks) can confirm a point before
    a later point that dominates it arrives — dominance is transitive,
    so pruning done with the evicted point remains sound, and evicting
    keeps the final answer exactly the skyline.  Returns whether any
    member was evicted.
    """
    new_vector = new_point.vector
    kept = [p for p in skyline if not dominates(new_vector, p.vector)]
    evicted = len(kept) != len(skyline)
    skyline[:] = kept
    skyline.append(new_point)
    return evicted


def confirm_skyline_point(
    skyline: list[SkylinePoint], sky: SkylineBlock, new_point: SkylinePoint
) -> None:
    """:func:`insert_skyline_point`, keeping ``sky`` the mirror of ``skyline``.

    The new vector is appended to the block's index in place; only an
    eviction rebuilds it.
    """
    if insert_skyline_point(skyline, new_point):
        sky.rebuild(p.vector for p in skyline)
    else:
        sky.append(new_point.vector)
