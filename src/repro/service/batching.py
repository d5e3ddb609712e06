"""Grouping in-flight queries into conflict-free batches.

The :class:`BatchPlanner` places requests whose query points overlap
(transitively) in one :class:`BatchPlan`; :func:`execute_plan` runs its
units in arrival order on the shared engine, so a later unit finds the
pooled wavefronts and memoised distances an earlier one left behind.
That reuse is the engine's own; the batch adds one sharing mechanism of
its own, **dedupe**: requests with the same algorithm and the same
*set* of query points collapse into one :class:`ExecutionUnit`.  A
follower's answer is the canonical answer with its distance columns
permuted into the follower's query order, with no engine call — the
skyline is invariant under permuting and duplicating dimensions.

Each unit runs under its canonical request's span, so every node a
batch settles and every page it reads is billed to exactly one request,
as the paper charges cost per query: a follower's stats bill zero and
name their canonical request (``extras["deduped_of"]``).

Batches also double as the service's *conflict-isolation* domain: the
scheduler never runs two batches with overlapping query points
concurrently (see ``QueryService``), which is what makes sharing
pooled expanders across threads safe — see the concurrency contract
in :mod:`repro.engine.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from repro.core.result import SkylinePoint, SkylineResult
from repro.core.stats import SPAN_COUNTER_FIELDS
from repro.engine import location_key
from repro.network.graph import NetworkLocation
from repro.obs import Span, tracing


@dataclass
class ServiceRequest:
    """One client query as the service tracks it."""

    request_id: int
    algorithm: str
    queries: list[NetworkLocation]
    deadline: float | None = None  # time.monotonic() deadline, None = none
    enqueued_at: float = 0.0  # time.monotonic() at admission
    span: Span | None = None  # root span opened at admission

    def key_set(self) -> frozenset:
        """The request's query points as pool-identity keys."""
        return frozenset(location_key(q) for q in self.queries)


@dataclass
class ExecutionUnit:
    """One algorithm run serving one or more identical requests."""

    canonical: ServiceRequest
    followers: list[ServiceRequest] = field(default_factory=list)

    @property
    def requests(self) -> list[ServiceRequest]:
        return [self.canonical, *self.followers]


@dataclass
class BatchPlan:
    """A set of executions that share (or may share) wavefronts."""

    units: list[ExecutionUnit]

    def key_union(self) -> frozenset:
        """Every query-point key the batch touches (conflict domain)."""
        keys: set = set()
        for unit in self.units:
            keys |= unit.canonical.key_set()
        return frozenset(keys)

    @property
    def request_count(self) -> int:
        return sum(len(unit.requests) for unit in self.units)

    def split_expired(
        self, now: float
    ) -> tuple[list[ServiceRequest], "BatchPlan"]:
        """The requests past their deadline at ``now``, and the plan of
        the rest.

        A unit whose canonical request expired runs under its first
        live follower, so a live request pays for the work; a unit with
        no live request drops out.
        """
        expired: list[ServiceRequest] = []
        units: list[ExecutionUnit] = []
        for unit in self.units:
            live = []
            for request in unit.requests:
                if request.deadline is not None and now > request.deadline:
                    expired.append(request)
                else:
                    live.append(request)
            if live:
                units.append(ExecutionUnit(live[0], live[1:]))
        return expired, BatchPlan(units)


class BatchPlanner:
    """Turns a drained slice of the queue into conflict-free batches."""

    def plan(self, requests: list[ServiceRequest]) -> list[BatchPlan]:
        """Group requests into batches of overlapping query points.

        Requests whose key sets are connected (transitively, through
        shared query points) land in the same batch; within a batch,
        identical (algorithm, key-set) requests collapse into one
        execution unit, and units keep their arrival order.
        """
        if not requests:
            return []
        # Union-find over requests, merging on shared query-point keys.
        parent = list(range(len(requests)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        owner_of_key: dict[tuple, int] = {}
        for i, request in enumerate(requests):
            for key in request.key_set():
                if key in owner_of_key:
                    a, b = find(i), find(owner_of_key[key])
                    if a != b:
                        parent[a] = b
                else:
                    owner_of_key[key] = i

        groups: dict[int, list[ServiceRequest]] = {}
        for i, request in enumerate(requests):
            groups.setdefault(find(i), []).append(request)

        plans = []
        for _, members in sorted(groups.items()):
            plans.append(BatchPlan(units=self._units_for(members)))
        return plans

    @staticmethod
    def _units_for(members: list[ServiceRequest]) -> list[ExecutionUnit]:
        units: dict[tuple, ExecutionUnit] = {}
        for request in members:
            signature = (request.algorithm, request.key_set())
            unit = units.get(signature)
            if unit is None:
                units[signature] = ExecutionUnit(canonical=request)
            else:
                unit.followers.append(request)
        return list(units.values())


def execute_plan(workspace, plan: BatchPlan, algorithms) -> dict:
    """Run one batch under a read snapshot; results per request id.

    ``algorithms`` maps algorithm name to a zero-argument factory (the
    class itself works).  Returns ``{request_id: SkylineResult |
    Exception}`` — a unit whose execution raises fails only its own
    requests, not the whole batch.
    """
    outcomes: dict[int, object] = {}
    with workspace.reading():
        for unit in plan.units:
            request = unit.canonical
            # Re-enter the request's admission span on this worker
            # thread: the algorithm's query.<name> span (and all page /
            # settle counters below it) become its children.
            with tracing.activate(request.span):
                try:
                    algorithm = algorithms[request.algorithm]()
                    result = algorithm.run(workspace, list(request.queries))
                except Exception as exc:  # typed per-unit failure
                    for member in unit.requests:
                        outcomes[member.request_id] = exc
                    continue
            outcomes[request.request_id] = result
            for follower in unit.followers:
                outcomes[follower.request_id] = _follower_result(
                    result, request, follower
                )
    return outcomes


def _follower_result(
    result: SkylineResult, canonical: ServiceRequest, follower: ServiceRequest
) -> SkylineResult:
    """A follower's view of a deduped result, in its own query order.

    The skyline *set* is invariant under permuting and duplicating
    dimensions, so each vector's distance columns are picked from the
    canonical's by query-point key; the attributes follow unchanged.
    The follower ran nothing, so its stats bill zero for every cost
    counter and name the canonical request that paid for the answer.
    """
    column: dict[tuple, int] = {}
    for i, query in enumerate(canonical.queries):
        column.setdefault(location_key(query), i)
    order = [column[location_key(query)] for query in follower.queries]
    width = len(canonical.queries)
    points = [
        SkylinePoint(
            obj=point.obj,
            vector=tuple(point.vector[i] for i in order) + point.vector[width:],
        )
        for point in result.points
    ]
    stats = dc_replace(
        result.stats,
        query_count=len(follower.queries),
        extras={
            **result.stats.extras,
            "deduped": 1,
            "deduped_of": canonical.request_id,
        },
        **dict.fromkeys(SPAN_COUNTER_FIELDS, 0),
    )
    return SkylineResult(points=points, stats=stats, trace=result.trace)
