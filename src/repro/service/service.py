"""The concurrent query-serving front door.

A :class:`QueryService` turns one :class:`~repro.core.query.Workspace`
into a long-running server:

* **Admission control** — a bounded request queue.  When it is full,
  :meth:`submit` raises :class:`~repro.service.errors.Overloaded`
  immediately instead of queuing unboundedly; the shed is counted and
  surfaced in ``/statsz``.  Bounded queues are what keep tail latency
  finite under overload.
* **A worker pool** — N threads drain the queue.  A worker that finds
  requests queued takes what is there, up to ``max_batch``, in one
  critical section, and plans the slice with the
  :class:`~repro.service.batching.BatchPlanner` at once: nothing
  lingers for later arrivals.  A burst that queued before a worker
  was scheduled, or while every worker was busy, becomes one batch; a
  lone request runs alone, without waiting.
* **Batching with conflict isolation** — a batch's plans run one after
  another on the worker that took it; plans sharing query points
  with an in-flight plan wait their turn (the engine's pooled
  wavefronts are single-driver; see the concurrency contract in
  :mod:`repro.engine.engine`); disjoint plans of different batches run
  in parallel under the workspace's shared read lock.
* **Deadlines** — every request carries one (default
  ``default_timeout_s``), checked as each plan starts, after its key
  wait; expired requests fail with
  :class:`~repro.service.errors.DeadlineExceeded` instead of occupying
  a worker.  A unit whose canonical request expired runs under its
  first live follower, which then pays for the work.
* **Snapshot-isolated mutations** — :meth:`update_edge_length`,
  :meth:`add_object`, :meth:`remove_object` take the workspace's write
  lock, so they wait for in-flight queries, apply atomically, and
  invalidate the engine exactly once.
* **One completion record per query** — every finished request becomes
  one immutable :class:`~repro.obs.events.Completion`, fanned out to
  three sinks: the wide-event log (when configured), the
  :class:`~repro.insight.live.InsightHub` (the only latency aggregator:
  ``/statsz``, ``/sloz`` and ``/metricsz`` read its sketches) and the
  flight-recorder ring (the only store of retained traces:
  ``/slowlogz`` and ``--trace-dir`` read it).  A sink that raises is
  counted in ``/statsz`` ``telemetry_errors``; the client is answered
  regardless.

The service is transport-agnostic; :mod:`repro.service.http` puts a
JSON endpoint in front of it.
"""

from __future__ import annotations

import itertools
import logging
import math
import threading
import time
from collections import deque
from typing import Callable, Mapping

from repro import __version__
from repro.core import ALGORITHMS, Workspace
from repro.core.result import SkylineResult
from repro.network.graph import NetworkLocation
from repro.obs import (
    DEFAULT_WINDOWS,
    BurnWindow,
    Completion,
    EventLog,
    FlightRecorder,
    InFlightTable,
    Objective,
    SLOMonitor,
    Span,
)
from repro.insight import DIGEST_QUANTILES, InsightHub, QuantileSketch
from repro.service.batching import BatchPlanner, ServiceRequest, execute_plan
from repro.service.errors import (
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    ServiceClosed,
)

_log = logging.getLogger(__name__)

DEFAULT_WORKERS = 4
DEFAULT_QUEUE_LIMIT = 64
DEFAULT_TIMEOUT_S = 30.0
DEFAULT_MAX_BATCH = 8
DEFAULT_SLOW_THRESHOLD_S = 0.5
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
DEFAULT_FLIGHT_RING = 64
DEFAULT_SLO_OBSERVE_INTERVAL_S = 5.0
DEFAULT_SLO_LATENCY_TARGET = 0.99
DEFAULT_SLO_LATENCY_THRESHOLD_S = 0.25
DEFAULT_SLO_AVAILABILITY_TARGET = 0.999


class PendingQuery:
    """A submitted request's future answer."""

    def __init__(self, request: ServiceRequest) -> None:
        self.request = request
        self._event = threading.Event()
        self._result: SkylineResult | None = None
        self._error: BaseException | None = None

    def _fulfill(self, outcome) -> None:
        if isinstance(outcome, BaseException):
            self._error = outcome
        else:
            self._result = outcome
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> SkylineResult:
        """Block until the answer (or typed failure) arrives."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id} still pending"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class QueryService:
    """Concurrent skyline-query serving over one workspace."""

    def __init__(
        self,
        workspace: Workspace,
        *,
        workers: int = DEFAULT_WORKERS,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_timeout_s: float | None = DEFAULT_TIMEOUT_S,
        max_batch: int = DEFAULT_MAX_BATCH,
        algorithms: Mapping[str, type] | None = None,
        slow_threshold_s: float = DEFAULT_SLOW_THRESHOLD_S,
        event_log_path: str | None = None,
        flight_dir: str | None = None,
        slo_windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
        slo_latency_target: float = DEFAULT_SLO_LATENCY_TARGET,
        slo_latency_threshold_s: float = DEFAULT_SLO_LATENCY_THRESHOLD_S,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {queue_limit}")
        if max_batch < 1:
            raise ValueError(f"max batch must be >= 1, got {max_batch}")
        self.workspace = workspace
        self.queue_limit = queue_limit
        self.default_timeout_s = default_timeout_s
        self.max_batch = max_batch
        self.algorithms = dict(algorithms or ALGORITHMS)

        self._planner = BatchPlanner()
        # One lock guards the service's state.  Idle workers wait on
        # _cond for requests; plans wait on _keys_freed for query-point
        # keys, so submit()'s notify() always wakes an idle worker.
        lock = threading.RLock()
        self._cond = threading.Condition(lock)
        self._keys_freed = threading.Condition(lock)
        self._queue: deque[PendingQuery] = deque()
        self._active_keys: set = set()
        self._paused = False
        self._closed = False
        self._ids = itertools.count(1)

        # Counters (guarded by _cond's lock).
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._timed_out = 0
        self._shed = 0
        self._deduped = 0
        self._mutations = 0
        self._batches = 0
        self._batched_requests = 0
        self._busy_workers = 0
        self._slow = 0
        self._telemetry_errors = 0

        # Diagnostics plane: wide events, flight recorder, SLO monitor.
        # The service owns their lifecycle (close() tears them down).
        event_log = (
            EventLog(event_log_path) if event_log_path is not None else None
        )
        self.events = event_log
        self.inflight = InFlightTable()
        self.recorder = FlightRecorder(
            ring=DEFAULT_FLIGHT_RING, dump_dir=flight_dir, inflight=self.inflight
        )
        self.slow_threshold_s = slow_threshold_s
        self.slo = SLOMonitor(windows=slo_windows)
        self._slo_latency_threshold_s = slo_latency_threshold_s

        # Insight plane: per-cohort latency/settled/page-miss digests,
        # served at /insightz and bridged into /metricsz.
        self.insight = InsightHub(on_new_cohort=self._bridge_insight_cohort)

        # Every finished query's Completion goes to the three sinks (the
        # event log when configured, the hub, the ring), then to the
        # flight-dump triggers.
        sinks = [self.insight.observe, self.recorder.record, self._dump]
        if event_log is not None:
            sinks.insert(0, lambda record: event_log.emit(record.to_event()))
        self._sinks = tuple(sinks)

        # The service shares the workspace's registry so one /metricsz
        # scrape covers the whole stack: service -> engine -> buffers.
        self.metrics = workspace.metrics
        self._register_metrics()
        self.slo.add_objective(
            Objective(
                "latency",
                target=slo_latency_target,
                threshold_s=slo_latency_threshold_s,
                description=(
                    f"{slo_latency_target:.0%} of queries finish within "
                    f"{slo_latency_threshold_s * 1e3:.0f}ms"
                ),
            ),
            self._latency_good_total,
        )
        self.slo.add_objective(
            Objective(
                "availability",
                target=DEFAULT_SLO_AVAILABILITY_TARGET,
                description=(
                    f"{DEFAULT_SLO_AVAILABILITY_TARGET:.1%} of finished queries "
                    "succeed"
                ),
            ),
            self._availability_good_total,
        )
        self._register_slo_metrics()
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()

        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        self._diag_stop = threading.Event()
        self._diag_thread = threading.Thread(
            target=self._diag_loop, name="repro-diag", daemon=True
        )
        self._diag_thread.start()

    def _register_metrics(self) -> None:
        """Expose the service's counters on the shared registry.

        Everything already counted under ``_cond`` is bridged with
        scrape-time callbacks (zero hot-path cost, no double
        bookkeeping), and so are the insight hub's per-cohort latency
        quantiles; only the batch-size histogram records inline, in
        :meth:`_process`.
        """
        registry = self.metrics
        outcomes = registry.counter(
            "repro_service_requests_total",
            "Requests by lifecycle event (submitted counts admissions).",
            labels=("outcome",),
        )
        for outcome, reader in (
            ("submitted", lambda: float(self._submitted)),
            ("completed", lambda: float(self._completed)),
            ("failed", lambda: float(self._failed)),
            ("timed_out", lambda: float(self._timed_out)),
            ("shed", lambda: float(self._shed)),
            ("deduped", lambda: float(self._deduped)),
        ):
            outcomes.attach_callback(reader, outcome=outcome)
        registry.register_callback(
            "repro_service_queue_depth",
            lambda: float(len(self._queue)),
            kind="gauge",
            help_text="Requests admitted but not yet claimed by a worker.",
        )
        registry.register_callback(
            "repro_service_active_keys",
            lambda: float(len(self._active_keys)),
            kind="gauge",
            help_text="Query-point keys locked by in-flight batches.",
        )
        registry.register_callback(
            "repro_service_batches_total",
            lambda: float(self._batches),
            kind="counter",
            help_text="Batch plans executed.",
        )
        registry.register_callback(
            "repro_service_mutations_total",
            lambda: float(self._mutations),
            kind="counter",
            help_text="Workspace mutations applied under the write lock.",
        )
        registry.register_callback(
            "repro_service_slow_queries_total",
            lambda: float(self._slow),
            kind="counter",
            help_text="Completed requests over the slow-query threshold.",
        )
        self._batch_size_hist = registry.histogram(
            "repro_service_batch_size",
            "Requests per executed batch plan.",
            buckets=BATCH_SIZE_BUCKETS,
        ).labels()
        registry.register_callback(
            "repro_service_inflight",
            lambda: float(self.inflight.count()),
            kind="gauge",
            help_text="Queries admitted but not yet finished.",
        )
        registry.register_callback(
            "repro_service_flight_dumps_total",
            lambda: float(self.recorder.dump_count),
            kind="counter",
            help_text="Flight-record dumps written to disk.",
        )
        if self.events is not None:
            events = registry.counter(
                "repro_service_events_total",
                "Wide-event log lifecycle accounting.",
                labels=("event",),
            )
            for label, reader in (
                ("emitted", lambda: float(self.events.emitted)),
                ("written", lambda: float(self.events.written)),
                ("dropped", lambda: float(self.events.dropped)),
                ("rotated", lambda: float(self.events.rotations)),
            ):
                events.attach_callback(reader, event=label)
            registry.register_callback(
                "repro_event_log_queue_depth",
                lambda: float(self.events.queue_depth),
                kind="gauge",
                help_text="Wide events enqueued but not yet written "
                "(the writer's bounded queue; sustained depth precedes "
                "drops).",
            )
        self._insight_latency_family = registry.gauge(
            "repro_insight_latency_seconds",
            "Per-cohort latency quantiles from the insight hub's "
            "mergeable sketches (relative error alpha; see /insightz).",
            labels=("cohort", "quantile"),
        )
        self._insight_queries_family = registry.counter(
            "repro_insight_queries_total",
            "Finished queries folded into each insight cohort.",
            labels=("cohort",),
        )

    def _register_slo_metrics(self) -> None:
        """One long-window burn-rate gauge per objective (scrape-time)."""
        registry = self.metrics
        long_s = self.slo.windows[0].long_s
        for objective in self.slo.objectives():
            registry.register_callback(
                "repro_slo_burn_rate",
                lambda name=objective.name: self.slo.burn_rate(name, long_s),
                kind="gauge",
                help_text="Error-budget burn rate over the shortest "
                "long window (1.0 spends the budget exactly).",
                objective=objective.name,
            )

    # -- diagnostics-plane sources and triggers ------------------------

    def _completed_latency(self) -> QuantileSketch:
        """Every completed query's latency, merged from the hub's
        ``completed`` cohorts: the service's one latency aggregator."""
        return self.insight.merged_latency(outcome="completed")

    def _latency_good_total(self) -> tuple[float, float]:
        """Cumulative (within-threshold, all) completed-query latencies.

        The threshold snaps up to the bound of its sketch bucket, at
        most ``(1 + alpha) / (1 - alpha)`` times the threshold.
        """
        latency = self._completed_latency()
        good = latency.count_at_most(self._slo_latency_threshold_s)
        return float(good), float(latency.count)

    def _availability_good_total(self) -> tuple[float, float]:
        """Cumulative (succeeded, finished) request counts."""
        with self._cond:
            good = self._completed
            total = self._completed + self._failed + self._timed_out
        return float(good), float(total)

    def _bridge_insight_cohort(self, key: str) -> None:
        """First sight of a cohort: attach its /metricsz callbacks.

        Runs once per cohort (cardinality is bounded by the |Q|
        bucketing), off the hub's lock; scrapes read the hub directly.
        """
        self._insight_queries_family.attach_callback(
            lambda k=key: float(self.insight.cohort_count_of(k)), cohort=key
        )
        for q in DIGEST_QUANTILES:
            self._insight_latency_family.attach_callback(
                lambda k=key, q=q: self.insight.latency_quantile(k, q),
                cohort=key,
                quantile=f"{q:g}",
            )

    def insight_report(self) -> dict:
        """The ``/insightz`` payload: live per-cohort digests."""
        return self.insight.report()

    def _diag_loop(self) -> None:
        """Background cadence for the SLO monitor."""
        while not self._diag_stop.wait(DEFAULT_SLO_OBSERVE_INTERVAL_S):
            self.slo.observe()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        algorithm: str,
        queries: list[NetworkLocation],
        timeout_s: float | None = None,
        trace_id: str | None = None,
    ) -> PendingQuery:
        """Admit one request, or raise a typed rejection immediately.

        ``trace_id`` (optional, client-supplied) overrides the root
        span's generated id so the whole tree — and the completion
        record and any flight dump derived from it — correlates with
        the caller's own trace.  A NaN or infinite ``timeout_s`` is a
        :class:`BadRequest`: no deadline could be kept or waited on.
        """
        if algorithm not in self.algorithms:
            raise BadRequest(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {sorted(self.algorithms)}"
            )
        if not queries:
            raise BadRequest("a skyline query needs at least one query point")
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        elif not math.isfinite(timeout_s):
            raise BadRequest(f"timeout_s must be finite, got {timeout_s!r}")
        now = time.monotonic()
        request = ServiceRequest(
            request_id=next(self._ids),
            algorithm=algorithm,
            queries=list(queries),
            deadline=None if timeout_s is None else now + timeout_s,
            enqueued_at=now,
        )
        request.span = Span(
            f"request.{algorithm}",
            algorithm=algorithm,
            request_id=request.request_id,
            query_count=len(queries),
        )
        if trace_id:
            # Children copy the parent's trace id at creation and none
            # exist yet, so the override propagates to the whole tree.
            request.span.trace_id = trace_id
        pending = PendingQuery(request)
        with self._cond:
            if self._closed:
                raise ServiceClosed("service is shut down")
            if len(self._queue) >= self.queue_limit:
                self._shed += 1
                raise Overloaded(len(self._queue), self.queue_limit)
            # Registered before a worker can see the request, so its
            # deregistration in _finish always comes after.
            self.inflight.register(request.request_id, algorithm, request.span)
            self._queue.append(pending)
            self._submitted += 1
            self._cond.notify()
        return pending

    def query(
        self,
        algorithm: str,
        queries: list[NetworkLocation],
        timeout_s: float | None = None,
        trace_id: str | None = None,
    ) -> SkylineResult:
        """Submit and block for the answer (closed-loop clients)."""
        pending = self.submit(
            algorithm, queries, timeout_s=timeout_s, trace_id=trace_id
        )
        # The worker enforces the deadline; the extra margin here only
        # guards against a wedged service.  A far deadline waits as long
        # as a thread can.
        wait = None
        if pending.request.deadline is not None:
            wait = min(
                max(0.0, pending.request.deadline - time.monotonic()) + 30.0,
                threading.TIMEOUT_MAX,
            )
        return pending.result(timeout=wait)

    # ------------------------------------------------------------------
    # Mutations (snapshot-isolated writers)
    # ------------------------------------------------------------------
    def mutate(self, fn: Callable[[Workspace], object]):
        """Run an arbitrary mutation under the workspace's write lock."""
        with self.workspace.mutating() as ws:
            outcome = fn(ws)
        with self._cond:
            self._mutations += 1
        return outcome

    def update_edge_length(self, edge_id: int, length: float) -> None:
        self.mutate(lambda ws: ws.update_edge_length(edge_id, length))

    def add_object(self, obj) -> None:
        self.mutate(lambda ws: ws.add_object(obj))

    def remove_object(self, object_id: int) -> None:
        self.mutate(lambda ws: ws.remove_object(object_id))

    # ------------------------------------------------------------------
    # Worker machinery
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while (not self._queue or self._paused) and not self._closed:
                    self._cond.wait()
                if self._closed and not self._queue:
                    return
                # Batch what is queued, up to max_batch, and run it at
                # once: a request never waits for company.
                count = min(len(self._queue), self.max_batch)
                batch = [self._queue.popleft() for _ in range(count)]
                self._busy_workers += 1
            try:
                self._process(batch)
            finally:
                with self._cond:
                    self._busy_workers -= 1

    def _process(self, batch: list[PendingQuery]) -> None:
        by_id = {p.request.request_id: p for p in batch}
        for plan in self._planner.plan([p.request for p in batch]):
            keys = plan.key_union()
            self._acquire_keys(keys)
            expired: list[ServiceRequest] = []
            try:
                # Deadlines are checked as each plan starts, after its
                # key wait: a request that expired in the queue, behind
                # an earlier plan or during the wait fails unrun.
                expired, plan = plan.split_expired(time.monotonic())
                outcomes = (
                    execute_plan(self.workspace, plan, self.algorithms)
                    if plan.units
                    else {}
                )
            except BaseException as exc:
                # Planner/lock failures fail the whole plan, typed.
                outcomes = {
                    rid: exc
                    for unit in plan.units
                    for rid in (r.request_id for r in unit.requests)
                }
            finally:
                self._release_keys(keys)
            for request in expired:
                self._finish(
                    by_id[request.request_id],
                    DeadlineExceeded(request.deadline - request.enqueued_at),
                )
            if not plan.units:
                continue
            with self._cond:
                self._batches += 1
                self._batched_requests += plan.request_count
                self._deduped += plan.request_count - len(plan.units)
                batch_id = self._batches
            self._batch_size_hist.observe(float(plan.request_count))
            for request_id, outcome in outcomes.items():
                self._finish(by_id[request_id], outcome, batch_id=batch_id)

    def _finish(
        self, pending: PendingQuery, outcome, batch_id: int | None = None
    ) -> None:
        """Count the outcome, publish the query's one completion record,
        then answer the client (sinks first, so a caller that reads any
        telemetry view after ``query()`` returns sees its own query)."""
        request = pending.request
        self.inflight.deregister(request.request_id)
        latency_s = time.monotonic() - request.enqueued_at
        if isinstance(outcome, DeadlineExceeded):
            label = "timed_out"
        elif isinstance(outcome, BaseException):
            label = "failed"
        else:
            label = "completed"
        with self._cond:
            if label == "completed":
                self._completed += 1
                if latency_s >= self.slow_threshold_s:
                    self._slow += 1
            elif label == "failed":
                self._failed += 1
            else:
                self._timed_out += 1
        span = request.span
        span.attributes["outcome"] = (
            "ok" if label == "completed" else type(outcome).__name__
        )
        span.finish()
        try:
            self._publish(
                self._completion(request, outcome, label, latency_s, batch_id)
            )
        finally:
            pending._fulfill(outcome)

    @staticmethod
    def _completion(
        request: ServiceRequest,
        outcome,
        label: str,
        latency_s: float,
        batch_id: int | None,
    ) -> Completion:
        span = request.span
        fields = {}
        if isinstance(outcome, BaseException):
            counters = span.totals()
            fields["error"] = f"{type(outcome).__name__}: {outcome}"
        else:
            # The same QueryStats object the client response carries —
            # record-vs-stats reconciliation is exact by construction,
            # not by parallel bookkeeping.
            stats = outcome.stats
            counters = stats.counter_fields()
            fields.update(
                # Execution only: the span opened at admission, so its
                # own duration would repeat latency_s.
                span_duration_s=stats.total_response_s,
                engine_backend=stats.distance_backend,
                skyline_count=stats.skyline_count,
                candidate_count=stats.candidate_count,
                extras=dict(stats.extras) or None,
            )
        return Completion(
            request_id=request.request_id,
            algorithm=request.algorithm,
            outcome=label,
            trace_id=span.trace_id,
            latency_s=latency_s,
            batch_id=batch_id,
            query_count=len(request.queries),
            query_nodes=[
                q.node_id if q.is_node else [q.edge_id, q.offset]
                for q in request.queries
            ],
            counters=counters,
            span=span,
            **fields,
        )

    def _publish(self, record: Completion) -> None:
        """Hand one completion record to every sink in turn.

        A sink that raises is logged and counted (``telemetry_errors``)
        and the rest still run: telemetry must never cost a worker
        thread or strand the request it describes.
        """
        for sink in self._sinks:
            try:
                sink(record)
            except Exception:
                _log.exception(
                    "telemetry sink failed for request %s", record.request_id
                )
                with self._cond:
                    self._telemetry_errors += 1

    def _dump(self, record: Completion) -> None:
        """Flight-dump triggers: a failed query, a slow completed one."""
        if record.outcome == "failed":
            self.recorder.dump(
                "error", extra={"request_id": record.request_id}
            )
        elif (
            record.outcome == "completed"
            and record.latency_s >= self.slow_threshold_s
        ):
            self.recorder.dump(
                "slow_query",
                extra={
                    "request_id": record.request_id,
                    "latency_s": round(record.latency_s, 6),
                },
            )

    def _acquire_keys(self, keys: frozenset) -> None:
        with self._cond:
            while keys & self._active_keys:
                self._keys_freed.wait()
            self._active_keys |= keys

    def _release_keys(self, keys: frozenset) -> None:
        with self._cond:
            self._active_keys -= keys
            self._keys_freed.notify_all()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Stop dequeuing (submissions still admitted); for tests/ops."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def close(self, timeout_s: float = 10.0) -> None:
        """Drain queued requests, stop the workers, reject stragglers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._paused = False
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        # Anything still queued after the drain window is rejected.
        with self._cond:
            leftovers = list(self._queue)
            self._queue.clear()
        for pending in leftovers:
            self._finish(pending, ServiceClosed("service is shut down"))
        self._diag_stop.set()
        self._diag_thread.join(timeout=timeout_s)
        if self.events is not None:
            self.events.close(timeout=timeout_s)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_dict(self) -> dict:
        """The ``/statsz`` payload: queue, latency, batch and cache state."""
        with self._cond:
            queue_block = {
                "depth": len(self._queue),
                "limit": self.queue_limit,
                "shed": self._shed,
                "active_keys": len(self._active_keys),
                "paused": self._paused,
            }
            requests_block = {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "timed_out": self._timed_out,
                "deduped": self._deduped,
                "mutations": self._mutations,
            }
            batches = self._batches
            batched_requests = self._batched_requests
            slow_count = self._slow
            telemetry_errors = self._telemetry_errors
        latency = self._completed_latency()
        batch_block = {
            "executed": batches,
            "requests_batched": batched_requests,
            "mean_batch_size": (
                round(batched_requests / batches, 3) if batches else 0.0
            ),
        }
        ws = self.workspace
        buffers = {"network_physical_reads": ws.network_pages_read(),
                   "index_physical_reads": ws.index_pages_read(),
                   "middle_physical_reads": ws.middle_pages_read()}
        if ws.store is not None:
            buffers["network_logical_reads"] = ws.store.stats.logical_reads
            buffers["network_hit_ratio"] = round(ws.store.stats.hit_ratio, 4)
        return {
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "started_unix": round(self._started_wall, 3),
            "workers": len(self._threads),
            "queue": queue_block,
            "requests": requests_block,
            # Lifetime completed-query latency, within the sketch's alpha.
            "latency_s": {
                "count": latency.count,
                "mean_s": round(latency.mean, 6),
                "p50_s": round(latency.quantile(0.50), 6),
                "p95_s": round(latency.quantile(0.95), 6),
                "p99_s": round(latency.quantile(0.99), 6),
            },
            "batches": batch_block,
            "engine": ws.engine.cache_info() if ws.engine else {},
            "engine_nodes_settled": (
                ws.engine.nodes_settled() if ws.engine else 0
            ),
            "buffers": buffers,
            "slow_queries": {
                "threshold_s": self.slow_threshold_s,
                "count": slow_count,
                "retained": len(
                    self.recorder.slow_records(self.slow_threshold_s)
                ),
            },
            "telemetry_errors": telemetry_errors,
            "workspace_version": ws.version,
            "algorithms": sorted(self.algorithms),
            "inflight": self.inflight.count(),
            "events": (
                self.events.stats() if self.events is not None else None
            ),
            "flight_recorder": self.recorder.stats(),
        }

    def health_dict(self) -> dict:
        """The enriched ``/healthz`` payload: one readiness signal for
        load balancers."""
        with self._cond:
            depth = len(self._queue)
            busy = self._busy_workers
            closed = self._closed
        workers = len(self._threads)
        return {
            "status": "closed" if closed else "ok",
            "version": __version__,
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "inflight": self.inflight.count(),
            "queue": {"depth": depth, "limit": self.queue_limit},
            "workers": {
                "total": workers,
                "busy": busy,
                "saturation": round(busy / workers, 3) if workers else 0.0,
            },
        }

    def slo_report(self) -> dict:
        """The ``/sloz`` payload: every objective's burn-rate verdict."""
        return self.slo.report()

    def slowlog_dict(self) -> dict:
        """The ``/slowlogz`` payload: the threshold, every slow completed
        query counted, and the flight ring's slow records, slowest
        first, as wide events."""
        with self._cond:
            slow_count = self._slow
        return {
            "threshold_s": self.slow_threshold_s,
            "slow_count": slow_count,
            "records": [
                record.to_event()
                for record in self.recorder.slow_records(self.slow_threshold_s)
            ],
        }
