"""repro.service — the concurrent query-serving subsystem.

Turns the single-query library into a long-running server:

* :class:`QueryService` — bounded queue, worker pool, per-request
  deadlines, load-shedding admission control;
* :class:`~repro.service.batching.BatchPlanner` — groups in-flight
  requests by shared query points so co-located requests reuse
  engine wavefronts across requests, not just within one;
* :class:`~repro.concurrency.ReadWriteLock` (re-exported) — snapshot
  isolation between queries (shared side) and mutations (exclusive
  side);
* :class:`~repro.service.http.ServiceHTTPServer` — stdlib JSON
  endpoint with ``/healthz``, ``/statsz`` and the telemetry views
  (the ``repro-serve`` entry point).

Telemetry is one :class:`~repro.obs.events.Completion` per finished
request, fanned out to the wide-event log, the insight hub (the only
latency aggregator) and the flight-recorder ring (the only store of
retained traces).  See the "Serving layer" section of
``docs/architecture.md`` for the request lifecycle (admit → snapshot
→ batch → execute → respond).
"""

from repro.service.batching import (
    BatchPlan,
    BatchPlanner,
    ExecutionUnit,
    ServiceRequest,
    execute_plan,
)
from repro.service.errors import (
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    ServiceClosed,
    ServiceError,
)
from repro.service.http import ServiceHTTPServer, run_serve
from repro.service.service import (
    DEFAULT_MAX_BATCH,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_TIMEOUT_S,
    DEFAULT_WORKERS,
    PendingQuery,
    QueryService,
)
from repro.concurrency import ReadWriteLock

__all__ = [
    "BadRequest",
    "BatchPlan",
    "BatchPlanner",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_TIMEOUT_S",
    "DEFAULT_WORKERS",
    "DeadlineExceeded",
    "ExecutionUnit",
    "Overloaded",
    "PendingQuery",
    "QueryService",
    "ReadWriteLock",
    "ServiceClosed",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceRequest",
    "execute_plan",
    "run_serve",
]
