"""``repro.obs`` — the unified telemetry subsystem.

Every cost signal the paper's evaluation is built on (network page
accesses, nodes settled, memo hits, response times) flows through this
package exactly once, in one of three shapes:

* **Metrics** (:mod:`repro.obs.metrics`) — process-lifetime counters,
  gauges and fixed-bucket histograms, grouped into labeled families in
  a thread-safe :class:`MetricRegistry` and exposed in Prometheus text
  format at ``GET /metricsz``.
* **Tracing spans** (:mod:`repro.obs.tracing`) — a hierarchical span
  tree per query, propagated via :mod:`contextvars` from service
  request admission through batch execution, algorithm phases, engine
  backend calls, and down to individual R-tree/B+-tree node visits and
  buffer-pool misses.  Per-span counters are the *source of truth* for
  :class:`~repro.core.stats.QueryStats`: the per-query totals are read
  off the query's root span, so span sums and stats totals reconcile
  exactly by construction.
* **Completion records** (:mod:`repro.obs.events`) — one immutable
  :class:`Completion` per finished query, the record every per-query
  sink reads.

The post-hoc diagnostics plane sits on the same substrate:

* **Wide events** (:mod:`repro.obs.events`) — each completion record
  as one JSONL line, through a bounded-queue async writer with size
  rotation and exact emitted/written/dropped accounting.
* **Flight recorder** (:mod:`repro.obs.recorder`) — an always-on ring
  of recent completion records (the only store of retained traces:
  ``/slowlogz`` and ``--trace-dir`` read it) plus triggered black-box
  dumps (in-flight span trees, thread stacks) and a stall watchdog over
  the in-flight query registry.
* **SLO monitor** (:mod:`repro.obs.slo`) — declarative latency and
  availability objectives evaluated as multi-window burn rates over
  cumulative ``(good, total)`` samples (``GET /sloz``).

Layering: ``obs`` sits below everything (stdlib only); storage, index,
engine, core and service all call *into* it and never the reverse.
"""

from repro.obs.events import (
    Completion,
    EventLog,
    EventReader,
    iter_events,
    read_events,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricFamily,
    MetricRegistry,
    parse_prometheus_text,
)
from repro.obs.names import (
    COUNTER_KEYS,
    METRIC_FAMILIES,
    SPAN_NAME_PATTERNS,
    SPAN_NAMES,
)
from repro.obs.recorder import (
    FlightRecorder,
    InFlightTable,
    StallWatchdog,
    format_flight_record,
    install_signal_dump,
    latest_flight_record,
    load_flight_record,
    thread_stacks,
)
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    BurnWindow,
    Objective,
    SLOMonitor,
)
from repro.obs.tracing import (
    Span,
    activate,
    active_roots,
    active_spans,
    current_span,
    format_trace,
    record,
    span,
    suppressed,
)

__all__ = [
    "COUNTER_KEYS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_WINDOWS",
    "METRIC_FAMILIES",
    "BurnWindow",
    "Completion",
    "EventLog",
    "EventReader",
    "FlightRecorder",
    "InFlightTable",
    "MetricFamily",
    "MetricRegistry",
    "Objective",
    "SLOMonitor",
    "SPAN_NAMES",
    "SPAN_NAME_PATTERNS",
    "StallWatchdog",
    "Span",
    "activate",
    "active_roots",
    "active_spans",
    "current_span",
    "format_flight_record",
    "format_trace",
    "install_signal_dump",
    "iter_events",
    "latest_flight_record",
    "load_flight_record",
    "parse_prometheus_text",
    "record",
    "read_events",
    "span",
    "suppressed",
    "thread_stacks",
]
