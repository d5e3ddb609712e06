"""The registered telemetry vocabulary: span names, counter keys,
metric families.

``/metricsz`` scraping, ``repro query --stats`` trace rendering and the
QueryStats-vs-trace reconciliation tests all assume a *fixed* set of
names: a span or counter key that exists only at one call site is a
signal nothing downstream knows how to read.  This module is the
single place a name is minted; the static-analysis rules
``REPRO-TELE01``..``REPRO-TELE03`` (:mod:`repro.analysis`) enforce at
lint time that every literal name passed to
:func:`repro.obs.tracing.record`, :func:`repro.obs.tracing.span` and
the :class:`~repro.obs.metrics.MetricRegistry` registration methods is
drawn from here.

Two shapes of entry exist:

* exact names — ``frozenset`` members matched verbatim;
* patterns — ``fnmatch``-style globs for the name families that embed
  a runtime component (``query.<algorithm>``, ``request.<algorithm>``,
  per-pool page counters).

Keep this module dependency-free (stdlib only): the linter imports it
at lint time, and ``obs`` sits at the bottom of the layer DAG.
"""

from __future__ import annotations

SPAN_NAMES = frozenset(
    {
        # Engine batch API (repro.engine.engine)
        "engine.vectors",
        # CE phases (repro.core.ce)
        "ce.filter",
        "ce.refine",
        # EDC phases (repro.core.edc)
        "edc.euclidean",
        "edc.shift",
        "edc.window",
        "edc.refine",
        "edc.closure",
        # LBC phases (repro.core.lbc)
        "lbc.stream",
        "lbc.resolve",
        # Distance-oracle preprocessing and verification (repro.oracle)
        "oracle.build",
        "oracle.verify",
        # Insight-plane offline analysis (repro.insight.analyze)
        "insight.summarize",
        "insight.compare",
    }
)
"""Exact span names a trace tree may contain."""

SPAN_NAME_PATTERNS = (
    # One root span per algorithm run (repro.core.base).
    "query.*",
    # One admission span per service request (repro.service.service).
    "request.*",
)
"""Glob patterns for span-name families with a runtime component."""

COUNTER_KEYS = frozenset(
    {
        # Wavefront work (repro.network.dijkstra / astar)
        "nodes_settled",
        # Distance-function invocations (core algorithms)
        "distance_computations",
        # LBC lower-bound search expansions (repro.core.lbc)
        "lb_expansions",
        # Rows scanned by the columnar dominance kernels, charged in
        # bulk per block operation (repro.columnar.kernels)
        "dominance_checks",
        # Distance-memo outcomes (repro.engine.cache)
        "engine_hits",
        "engine_misses",
        "engine_evictions",
        # Per-index node visits (repro.index)
        "bptree_nodes",
        "rtree_nodes",
        # Physical page misses per buffer pool; minted per-component in
        # repro.storage.buffer as f"{component}_pages".
        "network_pages",
        "index_pages",
        "middle_pages",
        "oracle_pages",
        # Distance-oracle query work (repro.oracle.runtime): nodes the
        # CH bidirectional upward search settles, hub-label entries a
        # sorted merge of the two labels visits (the lookup probes a
        # cached source map, but charges the merge's count), and
        # lookups refused by a stale index (the engine then resolves
        # online).
        "oracle_nodes_settled",
        "oracle_label_entries",
        "oracle_fallbacks",
    }
)
"""Exact counter keys :func:`repro.obs.tracing.record` may charge."""

COUNTER_KEY_PATTERNS = ()
"""Glob patterns for counter-key families (none today)."""

METRIC_FAMILIES = frozenset(
    {
        # Workspace-level callback bridges (repro.core.query)
        "repro_buffer_reads_total",
        "repro_buffer_hit_ratio",
        "repro_engine_memo_events_total",
        "repro_engine_nodes_settled_total",
        "repro_engine_memo_entries",
        "repro_workspace_objects",
        "repro_workspace_version",
        # Serving layer (repro.service.service)
        "repro_service_requests_total",
        "repro_service_queue_depth",
        "repro_service_active_keys",
        "repro_service_batches_total",
        "repro_service_mutations_total",
        "repro_service_slow_queries_total",
        "repro_service_batch_size",
        # Diagnostics plane (repro.service.service over repro.obs.events
        # / recorder / slo): wide-event lifecycle accounting, in-flight
        # registry size, flight-record dumps, and per-objective
        # long-window burn rates.
        "repro_service_events_total",
        "repro_service_inflight",
        "repro_service_flight_dumps_total",
        "repro_slo_burn_rate",
        # Event-log health (repro.service.service over repro.obs.events):
        # the wide-event writer's bounded queue, scraped at collect time.
        "repro_event_log_queue_depth",
        # Insight plane (repro.service.service over repro.insight.live):
        # per-cohort latency quantiles (the only latency family) and
        # observation counts.
        "repro_insight_latency_seconds",
        "repro_insight_queries_total",
    }
)
"""Every Prometheus metric family ``/metricsz`` may expose."""
