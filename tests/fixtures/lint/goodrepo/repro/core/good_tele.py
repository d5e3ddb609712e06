"""Telemetry calls drawn from the registered vocabulary."""

from repro.obs import tracing


def run(name):
    tracing.record("nodes_settled")
    with tracing.span("ce.filter"):
        pass
    # Phase spans minted in obs/names.py are vocabulary too.
    with tracing.span("lbc.resolve"):
        tracing.record("distance_computations")
    with tracing.span(f"query.{name}"):
        return None


def analyze(events):
    # The insight plane's spans are vocabulary like any other.
    with tracing.span("insight.summarize"):
        pass
    with tracing.span("insight.compare"):
        return None


def register(registry):
    registry.counter("repro_service_requests_total", "requests")
    registry.gauge(
        "repro_insight_latency_seconds",
        "live cohort latency digests",
        labels=("cohort", "quantile"),
    )
    registry.counter(
        "repro_insight_queries_total", "queries per cohort", labels=("cohort",)
    )
    registry.register_callback(
        "repro_event_log_queue_depth", lambda: 0.0, kind="gauge"
    )
