"""Offline telemetry analysis: cohort digests, diffs, regression gates.

This is the half of the insight plane that *reads back* what the
diagnostics plane wrote: wide-event JSONL logs (:mod:`repro.obs.
events`), previously saved insight reports, and ``BENCH_`` artifacts
(:mod:`repro.bench`, every suite) all load into one common shape — a
:class:`InsightSummary` holding one :class:`CohortDigest` per cohort —
and one comparator diffs any two of them with per-cohort, per-counter
attribution and a noise-aware gate.

Aggregation here is **exact** (the whole log is on disk; there is no
reason to approximate), which is what makes it the reference the live
sketch digests are tested against: live ``/insightz`` must agree with
:func:`summarize_events` over the same events within the sketch's
documented ``alpha`` bound.

Exposed as ``repro insight summarize|compare|top`` with ``repro
bench``-style exit codes (see :mod:`repro.insight.gate`).
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable

from repro.insight.cohort import cohort_of_event
from repro.insight.gate import format_growth, is_regression
from repro.insight.sketch import DIGEST_QUANTILES, exact_quantile
from repro.obs import tracing
from repro.obs.events import iter_events

INSIGHT_SCHEMA = "repro-insight"
INSIGHT_SCHEMA_VERSION = 1

DEFAULT_EXEMPLARS = 3
DEFAULT_COUNTER_THRESHOLD = 0.25
DEFAULT_COUNTER_FLOOR = 1.0
DEFAULT_LATENCY_THRESHOLD = 0.5
DEFAULT_LATENCY_FLOOR_S = 0.005
DEFAULT_MIN_COUNT = 1

_GATED_LATENCY_STATS = ("p50", "p99")


@dataclass
class CohortDigest:
    """Exact per-cohort aggregates over one event source."""

    count: int = 0
    latency_s: dict[str, float] = field(default_factory=dict)
    counters: dict[str, dict[str, float]] = field(default_factory=dict)
    slowest: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "latency_s": dict(self.latency_s),
            "counters": {k: dict(v) for k, v in sorted(self.counters.items())},
            "slowest": list(self.slowest),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CohortDigest":
        return cls(
            count=int(payload.get("count", 0)),
            latency_s=dict(payload.get("latency_s", {})),
            counters={
                k: dict(v) for k, v in payload.get("counters", {}).items()
            },
            slowest=list(payload.get("slowest", [])),
        )


@dataclass
class InsightSummary:
    """One analyzed event source: cohorts plus provenance."""

    source: str = ""
    kind: str = "events"
    events: int = 0
    corrupt_lines: int = 0
    cohorts: dict[str, CohortDigest] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": INSIGHT_SCHEMA,
            "schema_version": INSIGHT_SCHEMA_VERSION,
            "source": self.source,
            "kind": self.kind,
            "events": self.events,
            "corrupt_lines": self.corrupt_lines,
            "cohorts": {
                key: digest.to_dict()
                for key, digest in sorted(self.cohorts.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InsightSummary":
        if payload.get("schema") != INSIGHT_SCHEMA:
            raise ValueError(
                f"not an insight report (schema {payload.get('schema')!r})"
            )
        if payload.get("schema_version") != INSIGHT_SCHEMA_VERSION:
            raise ValueError(
                f"insight schema version {payload.get('schema_version')!r} "
                f"is not {INSIGHT_SCHEMA_VERSION}; regenerate the report"
            )
        return cls(
            source=str(payload.get("source", "")),
            kind=str(payload.get("kind", "events")),
            events=int(payload.get("events", 0)),
            corrupt_lines=int(payload.get("corrupt_lines", 0)),
            cohorts={
                key: CohortDigest.from_dict(value)
                for key, value in payload.get("cohorts", {}).items()
            },
        )


def _quantile_block(values: list[float]) -> dict[str, float]:
    """Exact digest of a value list (sorted in place)."""
    values.sort()
    block = {
        label_q[0]: exact_quantile(values, label_q[1])
        for label_q in zip(
            [f"p{int(q * 100)}" for q in DIGEST_QUANTILES], DIGEST_QUANTILES
        )
    }
    block["mean"] = sum(values) / len(values) if values else 0.0
    block["max"] = values[-1] if values else 0.0
    return block


def summarize_events(
    events: Iterable[dict],
    *,
    source: str = "",
    corrupt_lines: int = 0,
    exemplars: int = DEFAULT_EXEMPLARS,
) -> InsightSummary:
    """Bucket wide events into cohorts and digest each exactly."""
    latencies: dict[str, list[float]] = {}
    counter_values: dict[str, dict[str, list[float]]] = {}
    counts: dict[str, int] = {}
    slow_heaps: dict[str, list[tuple[float, int, dict]]] = {}
    total = 0
    with tracing.span("insight.summarize"):
        for sequence, event in enumerate(events):
            if event.get("event") != "query":
                continue
            total += 1
            key = cohort_of_event(event)
            counts[key] = counts.get(key, 0) + 1
            latency = float(event.get("latency_s", 0.0) or 0.0)
            latencies.setdefault(key, []).append(latency)
            per_counter = counter_values.setdefault(key, {})
            for name, value in (event.get("counters") or {}).items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                per_counter.setdefault(name, []).append(float(value))
            exemplar = (
                latency,
                -sequence,  # tie-break: earlier event wins
                {
                    "latency_s": latency,
                    "trace_id": event.get("trace_id"),
                    "request_id": event.get("request_id"),
                },
            )
            heap = slow_heaps.setdefault(key, [])
            if len(heap) < exemplars:
                heapq.heappush(heap, exemplar)
            else:
                heapq.heappushpop(heap, exemplar)
    summary = InsightSummary(
        source=source, events=total, corrupt_lines=corrupt_lines
    )
    for key in counts:
        digest = CohortDigest(count=counts[key])
        digest.latency_s = _quantile_block(latencies[key])
        for name, values in sorted(counter_values.get(key, {}).items()):
            digest.counters[name] = {
                "sum": sum(values),
                "mean": sum(values) / len(values),
                "max": max(values),
            }
        digest.slowest = [
            entry
            for _, _, entry in sorted(
                slow_heaps.get(key, []), key=lambda item: -item[0]
            )
        ]
        summary.cohorts[key] = digest
    return summary


def summarize_bench_artifact(artifact: dict, source: str = "") -> InsightSummary:
    """A ``BENCH_`` artifact as an insight summary.

    Each benchmark record becomes one cohort (keyed by its workload
    id); deterministic counters map to counter digests and the timing
    percentiles to the latency block, so the same comparator that
    diffs two event logs diffs two bench artifacts.
    """
    summary = InsightSummary(source=source, kind="bench")
    for record in artifact.get("benchmarks", []):
        key = str(record.get("id", "?"))
        repeats = int(record.get("params", {}).get("repeats", 1) or 1)
        digest = CohortDigest(count=repeats)
        timing = record.get("timing_s", {}) or {}
        digest.latency_s = {
            "p50": float(timing.get("p50", 0.0) or 0.0),
            "p90": float(timing.get("p50", 0.0) or 0.0),
            "p99": float(timing.get("max", 0.0) or 0.0),
            "mean": float(timing.get("mean", 0.0) or 0.0),
            "max": float(timing.get("max", 0.0) or 0.0),
        }
        for name, value in (record.get("counters") or {}).items():
            value = float(value)
            digest.counters[name] = {
                "sum": value * repeats,
                "mean": value,
                "max": value,
            }
        summary.cohorts[key] = digest
        summary.events += repeats
    return summary


def load_summary(path: str, *, exemplars: int = DEFAULT_EXEMPLARS) -> InsightSummary:
    """Load any supported source into an :class:`InsightSummary`.

    Dispatch is by content, not extension: a JSON object with the
    insight schema loads as a saved report, one with a ``benchmarks``
    list converts from a bench artifact, and anything line-oriented is
    read as a wide-event JSONL log (corrupt lines skipped and
    counted, see :func:`repro.obs.events.iter_events`).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    payload = _try_load_json(path)
    if isinstance(payload, dict) and payload.get("schema") == INSIGHT_SCHEMA:
        summary = InsightSummary.from_dict(payload)
        summary.source = summary.source or path
        return summary
    if isinstance(payload, dict) and "benchmarks" in payload:
        return summarize_bench_artifact(payload, source=path)
    reader = iter_events(path)
    summary = summarize_events(reader, source=path, exemplars=exemplars)
    summary.corrupt_lines = reader.corrupt_lines
    return summary


def _try_load_json(path: str):
    """The whole file as one JSON document, or None (JSONL/other)."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
@dataclass
class InsightDiff:
    """Outcome of diffing two summaries; mirrors bench's report shape."""

    baseline_source: str = ""
    current_source: str = ""
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "baseline_source": self.baseline_source,
            "current_source": self.current_source,
            "failures": list(self.failures),
            "warnings": list(self.warnings),
            "notes": list(self.notes),
        }


def compare_summaries(
    baseline: InsightSummary,
    current: InsightSummary,
    *,
    counter_threshold: float = DEFAULT_COUNTER_THRESHOLD,
    counter_floor: float = DEFAULT_COUNTER_FLOOR,
    latency_threshold: float = DEFAULT_LATENCY_THRESHOLD,
    latency_floor_s: float = DEFAULT_LATENCY_FLOOR_S,
    min_count: int = DEFAULT_MIN_COUNT,
    advisory_latency: bool = False,
) -> InsightDiff:
    """Diff two summaries cohort-by-cohort with per-counter attribution.

    The gate is noise-aware twice over: a cohort participates only
    when *both* sides hold at least ``min_count`` events (small
    cohorts are anecdotes, not distributions), and a number regresses
    only when it clears both a relative threshold and an absolute
    floor (:func:`repro.insight.gate.is_regression`).  Identical
    summaries therefore always diff clean, deterministically.

    ``advisory_latency`` demotes latency regressions to warnings — the
    right setting when baseline and current ran on different machines
    (CI against a committed baseline), where wall clocks are not
    comparable but counter digests are.
    """
    diff = InsightDiff(
        baseline_source=baseline.source, current_source=current.source
    )
    with tracing.span("insight.compare"):
        if baseline.kind != current.kind:
            diff.failures.append(
                f"source kind mismatch: baseline={baseline.kind!r} "
                f"current={current.kind!r} — not comparable"
            )
            return diff
        base_cohorts = baseline.cohorts
        curr_cohorts = current.cohorts
        for key in sorted(set(base_cohorts) - set(curr_cohorts)):
            if base_cohorts[key].count >= min_count:
                diff.warnings.append(
                    f"cohort {key}: present in baseline "
                    f"({base_cohorts[key].count} events) but absent now "
                    f"(coverage shrank)"
                )
        for key in sorted(set(curr_cohorts) - set(base_cohorts)):
            diff.notes.append(
                f"cohort {key}: new ({curr_cohorts[key].count} events), "
                f"no baseline to gate against"
            )
        for key in sorted(set(base_cohorts) & set(curr_cohorts)):
            base = base_cohorts[key]
            curr = curr_cohorts[key]
            if base.count < min_count or curr.count < min_count:
                continue
            _gate_counters(
                diff, key, base, curr, counter_threshold, counter_floor
            )
            _gate_latency(
                diff,
                key,
                base,
                curr,
                latency_threshold,
                latency_floor_s,
                advisory_latency,
            )
    return diff


def _gate_counters(
    diff: InsightDiff,
    key: str,
    base: CohortDigest,
    curr: CohortDigest,
    threshold: float,
    floor: float,
) -> None:
    for name in sorted(base.counters):
        if name not in curr.counters:
            diff.failures.append(
                f"cohort {key}: counter {name!r} disappeared from the "
                f"current summary"
            )
            continue
        base_mean = float(base.counters[name].get("mean", 0.0))
        curr_mean = float(curr.counters[name].get("mean", 0.0))
        if is_regression(
            base_mean, curr_mean, threshold=threshold, absolute_floor=floor
        ):
            diff.failures.append(
                f"cohort {key}: {name} mean "
                f"{format_growth(base_mean, curr_mean)} over "
                f"{base.count}->{curr.count} events"
            )
        elif curr_mean < base_mean and not math.isclose(
            curr_mean, base_mean, rel_tol=threshold
        ):
            diff.notes.append(
                f"cohort {key}: {name} mean improved "
                f"{format_growth(base_mean, curr_mean)}"
            )


def _gate_latency(
    diff: InsightDiff,
    key: str,
    base: CohortDigest,
    curr: CohortDigest,
    threshold: float,
    floor_s: float,
    advisory: bool,
) -> None:
    sink = diff.warnings if advisory else diff.failures
    for stat in _GATED_LATENCY_STATS:
        base_value = float(base.latency_s.get(stat, 0.0))
        curr_value = float(curr.latency_s.get(stat, 0.0))
        if is_regression(
            base_value, curr_value, threshold=threshold, absolute_floor=floor_s
        ):
            suffix = " (advisory)" if advisory else ""
            sink.append(
                f"cohort {key}: latency_s {stat} "
                f"{format_growth(base_value, curr_value)} over "
                f"{base.count}->{curr.count} events{suffix}"
            )


# ----------------------------------------------------------------------
# Top-k exemplars
# ----------------------------------------------------------------------
def top_events(
    events: Iterable[dict],
    *,
    k: int = 10,
    cohort: str | None = None,
) -> list[dict]:
    """The ``k`` slowest wide events, slowest first, optionally
    restricted to cohorts whose key contains ``cohort``."""
    heap: list[tuple[float, int, dict]] = []
    for sequence, event in enumerate(events):
        if event.get("event") != "query":
            continue
        key = cohort_of_event(event)
        if cohort and cohort not in key:
            continue
        entry = (
            float(event.get("latency_s", 0.0) or 0.0),
            -sequence,
            {**event, "cohort": key},
        )
        if len(heap) < k:
            heapq.heappush(heap, entry)
        else:
            heapq.heappushpop(heap, entry)
    return [event for _, _, event in sorted(heap, key=lambda item: -item[0])]
