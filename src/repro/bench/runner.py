"""Suite execution and ``BENCH_*.json`` emission.

The runner's contract splits every benchmark's record in two:

* ``counters`` — deterministic cost figures (pages read per pool,
  nodes settled, distance computations, memo hits, result sizes) read
  off the per-query tracing span totals via
  :class:`~repro.core.stats.QueryStats`.  The runner *verifies*
  determinism as it goes: every timing repeat re-runs the workload and
  any counter drift between repeats raises :class:`CounterDrift`
  rather than silently averaging — a nondeterministic benchmark is a
  bug, not a noisy measurement.
* ``timing_s`` — wall-time min/mean/p50/max over the repeats (query
  records add ``initial_timing_s``, the time to the first skyline
  point).  Advisory only: the comparator warns on timing movement and
  never fails on it.

A query workload measures ``trials`` query draws per repeat (seeded
``query_seed + t``, each from a cold reset); its counters and timings
are sums over the draws, so a figure view divides by ``trials`` for the
paper's per-query means.

Every query record also carries ``answer``, a digest of the skylines
its draws returned.  Query records that share a query point — network,
scale, ω, |Q|, query seed and draws — must return the same skylines
whatever the algorithm, variant, engine state, buffer or backend; the
runner raises :class:`AnswerMismatch` otherwise.  Service records are
exempt.

Warm points measure the *second* run after a cold reset (engine memo,
wavefront pool and buffers populated by an unmeasured warming run), so
"warm" is a pinned state rather than "whatever the previous workload
left behind".
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import replace
from functools import partial

from repro.core import ALGORITHMS as CORE_ALGORITHMS
from repro.core import LBC, Workspace
from repro.core.stats import QueryStats
from repro.datasets import build_preset, extract_objects, select_query_points
from repro.bench.suite import (
    NETWORK_SEED,
    OBJECT_SEED,
    REGION_FRACTION,
    QueryWorkload,
    ServiceWorkload,
    SUITE_VERSION,
    Workload,
    suite_workloads,
)

ARTIFACT_SCHEMA = "repro-bench"
ARTIFACT_SCHEMA_VERSION = 1

ALGORITHMS = {**CORE_ALGORITHMS, "LBC-noplb": partial(LBC, use_lower_bounds=False)}
"""Algorithm factories by name: :data:`repro.core.ALGORITHMS` plus the
``LBC-noplb`` ablation."""

#: The deterministic counter keys every benchmark record carries.
COUNTER_KEYS = (
    "nodes_settled",
    "network_pages",
    "index_pages",
    "middle_pages",
    "total_pages",
    "distance_computations",
    "lb_expansions",
    "engine_hits",
    "engine_misses",
    "skyline_count",
    "candidate_count",
    "object_count",
    "initial_network_pages",
    "initial_index_pages",
    "oracle_pages",
    "oracle_nodes_settled",
    "oracle_label_entries",
    "oracle_fallbacks",
)

#: The parameters that pin one query point; records sharing them must
#: return the same skylines.
QUERY_POINT_KEYS = ("network", "scale", "omega", "query_count", "query_seed", "trials")


class CounterDrift(AssertionError):
    """A workload's counters differed between two repeats."""

    def __init__(self, workload_id: str, first: dict, second: dict) -> None:
        diffs = {
            key: (first.get(key), second.get(key))
            for key in sorted(set(first) | set(second))
            if first.get(key) != second.get(key)
        }
        super().__init__(
            f"nondeterministic counters in {workload_id}: {diffs}"
        )
        self.workload_id = workload_id
        self.diffs = diffs


class AnswerMismatch(AssertionError):
    """Two query records of one query point returned different skylines."""

    def __init__(self, first_id: str, second_id: str, point: tuple) -> None:
        super().__init__(
            f"{second_id} disagrees with {first_id} on query point "
            f"{dict(zip(QUERY_POINT_KEYS, point))}"
        )
        self.workload_ids = (first_id, second_id)


class WorkloadCache:
    """Networks and workspaces built once and shared across workloads.

    Building NA and extracting thousands of objects takes longer than a
    query; every point of a suite that shares a dataset reuses its
    workspace, exactly as the paper's experiments reuse their datasets.
    """

    def __init__(self) -> None:
        self._networks: dict[tuple, object] = {}
        self._workspaces: dict[tuple, Workspace] = {}

    def network(self, workload: QueryWorkload):
        key = (workload.network, workload.scale)
        if key not in self._networks:
            self._networks[key] = build_preset(
                workload.network, scale=workload.scale, seed=NETWORK_SEED
            )
        return self._networks[key]

    def workspace(self, workload: QueryWorkload) -> Workspace:
        key = (
            workload.network,
            workload.scale,
            workload.omega,
            workload.buffer_bytes,
            workload.distance_backend,
        )
        if key not in self._workspaces:
            network = self.network(workload)
            objects = extract_objects(network, workload.omega, seed=OBJECT_SEED)
            self._workspaces[key] = Workspace.build(
                network,
                objects,
                paged=True,
                buffer_bytes=workload.buffer_bytes,
                distance_backend=workload.distance_backend,
            )
        return self._workspaces[key]

    def clear(self) -> None:
        self._networks.clear()
        self._workspaces.clear()


def _counters_of(stats: QueryStats) -> dict[str, int]:
    counters = {key: int(getattr(stats, key)) for key in COUNTER_KEYS}
    return counters


def _merge_counters(rows: list[dict[str, int]]) -> dict[str, int]:
    out: dict[str, int] = {key: 0 for key in COUNTER_KEYS}
    for row in rows:
        for key, value in row.items():
            out[key] = out.get(key, 0) + value
    return out


def _timing_summary(samples: list[float]) -> dict[str, float]:
    return {
        "repeats": len(samples),
        "min": round(min(samples), 6),
        "mean": round(statistics.fmean(samples), 6),
        "p50": round(statistics.median(samples), 6),
        "max": round(max(samples), 6),
    }


def _run_query_workload(workload: QueryWorkload, cache: WorkloadCache) -> dict:
    workspace = cache.workspace(workload)
    draws = [
        select_query_points(
            workspace.network,
            workload.query_count,
            region_fraction=REGION_FRACTION,
            seed=workload.query_seed + trial,
        )
        for trial in range(workload.trials)
    ]
    algorithm = ALGORITHMS[workload.algorithm]()
    if workload.preprocessed:
        # Build the oracle index once, before any measured repeat: the
        # repeats then pay only query-time oracle cost (its page store
        # still resets cold with everything else below).
        workspace.engine.ensure_oracle()
    counters: dict[str, int] | None = None
    answers: list[list[int]] = []
    totals: list[float] = []
    initials: list[float] = []
    for _ in range(max(1, workload.repeats)):
        rows = []
        total_s = initial_s = 0.0
        for queries in draws:
            workspace.reset_io(cold=True)
            if workload.warm:
                algorithm.run(workspace, queries)  # unmeasured warming run
            result = algorithm.run(workspace, queries)
            rows.append(_counters_of(result.stats))
            total_s += result.stats.total_response_s
            initial_s += result.stats.initial_response_s
            if counters is None:
                answers.append(result.object_ids())
        totals.append(total_s)
        initials.append(initial_s)
        repeat_counters = _merge_counters(rows)
        if counters is None:
            counters = repeat_counters
        elif counters != repeat_counters:
            raise CounterDrift(workload.workload_id, counters, repeat_counters)
    return {
        "counters": counters,
        "timing_s": _timing_summary(totals),
        "initial_timing_s": _timing_summary(initials),
        "answer": hashlib.sha256(json.dumps(answers).encode()).hexdigest()[:16],
    }


def _run_service_workload(workload: ServiceWorkload) -> dict:
    # The serving workload builds its own workspace (never the shared
    # cache): a QueryService registers its metric families on the
    # workspace registry, and two services over one workspace would
    # collide there.
    from repro.service.service import QueryService

    network = build_preset(workload.network, scale=workload.scale, seed=NETWORK_SEED)
    objects = extract_objects(network, omega=workload.omega, seed=OBJECT_SEED)
    counters: dict[str, int] | None = None
    timings: list[float] = []
    for _ in range(max(1, workload.repeats)):
        workspace = Workspace.build(
            network,
            objects,
            paged=True,
            distance_backend=workload.distance_backend,
        )
        rows: list[dict[str, int]] = []
        with QueryService(workspace, workers=1, max_batch=1) as service:
            started = time.perf_counter()
            for index in range(workload.requests):
                queries = select_query_points(
                    network,
                    workload.query_count,
                    region_fraction=REGION_FRACTION,
                    seed=workload.query_seed + index,
                )
                result = service.query(workload.algorithm, queries)
                rows.append(_counters_of(result.stats))
            timings.append(time.perf_counter() - started)
        repeat_counters = _merge_counters(rows)
        repeat_counters["requests"] = workload.requests
        if counters is None:
            counters = repeat_counters
        elif counters != repeat_counters:
            raise CounterDrift(workload.workload_id, counters, repeat_counters)
    return {"counters": counters, "timing_s": _timing_summary(timings)}


def run_workload(workload: Workload, cache: WorkloadCache) -> dict:
    """Execute one workload; returns its artifact record."""
    if isinstance(workload, QueryWorkload):
        measured = _run_query_workload(workload, cache)
    else:
        measured = _run_service_workload(workload)
    return {
        "id": workload.workload_id,
        "kind": workload.kind,
        "params": workload.params(),
        **measured,
    }


def current_revision() -> str:
    """Identify this source tree: env override, then git, then unknown."""
    rev = os.environ.get("REPRO_BENCH_REV")
    if rev:
        return rev
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def default_artifact_name(revision: str | None = None) -> str:
    return f"BENCH_{revision or current_revision()}.json"


def _progress_line(record: dict) -> str:
    counters = record["counters"]
    return (
        f"{record['id']}: pages={counters['total_pages']} "
        f"nodes={counters['nodes_settled']} "
        f"p50={record['timing_s']['p50']:.4f}s"
    )


def run_suite(
    suite: str,
    repeats: int | None = None,
    revision: str | None = None,
    progress=None,
) -> dict:
    """Run a named suite and return the artifact dictionary.

    ``repeats`` overrides every query and service workload's
    timing-repeat count (the CI quick gate uses 1: counters don't need
    repetition to be exact, and its timings are advisory anyway).
    ``progress`` is an optional ``callable(str)`` for line-by-line
    status output.  Raises :class:`CounterDrift` or
    :class:`AnswerMismatch` as soon as a workload fails either check.
    """
    workloads = suite_workloads(suite)
    cache = WorkloadCache()
    answered: dict[tuple, dict] = {}
    records = []
    for workload in workloads:
        if repeats is not None:
            workload = replace(workload, repeats=repeats)
        record = run_workload(workload, cache)
        if progress is not None:
            progress(_progress_line(record))
        if "answer" in record:
            point = tuple(record["params"][key] for key in QUERY_POINT_KEYS)
            first = answered.setdefault(point, record)
            if first["answer"] != record["answer"]:
                raise AnswerMismatch(first["id"], record["id"], point)
        records.append(record)
    return {
        "schema": ARTIFACT_SCHEMA,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "suite": suite,
        "suite_version": SUITE_VERSION,
        "revision": revision or current_revision(),
        "created_unix": round(time.time(), 3),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": records,
    }


def write_artifact(artifact: dict, path: str) -> str:
    """Write the artifact as stable, human-diffable JSON."""
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
