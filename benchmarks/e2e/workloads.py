"""The four workloads of the end-to-end benchmark, and the client that drives them.

Every workload builds its dataset from fixed seeds (network 7, objects
1, omega 0.5, 256 KiB LRU pools: the paper's setup at 5 % scale, small
enough that a run of about 15 s holds at least 100 ops and its answer
checks take seconds) and a fixed *population* of query sets.
``--seed`` draws the op stream over that population: the order of
each pass, the point permutations of fan-out followers, where the
writes of the churn stream fall and what they touch.  Keeping the
population fixed is what lets runs with different seeds compare like
with like; per-query cost on NA varies
about tenfold between query sets, so a seed-drawn population of the
size a run can afford would swamp any change under test.

Load comes from one client thread in a closed loop: the next op is
sent when the previous one has been answered.  A run is a whole number
of *passes* over the population, as many as bring it closest to
``--seconds`` but never fewer than hold ``min_samples`` op latencies,
so its percentiles have at least ten samples beyond p90.  Every pass
visits each member of the population once, so a run describes the
same population however many passes the host manages.  Service
workloads first run a whole pass untimed, so timed passes see caches
in their steady state.

The end-to-end times are scaled to a reference host speed, probed
between ops (see :mod:`hostspeed`); the raw ones go to the details.

=================  ==========================================================
paper-cold-na      Library path, the paper's own measurement: ``ALG().run``
                   with a cold reset before every query.  Pages and settled
                   nodes are exact here.
serve-fanout-au    ``QueryService``; each op submits six requests that share
                   query points, so batching, dedupe and the engine memo work.
serve-oracle-na    ``QueryService`` over hub labels: distances come from the
                   oracle, the expanders and batching are bypassed.
serve-churn-au     Fan-out's groups one request at a time, with one write
                   per seven reads (edge reweight or object removal, each
                   restored later): invalidation and write locks.
=================  ==========================================================
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
import traceback
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import (
    CE,
    EDC,
    LBC,
    NaiveSkyline,
    SkylineResult,
    Workspace,
    build_preset,
    extract_objects,
    select_query_points,
)
from repro.service.service import QueryService
from scipy.special import betainc

from hostspeed import HostSpeed
from layertrace import LAYERS, LayerTrace

ALGORITHMS = {"CE": CE, "EDC": EDC, "LBC": LBC}

NETWORK_SEED = 7
OBJECT_SEED = 1
POOL_SEED = 1000
OMEGA = 0.5
BUFFER_BYTES = 256 * 1024
WORKERS = 2
REQUEST_TIMEOUT_S = 60.0

#: Trace-file phase spans the program opens itself, read off each result.
PHASES = (
    "ce.filter",
    "ce.refine",
    "edc.euclidean",
    "edc.refine",
    "lbc.stream",
    "lbc.resolve",
)

#: Stats counters summed over executed (non-follower) queries.
STAT_COUNTERS = (
    "network_pages",
    "index_pages",
    "middle_pages",
    "oracle_pages",
    "nodes_settled",
    "lb_expansions",
    "distance_computations",
    "engine_hits",
    "engine_misses",
    "oracle_label_entries",
    "oracle_fallbacks",
    "candidate_count",
    "skyline_count",
)

#: Counters only the span tree carries.
TRACE_COUNTERS = ("rtree_nodes", "bptree_nodes", "dominance_checks")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    service: bool
    backend: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-cold-na", "NA", False, "dijkstra"),
        Workload("serve-fanout-au", "AU", True, "dijkstra"),
        Workload("serve-oracle-na", "NA", True, "hublabel"),
        Workload("serve-churn-au", "AU", True, "dijkstra"),
    )
}


@dataclass(frozen=True)
class Sizes:
    """Population and pass sizes; ``--smoke`` shrinks every one."""

    scale: float
    cold_draws: int  # paper-cold-na: draws per |Q| in COLD_SIZES
    groups: int  # fan-out/churn: groups of GROUP_SIZE points
    oracle_sets: int  # oracle: distinct sets of GROUP_SIZE points
    min_samples: int  # op latencies a run holds at least


COLD_SIZES = (2, 3, 4)
GROUP_SIZE = 4
FULL = Sizes(0.05, 12, 32, 40, 100)
SMOKE = Sizes(0.02, 1, 4, 6, 1)


class AnswerMismatch(AssertionError):
    """An answer differed from NaiveSkyline's (names workload and op)."""


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


@dataclass
class System:
    """One set-up system: the dataset, its workspace and maybe a service."""

    workspace: Workspace
    service: QueryService | None
    phases: dict[str, float]

    @property
    def network(self):
        return self.workspace.network

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


def set_up(workload: Workload, sizes: Sizes) -> System:
    """Build everything a user builds before the first query.

    ``setup_s`` covers dataset generation, object extraction, the
    paged workspace, the oracle build where the backend has one, and
    the service with its workers running.
    """
    started = time.perf_counter()
    network = build_preset(workload.preset, scale=sizes.scale, seed=NETWORK_SEED)
    built = time.perf_counter()
    objects = extract_objects(network, omega=OMEGA, seed=OBJECT_SEED)
    extracted = time.perf_counter()
    workspace = Workspace.build(
        network,
        objects,
        buffer_bytes=BUFFER_BYTES,
        distance_backend=workload.backend,
    )
    assembled = time.perf_counter()
    workspace.engine.ensure_oracle()
    indexed = time.perf_counter()
    service = QueryService(workspace, workers=WORKERS) if workload.service else None
    ready = time.perf_counter()
    phases = {
        "network_build_s": built - started,
        "objects_s": extracted - built,
        "workspace_build_s": assembled - extracted,
        "oracle_build_s": indexed - assembled,
        "setup_s": ready - started,
    }
    return System(workspace, service, phases)


def time_set_up(workload: Workload, sizes: Sizes,
                speed: HostSpeed) -> tuple[float, float]:
    """``setup_s`` of one more system, scaled and raw; the system is
    then thrown away.

    The run takes such samples between timed passes and reports their
    median.  The run's own system is not a sample: the first set-up in
    a process also pays lazy imports (the network generator's SciPy).
    """
    before = speed.probe()
    system = set_up(workload, sizes)
    seconds = system.phases["setup_s"]
    scaled = seconds * speed.scale(before, speed.probe())
    system.close()
    del system
    gc.collect()  # now, not as a full collection inside the next pass
    return scaled, seconds


# ----------------------------------------------------------------------
# Populations and op streams
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One client op; ``key`` names its inputs in logs and answer checks."""

    kind: str  # "query" | "fanout" | "write"
    key: tuple
    algorithm: str = ""
    queries: tuple = ()
    order: tuple = ()  # fan-out: the followers' permutation of the points


class Stream:
    """A workload's fixed population and its seeded passes."""

    def __init__(self, workload: Workload, network, sizes: Sizes, seed: int):
        self.workload = workload
        self.seed = seed
        if workload.name == "paper-cold-na":
            # One algorithm per set, rotating so each meets each |Q|
            # equally often: distinct sets spread the latencies more
            # evenly than fewer sets under all three algorithms would,
            # which keeps the percentiles off gaps between clusters.
            specs = [
                (size, POOL_SEED + 10 * draw + size, tuple(ALGORITHMS)[(draw + k) % 3])
                for draw in range(sizes.cold_draws)
                for k, size in enumerate(COLD_SIZES)
            ]
        elif workload.name == "serve-oracle-na":
            specs = [
                (GROUP_SIZE, POOL_SEED + index, ("LBC", "EDC")[index % 2])
                for index in range(sizes.oracle_sets)
            ]
        else:
            # Fan-out runs every group under all three algorithms; churn
            # reads each under the one named here.
            specs = [
                (GROUP_SIZE, POOL_SEED + index, tuple(ALGORITHMS)[index % 3])
                for index in range(sizes.groups)
            ]
        self.sets = [
            tuple(select_query_points(network, size, seed=seed))
            for size, seed, _ in specs
        ]
        self.algorithms = [algorithm for _, _, algorithm in specs]
        self.edges = sorted(e.edge_id for e in network.edges() if e.geometry is None)

    def pass_ops(self, pass_index: int, object_ids: list[int]) -> list[Op]:
        rng = random.Random(f"{self.workload.name}/{self.seed}/{pass_index}")
        name = self.workload.name
        if name == "serve-fanout-au":
            identity = tuple(range(GROUP_SIZE))
            visits = list(range(len(self.sets)))
            rng.shuffle(visits)
            ops = []
            for group in visits:
                order = identity
                while order == identity:
                    order = tuple(rng.sample(identity, GROUP_SIZE))
                ops.append(Op("fanout", (group, order), "", self.sets[group], order))
            return ops
        ops = [
            Op("query", (index, algorithm), algorithm, queries)
            for index, (queries, algorithm) in enumerate(
                zip(self.sets, self.algorithms)
            )
        ]
        rng.shuffle(ops)
        if name == "serve-churn-au":
            return self._with_writes(ops, rng, object_ids)
        return ops

    def _with_writes(self, reads: list[Op], rng: random.Random,
                     object_ids: list[int]) -> list[Op]:
        """One write among every seven reads.

        Writes alternate mutate / restore, so the workspace is pristine
        again at the end of every pass and at most one change is live.
        """
        segments = [reads[i:i + 7] for i in range(0, len(reads), 7)]
        ops: list[Op] = []
        target = None
        for index, segment in enumerate(segments):
            if index % 2 == 0:
                if (index // 2) % 2 == 0:
                    target = ("reweight", rng.choice(self.edges))
                else:
                    target = ("remove", rng.choice(object_ids))
                write = Op("write", target)
            else:
                write = Op("write", ("restore",) + target)
            segment.insert(rng.randrange(len(segment) + 1), write)
            ops.extend(segment)
        if len(segments) % 2 == 1:
            ops.append(Op("write", ("restore",) + target))
        return ops


# ----------------------------------------------------------------------
# The closed-loop client
# ----------------------------------------------------------------------


@dataclass
class Collector:
    """Everything one phase measures, reduced as it goes."""

    #: read-op latencies scaled to the reference host speed, and raw
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    answered: int = 0
    failed: int = 0
    passes: int = 0
    #: summed op latencies (reads and writes), raw and scaled
    elapsed_s: float = 0.0
    scaled_s: float = 0.0
    counters: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(STAT_COUNTERS + TRACE_COUNTERS, 0.0)
    )
    executed_by_algorithm: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(ALGORITHMS, 0)
    )
    exec_s_by_algorithm: dict[str, list[float]] = field(
        default_factory=lambda: {name: [] for name in ALGORITHMS}
    )
    phase_s: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0)
    )
    queue_waits: list[float] = field(default_factory=list)
    execs: list[float] = field(default_factory=list)
    io_logical: int = 0
    io_physical: int = 0
    answers: dict[tuple, list] = field(default_factory=dict)
    op_records: list[dict] = field(default_factory=list)

    def add(self, algorithm: str, result: SkylineResult, request_latency_s=None):
        """Fold in one answer; followers count as answers, not as work."""
        self.answered += 1
        stats = result.stats
        if request_latency_s is not None:
            self.queue_waits.append(
                max(0.0, request_latency_s - stats.total_response_s)
            )
            self.execs.append(stats.total_response_s)
        if stats.extras.get("deduped"):
            return
        for name in STAT_COUNTERS:
            self.counters[name] += getattr(stats, name)
        self.executed_by_algorithm[algorithm] += 1
        self.exec_s_by_algorithm[algorithm].append(stats.total_response_s)
        root = result.trace
        if root is None:
            return
        totals = root.totals()
        for name in TRACE_COUNTERS:
            self.counters[name] += totals.get(name, 0.0)
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.name in self.phase_s:
                self.phase_s[node.name] += node.duration_s - sum(
                    child.duration_s for child in node.children
                )


def pool_reads(workspace: Workspace) -> tuple[int, int]:
    """(logical, physical) reads summed over every buffer pool."""
    pools = [workspace.store, workspace.rtree_pager, workspace.middle_pager]
    stats = [pool.stats for pool in pools if pool is not None]
    oracle = workspace.engine.oracle_io_stats()
    if oracle is not None:
        stats.append(oracle)
    return (
        sum(s.logical_reads for s in stats),
        sum(s.physical_reads for s in stats),
    )


class Client:
    """Runs ops against one system, timing each on ``perf_counter``."""

    def __init__(self, system: System):
        self.system = system
        self.trace: LayerTrace | None = None
        self.speed = HostSpeed()
        self.saved: dict[tuple, object] = {}
        self.writes = 0
        self.op_index = 0

    def run(self, op: Op, collector: Collector, keep_answers: bool) -> None:
        """Execute one op, then probe the host speed.

        The op's time is scaled by the probe taken right before it
        (after the previous op, or when the pass started) and this one.
        """
        before = self.speed.last
        if op.kind == "write":
            latency = self._write(op)
            collector.write_latencies.append(latency)
        elif self.system.service is None:
            latency = self._library_query(op, collector, keep_answers)
        else:
            latency = self._service_op(op, collector, keep_answers)
        scaled = latency * self.speed.scale(before, self.speed.probe())
        if op.kind != "write":
            collector.latencies.append(scaled)
            collector.raw_latencies.append(latency)
        collector.elapsed_s += latency
        collector.scaled_s += scaled
        collector.op_records.append(
            {"op": self.op_index, "kind": op.kind, "latency_s": latency}
        )
        self.op_index += 1

    def _start(self) -> float:
        """Open the op's timed window (and tag spans with the op)."""
        if self.trace is not None:
            self.trace.op = self.op_index
        return time.perf_counter()

    def _stop(self, started: float) -> float:
        latency = time.perf_counter() - started
        if self.trace is not None:
            self.trace.op = -1
        return latency

    def _library_query(self, op: Op, collector: Collector, keep: bool) -> float:
        workspace = self.system.workspace
        workspace.reset_io(cold=True)
        algorithm = ALGORITHMS[op.algorithm]()
        collector.attempted += 1
        started = self._start()
        result = algorithm.run(workspace, list(op.queries))
        latency = self._stop(started)
        logical, physical = pool_reads(workspace)
        collector.io_logical += logical
        collector.io_physical += physical
        collector.add(op.algorithm, result, None)
        if keep:
            collector.answers.setdefault(op.key, result.points)
        return latency

    def _service_op(self, op: Op, collector: Collector, keep: bool) -> float:
        service = self.system.service
        if op.kind == "fanout":
            requests = [
                (algorithm, order)
                for algorithm in ("LBC", "EDC", "CE")
                for order in (tuple(range(len(op.queries))), op.order)
            ]
        else:
            requests = [(op.algorithm, tuple(range(len(op.queries))))]
        started = self._start()
        pendings = []
        for algorithm, order in requests:
            collector.attempted += 1
            try:
                pendings.append(
                    (
                        algorithm,
                        order,
                        service.submit(algorithm, [op.queries[i] for i in order]),
                    )
                )
            except Exception:  # Overloaded, BadRequest: a failed request
                collector.failed += 1
                traceback.print_exc()
        outcomes = []
        for algorithm, order, pending in pendings:
            try:
                outcomes.append((algorithm, order, pending, pending.result(
                    timeout=REQUEST_TIMEOUT_S
                )))
            except Exception:  # DeadlineExceeded, a failed unit, a timeout
                collector.failed += 1
                traceback.print_exc()
        latency = self._stop(started)
        for algorithm, order, pending, result in outcomes:
            span = getattr(pending.request, "span", None)
            collector.add(
                algorithm,
                result,
                span.duration_s if span is not None else latency,
            )
            if keep:
                collector.answers.setdefault(
                    (op.key[0], order, algorithm), result.points
                )
        return latency

    def _write(self, op: Op) -> float:
        service = self.system.service
        workspace = self.system.workspace
        action, target = op.key[-2], op.key[-1]
        restoring = op.key[0] == "restore"
        if action == "reweight":
            if restoring:
                length = self.saved.pop(("edge", target))
            else:
                length = workspace.network.edge(target).length
                self.saved[("edge", target)] = length
                length *= 1.25
            started = self._start()
            service.update_edge_length(target, length)
        elif restoring:
            obj = self.saved.pop(("object", target))
            started = self._start()
            service.add_object(obj)
        else:
            self.saved[("object", target)] = workspace.objects.get(target)
            started = self._start()
            service.remove_object(target)
        latency = self._stop(started)
        self.writes += 1
        return latency

    def restore_all(self) -> None:
        """Undo writes still live (a phase may stop mid-pass), untimed."""
        trace, self.trace = self.trace, None
        for kind, target in list(self.saved):
            action = "reweight" if kind == "edge" else "remove"
            self._write(Op("write", ("restore", action, target)))
        self.trace = trace


@contextmanager
def frozen_heap():
    """Keep the set-up heap out of the collector for a timed phase.

    The network, indexes and objects are ~10^5 objects on NA; a full
    collection over them takes up to 60 ms and would land inside
    whichever query happened to trigger it.  Garbage made by queries
    is still collected as usual.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def start_pass(stream: Stream, workspace: Workspace) -> None:
    if stream.workload.name == "serve-oracle-na":
        # Distinct queries every pass: start each from an empty memo.
        workspace.engine.clear()


def run_passes(client: Client, stream: Stream, seconds: float, min_samples: int,
               collector: Collector, after_pass: Callable[[], None]) -> None:
    """Timed phase: whole passes from pass 1 until ``seconds`` is best met.

    Stops after the pass that brings the summed op latencies closest to
    ``seconds``, so a run lasts about as long on a slow host as on a
    fast one, but not before ``min_samples`` op latencies are in.  On
    the library path an op is the ``run()`` call, so cold resets are
    excluded.  ``after_pass`` runs, untimed, after every pass.
    """
    workspace = client.system.workspace
    with frozen_heap():
        while True:
            ops = stream.pass_ops(collector.passes + 1, _object_ids(workspace))
            start_pass(stream, workspace)
            client.speed.probe()  # the first op's "before"
            for op in ops:
                client.run(op, collector, keep_answers=collector.passes == 0)
            collector.passes += 1
            after_pass()
            if (
                collector.elapsed_s * (1 + 0.5 / collector.passes) >= seconds
                and len(collector.latencies) >= min_samples
            ):
                break
    client.restore_all()


def warm_up(client: Client, stream: Stream) -> None:
    """Pass 0, untimed: fill caches, finish lazy set-up.

    A whole pass, so the first timed pass finds the memo as full as the
    later ones do; were it colder, the metrics would shift with the
    number of passes a run fits in.
    """
    if client.system.service is None:
        return
    discarded = Collector()
    start_pass(stream, client.system.workspace)
    for op in stream.pass_ops(0, _object_ids(client.system.workspace)):
        client.run(op, discarded, keep_answers=False)
    client.restore_all()
    client.op_index = 0


def _object_ids(workspace: Workspace) -> list[int]:
    return sorted(obj.object_id for obj in workspace.objects)


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------


class Checker:
    """Compares answers with NaiveSkyline on an unpaged workspace."""

    def __init__(self, workload: Workload, network, objects):
        self.workload = workload
        self.workspace = Workspace.build(network, objects, paged=False)
        self.naive: dict[tuple, SkylineResult] = {}
        self.checked = 0
        self.bit_exact = 0

    def reference(self, queries: tuple) -> SkylineResult:
        key = tuple(id(q) for q in queries)
        if key not in self.naive:
            self.naive[key] = NaiveSkyline().run(self.workspace, list(queries))
        return self.naive[key]

    def compare(self, op_name: str, points, queries: tuple) -> None:
        want = self.reference(queries)
        got = SkylineResult(points=list(points))
        if not got.same_answer(want, tol=1e-9):
            missing = sorted(set(want.object_ids()) - set(got.object_ids()))
            extra = sorted(set(got.object_ids()) - set(want.object_ids()))
            raise AnswerMismatch(
                f"{self.workload.name}: wrong answer for {op_name} "
                f"(missing ids {missing[:10]}, extra ids {extra[:10]}, "
                "or vectors off by more than 1e-9 relative)"
            )
        self.checked += 1
        self.bit_exact += got.vectors_by_id() == want.vectors_by_id()

    def check_phase(self, stream: Stream, collector: Collector) -> None:
        """The coverage each workload promises (see README)."""
        name = self.workload.name
        for index, (key, points) in enumerate(collector.answers.items()):
            if name == "paper-cold-na":
                set_index, algorithm = key
                queries = stream.sets[set_index]
            elif name == "serve-oracle-na":
                if index % 4:
                    continue
                set_index, _, algorithm = key
                queries = stream.sets[set_index]
            elif name == "serve-fanout-au":
                group, order, algorithm = key
                queries = tuple(stream.sets[group][i] for i in order)
            else:
                continue
            self.compare(f"op {key} ({algorithm})", points, queries)

    def check_churn(self, stream: Stream, system: System, version_before: int,
                    writes: int) -> None:
        """After every write is restored, no cache may answer stale."""
        workspace = system.workspace
        if workspace.version != version_before + writes:
            raise AnswerMismatch(
                f"{self.workload.name}: workspace version moved by "
                f"{workspace.version - version_before}, expected {writes}"
            )
        for group, (queries, algorithm) in enumerate(
            zip(stream.sets, stream.algorithms)
        ):
            result = system.service.query(algorithm, list(queries))
            self.compare(f"replay of group {group} ({algorithm})",
                         result.points, queries)
        service = system.service
        service.close()
        if service.queue_depth() or service.inflight.count():
            raise AnswerMismatch(
                f"{self.workload.name}: {service.queue_depth()} queued and "
                f"{service.inflight.count()} in-flight requests left at close"
            )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A mean of all order statistics, weighted by a Beta distribution
    centred on the percentile.  A fixed population puts its latencies
    in clusters, one per member; the usual estimate, which reads one
    or two order statistics, then jumps across the gap between two
    clusters on a few percent of noise, while this one moves smoothly.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    p = q / 100
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), [i / n for i in range(n + 1)])
    return sum(
        (cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered)
    )


def end_to_end_metrics(answered: int, timed_s: float, latencies: list[float],
                       setup_s: float) -> dict[str, float]:
    """Throughput over the summed op latencies, and percentiles of the
    run's pooled read-op latencies."""
    return {
        "setup_s": setup_s,
        "throughput_qps": answered / timed_s,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
    }


def exact_counters(collector: Collector) -> dict[str, float]:
    """The paper's cost counters (Figs. 5(a)/6(a)), per answered query."""
    queries = max(collector.answered, 1)
    c = collector.counters
    pages = sum(c[f"{pool}_pages"] for pool in ("network", "index", "middle", "oracle"))
    return {
        "pages_per_query": pages / queries,
        "network.nodes_settled_per_query": c["nodes_settled"] / queries,
    }


def layer_metrics(collector: Collector, phases: dict, delta: dict,
                  checker: Checker) -> dict[str, float]:
    """Per-layer counters of an untraced phase (per answered query)."""
    queries = max(collector.answered, 1)
    c = collector.counters
    lookups = c["engine_hits"] + c["engine_misses"]
    metrics = {
        **exact_counters(collector),
        "write_latency_p50_ms": percentile(collector.write_latencies, 50) * 1e3,
        "service.queue_wait_ms_p50": percentile(collector.queue_waits, 50) * 1e3,
        "service.exec_ms_p50": percentile(collector.execs, 50) * 1e3,
        "batching.requests_per_plan": (
            delta["requests_batched"] / delta["executed"]
            if delta["executed"] else 0.0
        ),
        "batching.dedupe_frac": delta["deduped"] / queries,
        "core.skyline_per_candidate": (
            c["skyline_count"] / c["candidate_count"] if c["candidate_count"] else 0.0
        ),
        "core.vectors_bit_exact_frac": (
            checker.bit_exact / checker.checked if checker.checked else 0.0
        ),
        "engine.memo_hit_ratio": c["engine_hits"] / lookups if lookups else 0.0,
        "engine.distance_computations_per_query": c["distance_computations"] / queries,
        "engine.invalidations": float(delta["invalidations"]),
        "network.lb_expansions_per_query": c["lb_expansions"] / queries,
        "oracle.label_entries_per_query": c["oracle_label_entries"] / queries,
        "oracle.fallbacks": c["oracle_fallbacks"],
        "oracle.build_s": phases["oracle_build_s"],
        "storage.fetches_per_query": collector.io_logical / queries,
        "storage.hit_ratio": (
            1.0 - collector.io_physical / collector.io_logical
            if collector.io_logical else 0.0
        ),
        "index.rtree_nodes_per_query": c["rtree_nodes"] / queries,
        "index.bptree_nodes_per_query": c["bptree_nodes"] / queries,
        "columnar.dominance_checks_per_query": c["dominance_checks"] / queries,
        "datasets.network_build_s": phases["network_build_s"],
        "datasets.objects_s": phases["objects_s"],
        "datasets.workspace_build_s": phases["workspace_build_s"],
    }
    for pool in ("network", "index", "middle", "oracle"):
        metrics[f"storage.{pool}_pages_per_query"] = c[f"{pool}_pages"] / queries
    for algorithm, samples in collector.exec_s_by_algorithm.items():
        metrics[f"core.{algorithm}.exec_ms_p50"] = percentile(samples, 50) * 1e3
    for phase in PHASES:
        algorithm = phase.split(".")[0].upper()
        runs = collector.executed_by_algorithm[algorithm]
        metrics[f"core.{phase}_ms"] = (
            collector.phase_s[phase] / runs * 1e3 if runs else 0.0
        )
    return metrics


def service_counters(system: System) -> dict[str, int]:
    if system.service is None:
        return {"executed": 0, "requests_batched": 0, "deduped": 0}
    stats = system.service.stats_dict()
    return {
        "executed": stats["batches"]["executed"],
        "requests_batched": stats["batches"]["requests_batched"],
        "deduped": stats["requests"]["deduped"],
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


@dataclass
class Report:
    """One run's outcome: the metrics plus what they were measured over."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    details: dict


@dataclass
class Lane:
    """One set-up system with its op stream, client and measurements."""

    system: System
    stream: Stream
    client: Client
    checker: Checker | None
    collector: Collector = field(default_factory=Collector)
    before: dict = field(default_factory=dict)


def _counts(lane: Lane) -> dict[str, int]:
    """Monotone counters, read on both sides of a timed phase."""
    workspace = lane.system.workspace
    logical, physical = pool_reads(workspace)
    return {
        **service_counters(lane.system),
        "version": workspace.version,
        "writes": lane.client.writes,
        "invalidations": workspace.engine.counters.invalidations,
        "io_logical": logical,
        "io_physical": physical,
    }


def _lane(workload: Workload, sizes: Sizes, seed: int, system: System,
          checked: bool) -> Lane:
    """A warmed-up lane; ``checked`` lanes also get a NaiveSkyline checker."""
    stream = Stream(workload, system.network, sizes, seed)
    checker = None
    if checked:
        checker = Checker(workload, system.network, system.workspace.objects)
        if workload.name == "serve-churn-au":
            for queries in stream.sets:
                checker.reference(queries)  # pristine answers, before any write
    client = Client(system)
    warm_up(client, stream)
    lane = Lane(system, stream, client, checker)
    lane.before = _counts(lane)
    return lane


def _finish(lane: Lane) -> dict[str, int]:
    """Counter deltas of the timed phase, then the answer checks."""
    after = _counts(lane)
    delta = {key: after[key] - lane.before[key] for key in after}
    if lane.system.service is not None:
        # The library path resets the pools per query and reads them then.
        lane.collector.io_logical += delta["io_logical"]
        lane.collector.io_physical += delta["io_physical"]
    lane.checker.check_phase(lane.stream, lane.collector)
    if lane.stream.workload.name == "serve-churn-au":
        lane.checker.check_churn(
            lane.stream, lane.system, lane.before["version"], delta["writes"]
        )
    return delta


def run(name: str, seed: int, seconds: float, trace_path: str | None,
        smoke: bool) -> Report:
    """One run: untimed set-up, timed phase, answer checks, metrics.

    With ``trace_path`` the run measures the per-layer metrics instead
    (see :func:`_traced_run`).
    """
    workload = WORKLOADS[name]
    sizes = SMOKE if smoke else FULL
    if trace_path is not None:
        return _traced_run(workload, sizes, seed, trace_path)
    system = set_up(workload, sizes)
    setups: list[tuple[float, float]] = []  # (scaled, raw) seconds
    try:
        lane = _lane(workload, sizes, seed, system, checked=True)
        collector = lane.collector
        speed = lane.client.speed

        def sample_set_up() -> None:
            # One sample after every pass, more while they take under a
            # tenth of the timed time, and three at least.
            setups.append(time_set_up(workload, sizes, speed))
            while sum(raw for _, raw in setups) < 0.1 * collector.elapsed_s:
                setups.append(time_set_up(workload, sizes, speed))

        run_passes(
            lane.client, lane.stream, seconds, sizes.min_samples, collector,
            sample_set_up,
        )
        while len(setups) < 3:
            sample_set_up()
        _finish(lane)
    finally:
        system.close()
    scaled_setup, raw_setup = (statistics.median(column) for column in zip(*setups))
    return Report(
        end_to_end_metrics(
            collector.answered, collector.scaled_s, collector.latencies, scaled_setup
        ),
        collector.attempted,
        collector.failed,
        {
            "raw": end_to_end_metrics(
                collector.answered, collector.elapsed_s, collector.raw_latencies,
                raw_setup,
            ),
            "probe_ms_p50": statistics.median(speed.samples) * 1e3,
            "passes": collector.passes,
            "ops": len(collector.op_records),
            "latency_samples": len(collector.latencies),
            "setup_samples": len(setups),
            "queries": collector.answered,
            "answers_checked": lane.checker.checked,
            "timed_s": collector.elapsed_s,
            "counters": exact_counters(collector),
        },
    )


def _replay_pass(plain: Lane, traced: Lane, layer_trace: LayerTrace) -> None:
    """Pass 1 on both lanes, alternating op by op.

    A whole pass visits the whole population, so the untraced lane's
    counters do not depend on ``--seed`` where the work per query does
    not (``paper-cold-na``).  Both systems run under the same host
    speed, so ``trace.overhead_ratio`` measures the shims and not how
    the host drifted between two phases (on a shared host, by up to
    1.8x).  Which lane goes first alternates too.
    """
    lanes = [plain, traced]
    ops = [
        lane.stream.pass_ops(1, _object_ids(lane.system.workspace)) for lane in lanes
    ]
    for lane in lanes:
        start_pass(lane.stream, lane.system.workspace)
    pairs = list(zip(lanes, ops))
    with frozen_heap():
        for index in range(len(ops[0])):
            for lane, lane_ops in pairs if index % 2 == 0 else pairs[::-1]:
                if lane is traced:
                    with layer_trace:
                        lane.client.run(lane_ops[index], lane.collector, False)
                else:
                    lane.client.run(lane_ops[index], lane.collector, True)
    for lane in lanes:
        lane.client.restore_all()


def _traced_run(workload: Workload, sizes: Sizes, seed: int,
                trace_path: str) -> Report:
    """Per-layer metrics from two systems set up in this fresh process.

    The untraced lane gives the counters, the answer checks and the
    baseline latency; the traced lane replays the same ops under
    :class:`LayerTrace`.
    """
    systems: list[System] = []
    try:
        systems.append(set_up(workload, sizes))
        # The second set-up gives the datasets.* figures: the first in
        # a process also pays lazy imports.
        systems.append(set_up(workload, sizes))
        plain = _lane(workload, sizes, seed, systems[0], checked=True)
        traced = _lane(workload, sizes, seed, systems[1], checked=False)
        layer_trace = LayerTrace()
        traced.client.trace = layer_trace
        _replay_pass(plain, traced, layer_trace)
        delta = _finish(plain)
    finally:
        for system in systems:
            system.close()
    metrics = layer_metrics(plain.collector, systems[1].phases, delta, plain.checker)
    records = traced.collector.op_records
    summary = layer_trace.summary(sum(record["latency_s"] for record in records))
    queries = max(traced.collector.answered, 1)
    for layer in LAYERS:
        seconds_self = summary["self_s_by_layer"][layer]
        if layer == "obs":
            metrics["obs.self_us_per_query"] = seconds_self / queries * 1e6
        else:
            metrics[f"{layer}.self_ms_per_query"] = seconds_self / queries * 1e3
    metrics["service.key_wait_ms_per_query"] = summary["wait_s"] / queries * 1e3
    metrics["trace.overhead_ratio"] = statistics.fmean(
        r["latency_s"] for r in records
    ) / statistics.fmean(r["latency_s"] for r in plain.collector.op_records)
    metrics["trace.unattributed_frac"] = summary["unattributed_frac"]
    layer_trace.write(
        trace_path,
        {"workload": workload.name, "seed": seed, "queries": queries},
        records,
        summary,
    )
    return Report(
        metrics,
        plain.collector.attempted + traced.collector.attempted,
        plain.collector.failed + traced.collector.failed,
        {
            "pass_ops": len(records),
            "queries": plain.collector.answered,
            "traced_queries": traced.collector.answered,
            "answers_checked": plain.checker.checked,
            "spans": summary["spans"],
            "trace_file": os.path.basename(trace_path),
        },
    )
