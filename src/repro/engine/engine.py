"""The unified distance service every layer routes through.

One :class:`DistanceEngine` per :class:`~repro.core.query.Workspace`
owns all network-distance work:

* an **expander pool** keeping resumable wavefronts alive, so repeated
  calls with the same source location continue a previous expansion
  instead of restarting it (the paper's Section 6.1 maintained-state
  idea, promoted from per-algorithm bookkeeping to a shared service).
  CE's INE wavefronts are pooled too: each query reads one through its
  own :class:`~repro.network.dijkstra.EmissionCursor`, which replays
  what the wavefront already emitted before driving it further.  So is
  each query point's hub-label column
  (:class:`~repro.oracle.runtime.LabelColumn`), which keeps the node
  distances a ``hublabel`` oracle scanned from the point's seeds.
  While a hub-label oracle is usable it answers every lookup from the
  column, and no memo is read or written: the column is the point's
  table of resolved distances.  Algorithms check a column out once per
  query point per query (:meth:`label_column`) and hand it to each
  lookup;
* a bounded LRU **memo** of settled ``(source, target) -> distance``
  results that cost a search (online wavefronts, CH lookups), shared
  across queries, algorithms and backends; :meth:`known_distance`
  reads it (or a usable oracle) without searching, so LBC starts each
  candidate from every exact distance the engine already holds;
* pluggable **backends** (:mod:`repro.engine.backends`) selected
  per-engine or per-call;
* batch helpers (:meth:`distances`, :meth:`vectors`) that sweep every
  target of one source before the next, so each pooled wavefront
  serves a whole column;
* the workspace's ``store`` threaded into every expander it builds, so
  page reads are charged by default — call sites can no longer forget.

Cached state is only as good as the graph it was computed on; the
workspace's mutation paths call :meth:`invalidate` (object churn) or
:meth:`invalidate_network` (edge-weight changes, which additionally
reset backend precomputation such as landmark tables).

Construction discipline: outside :mod:`repro.engine` and
:mod:`repro.network`, nothing instantiates
:class:`~repro.network.dijkstra.DijkstraExpander` or
:class:`~repro.network.astar.AStarExpander` directly — a grep-enforced
test (``tests/test_engine.py``) keeps it that way.

Concurrency contract
--------------------
The engine's *bookkeeping* is thread-safe: the distance memo and the
expander pool are guarded by locks, so concurrent threads can look up
and record distances, check expanders out of the pool, and trigger
invalidations without corrupting the LRU structures or losing counter
updates.  What is **not** safe is two threads *driving the same
expander object* at the same time — a resumable wavefront is one
priority queue and one settled map, and interleaved ``distance_to``
calls on it would interleave two searches.  Callers that share an
engine across threads must therefore partition work so that no two
concurrently-executing queries share a source location (pool keys are
per-source; INE wavefronts, read through per-query cursors, and label
columns fall under the same rule).  The serving layer
(:mod:`repro.service`) enforces exactly that: its batch scheduler
never lets two in-flight batches overlap in query points, and
workspace mutations run behind a writer-exclusive lock (see
:meth:`Workspace.mutating <repro.core.query.Workspace.mutating>`), so
invalidation never races a live wavefront.  Single-threaded use is
unaffected.

Per-query counter *deltas* (``nodes_settled``, memo hit/miss) are only
meaningful when one query runs at a time; under concurrency they
describe the engine as a whole, which is what ``/statsz`` reports.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

from repro.engine.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    ORACLE_BACKEND_NAMES,
    DistanceBackend,
    make_backend,
    mirror_oracle_store,
)
from repro.engine.cache import DEFAULT_MEMO_CAPACITY, DistanceMemo
from repro.network.astar import AStarExpander
from repro.network.dijkstra import DijkstraExpander, EmissionCursor
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.storage import NetworkStore
from repro.obs import tracing
from repro.oracle import OracleIndex, OracleIndexError, network_signature
from repro.oracle.runtime import DistanceOracle, LabelColumn

#: Pooled wavefronts and label columns kept alive.  One
#: ``serve-fanout-au`` pass checks out 252 distinct A* keys plus 124
#: INE keys, and one ``serve-oracle-na`` pass 159 A* keys (EDC's and
#: LBC's) plus 157 label columns, so 512 holds a pass with room to
#: spare: seeds 1 and 2 evict nothing.  128 held less than one.
DEFAULT_POOL_CAPACITY = 512


@dataclass(frozen=True)
class EngineCounters:
    """A snapshot of the engine's monotone counters.

    ``hits``/``misses``/``evictions`` describe the distance memo;
    ``pool_reuses``/``pool_evictions`` the expander pool;
    ``invalidations`` counts mutation-triggered cache drops.  Per-query
    figures are deltas between two snapshots (see ``core/base.py``).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    pool_reuses: int = 0
    pool_evictions: int = 0


def location_key(location: NetworkLocation) -> tuple:
    """A hashable, purely numeric identity for a network location.

    Public because the serving layer batches and partitions requests by
    the same identity the pool is keyed on.
    """
    if location.node_id is not None:
        return (0, location.node_id, 0.0)
    return (1, location.edge_id, location.offset)


# Internal alias kept for the pool/memo key helpers below.
_location_key = location_key


def _pair_key(a: NetworkLocation, b: NetworkLocation) -> tuple:
    """Order-free memo key — the network is undirected, so d is symmetric."""
    ka = _location_key(a)
    kb = _location_key(b)
    return (ka, kb) if ka <= kb else (kb, ka)


class DistanceEngine:
    """Single entry point for all network-distance computation."""

    def __init__(
        self,
        network: RoadNetwork,
        store: NetworkStore | None = None,
        placements=None,
        backend: str = DEFAULT_BACKEND,
        pool_capacity: int = DEFAULT_POOL_CAPACITY,
    ) -> None:
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown distance backend {backend!r}; "
                f"choose from {BACKEND_NAMES}"
            )
        if pool_capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {pool_capacity}")
        self.network = network
        self.store = store
        self.placements = placements
        self.backend_name = backend
        self.pool_capacity = pool_capacity

        self._backends: dict[str, DistanceBackend] = {}
        self._attached_oracle: DistanceOracle | None = None
        # True while a hub-label oracle is usable (backend-owned, or
        # attached and not stale): lookups then answer from label
        # columns and skip the memo.  A plain attribute, so engines
        # without one pay a single read per lookup.
        self._hub_labels = backend == "hublabel"
        self._pool: OrderedDict[tuple, object] = OrderedDict()
        self._memo = DistanceMemo(DEFAULT_MEMO_CAPACITY)
        self._retired_nodes = 0
        self._pool_reuses = 0
        self._pool_evictions = 0
        # Guards the pool's OrderedDict, the backend registry and the
        # invalidation-coalescing state; reentrant because invalidation
        # paths nest (see the module docstring's concurrency contract).
        self._lock = threading.RLock()
        self._invalidation_depth = 0
        self._pending_invalidation = 0  # 0 none, 1 objects, 2 network

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def _backend(self, name: str | None = None) -> DistanceBackend:
        name = name or self.backend_name
        with self._lock:
            backend = self._backends.get(name)
            if backend is None:
                backend = make_backend(name, self.network, store=self.store)
                self._backends[name] = backend
            return backend

    # ------------------------------------------------------------------
    # Distance oracle (preprocessed index)
    # ------------------------------------------------------------------
    def attach_oracle(self, index: OracleIndex) -> DistanceOracle:
        """Adopt a persisted index as this engine's distance oracle.

        The index must carry the signature of *this* network — an index
        built on any other graph (or this graph before a mutation) is
        rejected instead of silently answering wrong distances.  The
        oracle's records live behind their own page store, sized like
        the workspace's network store, so lookups pay page accounting.
        """
        signature = network_signature(self.network)
        if index.signature != signature:
            raise OracleIndexError(
                "oracle index signature does not match this network "
                f"(index {index.signature[:12]}…, network {signature[:12]}…)"
            )
        handle = DistanceOracle(
            index,
            self.network,
            store=mirror_oracle_store(index, self.network, self.store),
        )
        with self._lock:
            self._attached_oracle = handle
            self._hub_labels = handle.kind == "hublabel"
        return handle

    def _usable_oracle(self, build: bool) -> DistanceOracle | None:
        """The oracle that may answer right now, or ``None``.

        An explicitly attached handle wins; otherwise an oracle backend
        supplies its own (built lazily when ``build`` is set).  A stale
        handle — the network mutated underneath a persisted index —
        refuses to answer: the fallback is recorded and the caller
        resolves online.
        """
        handle = self._attached_oracle
        if handle is None and self.backend_name in ORACLE_BACKEND_NAMES:
            # The registry only grows, under the lock, so a plain read
            # finds a built backend; only the first lookup locks.
            backend = self._backends.get(self.backend_name) or self._backend()
            handle = backend.oracle() if build else backend.oracle_if_built()
        if handle is None:
            return None
        if handle.stale:
            tracing.record("oracle_fallbacks")
            return None
        return handle

    def oracle_distance(
        self,
        source: NetworkLocation,
        target: NetworkLocation,
        column: LabelColumn | None = None,
    ) -> float | None:
        """Distance answered from the index, or ``None`` to fall back.

        ``None`` means *no usable oracle* (none attached, backend is
        not an oracle backend, or the index went stale) — never an
        unreachable pair, which answers ``inf`` like every other path.
        A ``hublabel`` oracle answers through ``source``'s pooled label
        column, so the node pairs it scanned for earlier targets are
        not scanned again (they are still charged).  ``column`` is that
        column when the caller holds it (:meth:`label_column`); without
        one it is checked out of the pool for this call.
        """
        if column is None:
            oracle = self._usable_oracle(build=True)
            if oracle is None:
                return None
            if oracle.kind != "hublabel":
                return oracle.distance(source, target)
            column = self._label_column(oracle, source)
        return column.oracle.distance(source, target, column)

    def label_column(self, source: NetworkLocation) -> LabelColumn | None:
        """``source``'s pooled label column while a hub-label oracle is
        usable, else ``None``.

        Goal-directed algorithms check it out once per query point per
        query, beside the point's expander, and hand it to
        :meth:`distance_via` and :meth:`known_distance`.  A held column
        answers exactly what a per-call checkout would: queries run
        under the workspace's read lock, so no mutation can make the
        oracle stale under one.
        """
        if not self._hub_labels:
            return None
        return self._label_column(self._usable_oracle(build=True), source)

    def _label_column(
        self, oracle: DistanceOracle, source: NetworkLocation
    ) -> LabelColumn:
        """``source``'s pooled hub-label column, built by ``oracle``.

        Pooled under an ``"oracle"`` key, so the pool's LRU slots bound
        the columns and every drop of the pool drops them.  A column
        another handle built (before :meth:`attach_oracle` or a backend
        rebuild) is replaced, never read.
        """
        key = ("oracle", _location_key(source), None)
        column = self._checkout(key, lambda: LabelColumn(oracle, source))
        if column.oracle is not oracle:
            with self._lock:
                self._pool.pop(key, None)
            column = self._checkout(key, lambda: LabelColumn(oracle, source))
        return column

    def ensure_oracle(self) -> DistanceOracle | None:
        """Force the lazy oracle build now (bench ``preprocessed`` state).

        Returns the usable handle, or ``None`` when this engine has no
        oracle to offer (non-oracle backend, nothing attached).
        """
        handle = self._attached_oracle
        if handle is not None and not handle.stale:
            return handle
        if self.backend_name in ORACLE_BACKEND_NAMES:
            return self._backend(self.backend_name).oracle()
        return None

    def _peek_oracle(self) -> DistanceOracle | None:
        """The current handle without triggering a build (may be stale)."""
        handle = self._attached_oracle
        if handle is not None:
            return handle
        with self._lock:
            backend = self._backends.get(self.backend_name)
        if backend is not None and hasattr(backend, "oracle_if_built"):
            return backend.oracle_if_built()
        return None

    def oracle_store(self):
        """The oracle's page store, if an oracle with one exists."""
        handle = self._peek_oracle()
        return handle.store if handle is not None else None

    def oracle_io_stats(self):
        """The oracle store's :class:`IOStats`, or ``None``."""
        store = self.oracle_store()
        return store.stats if store is not None else None

    def reset_oracle_io(self, cold: bool = True) -> None:
        """Zero oracle page counters (and, when cold, its buffer).

        Peek-only: never triggers a build, so a workspace that owns no
        oracle pays nothing here.
        """
        handle = self._peek_oracle()
        if handle is not None:
            handle.reset_io(cold=cold)

    # ------------------------------------------------------------------
    # Expander pool
    # ------------------------------------------------------------------
    def _checkout(self, key: tuple, factory):
        with self._lock:
            expander = self._pool.get(key)
            if expander is not None:
                self._pool.move_to_end(key)
                self._pool_reuses += 1
                return expander
            expander = factory()
            self._pool[key] = expander
            while len(self._pool) > self.pool_capacity:
                _, evicted = self._pool.popitem(last=False)
                self._retired_nodes += evicted.nodes_settled
                self._pool_evictions += 1
            return expander

    def expander(self, source: NetworkLocation, backend: str | None = None):
        """A pooled resumable expander for ``source`` (backend default).

        Repeated calls with the same source (and backend) return the
        same object, wavefront intact.
        """
        chosen = self._backend(backend)
        key = (chosen.name, _location_key(source), None)
        return self._checkout(key, lambda: chosen.make_expander(source))

    def astar_expander(
        self, source: NetworkLocation, slot: int | None = None
    ) -> AStarExpander:
        """A pooled A*-family expander for goal-directed algorithms.

        Algorithms whose cost model is built on goal-directed search
        (EDC, LBC, LBC-lazy) stay on A* even when the engine default is
        ``"dijkstra"``; a landmark configuration is honoured as-is, so
        the heuristic is landmarks under ``"astar+landmarks"`` and
        Euclidean otherwise.  Oracle backends also map to plain A*:
        their answers come from the index via :meth:`oracle_distance`,
        so the expander behind them only ever runs as an online
        fallback.  ``slot`` separates pool entries for callers that
        interleave ``search_toward`` handles across several expanders —
        two co-located query points must not collapse onto one
        expander, or one dimension's live search would invalidate the
        other's.
        """
        name = self.backend_name
        if name == "dijkstra" or name in ORACLE_BACKEND_NAMES:
            name = "astar"
        chosen = self._backend(name)
        key = (chosen.name, _location_key(source), slot)
        return self._checkout(key, lambda: chosen.make_expander(source))

    def ine_expander(self, source: NetworkLocation) -> EmissionCursor:
        """A new emission cursor over ``source``'s pooled INE wavefront.

        The wavefront (built with the engine's store and placement
        source, so page accounting and middle-layer probing work by
        default) is pooled under its own ``"ine"`` key; emission state
        lives in the cursor, which replays the wavefront's log from the
        start and drives it only past the log's end.  A query therefore
        sees exactly the sequence a fresh wavefront would emit, and a
        query point another query already expanded settles nothing new.
        Two cursors at one location (a query naming it twice) share the
        wavefront too.  Like every pooled expander, a wavefront must not
        be driven by two concurrently executing queries (see the module
        docstring); invalidation and :meth:`clear` drop it with the pool.
        """
        key = ("ine", _location_key(source), None)
        wavefront = self._checkout(
            key,
            lambda: DijkstraExpander(
                self.network, source, store=self.store, placements=self.placements
            ),
        )
        return EmissionCursor(wavefront)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def distance(
        self,
        source: NetworkLocation,
        target: NetworkLocation,
        backend: str | None = None,
    ) -> float:
        """Exact network distance (inf when unreachable).

        When a usable oracle is present (attached index, or an oracle
        backend's own) it answers — regardless of the ``backend``
        argument, which is safe because every backend is exact and only
        selects *how* a distance is settled.  A hub-label oracle answers
        from ``source``'s label column, past the memo; any other answer
        is memoised, a CH lookup's or the pooled expander's online one.
        """
        if self._hub_labels:
            return self.oracle_distance(source, target)
        key = _pair_key(source, target)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        value = self.oracle_distance(source, target)
        if value is None:
            value = self.expander(source, backend=backend).distance_to(target)
        self._memo.put(key, value)
        return value

    def distance_via(
        self,
        source: NetworkLocation,
        target: NetworkLocation,
        expander,
        column: LabelColumn | None = None,
    ) -> float:
        """:meth:`distance` resolved through a caller-held expander.

        Lets algorithms that drive their own pooled expanders (LBC's
        network-NN stream, EDC's vectors) still read and feed the
        cross-query memo.  An oracle, when usable, outranks the caller's
        expander too — the expander simply stays parked at its current
        wavefront; a hub-label oracle answers from ``column``, the
        caller's :meth:`label_column` for ``source``, when given.
        """
        if self._hub_labels:
            return self.oracle_distance(source, target, column)
        key = _pair_key(source, target)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        value = self.oracle_distance(source, target)
        if value is None:
            value = expander.distance_to(target)
        self._memo.put(key, value)
        return value

    def known_distance(
        self,
        source: NetworkLocation,
        target: NetworkLocation,
        column: LabelColumn | None = None,
    ) -> float | None:
        """An exact distance the engine holds without searching, or ``None``.

        A usable hub-label oracle answers from ``source``'s label column
        (``column`` when the caller holds it).  Otherwise the memo
        answers first, then a usable CH oracle, whose answer is memoised
        because it cost an upward search.  The memo read counts neither
        a hit nor a miss — like :meth:`record`'s fills — so
        ``engine_hits``/``engine_misses`` keep meaning lookups by
        :meth:`distance`/:meth:`distance_via`.  A stale oracle records
        one ``oracle_fallbacks`` per memo miss.
        """
        if self._hub_labels:
            return self.oracle_distance(source, target, column)
        key = _pair_key(source, target)
        value = self._memo.get(key, count=False)
        if value is None:
            value = self.oracle_distance(source, target)
            if value is not None:
                self._memo.put(key, value)
        return value

    def record(
        self, source: NetworkLocation, target: NetworkLocation, value: float
    ) -> None:
        """Opportunistically memoise a distance settled elsewhere.

        CE emissions and completed LBC lower-bound searches are exact;
        recording them lets later queries (and ``explain``) answer from
        cache.  Fills never count as hits or misses.  While a hub-label
        oracle is usable nothing is written, since no lookup reads the
        memo then.
        """
        if not self._hub_labels:
            self._memo.put(_pair_key(source, target), value)

    def distances(
        self,
        source: NetworkLocation,
        targets: Sequence[NetworkLocation],
        backend: str | None = None,
    ) -> list[float]:
        """Distances from one source to many targets, one wavefront.

        Under a hub-label oracle the sweep holds ``source``'s label
        column, checked out once.
        """
        column = self.label_column(source)
        if column is not None:
            return [self.oracle_distance(source, t, column) for t in targets]
        return [self.distance(source, target, backend=backend) for target in targets]

    def vector(
        self,
        queries: Sequence[NetworkLocation],
        obj,
        backend: str | None = None,
    ) -> tuple[float, ...]:
        """One object's evaluation vector: distances plus attributes."""
        distances = tuple(
            self.distance(q, obj.location, backend=backend) for q in queries
        )
        return distances + obj.attributes

    def vectors(
        self,
        queries: Sequence[NetworkLocation],
        objects: Sequence,
        backend: str | None = None,
    ) -> list[tuple[float, ...]]:
        """Evaluation vectors for many objects, ordered like ``objects``.

        Row ``i`` = distances of ``objects[i]`` to every query, then its
        static attributes.  Work runs one :meth:`distances` column per
        query, so each wavefront is reused across the whole object set.
        """
        locations = [obj.location for obj in objects]
        with tracing.span(
            "engine.vectors", queries=len(queries), objects=len(objects)
        ):
            columns = [
                self.distances(q, locations, backend=backend) for q in queries
            ]
        return [
            tuple(column[i] for column in columns) + obj.attributes
            for i, obj in enumerate(objects)
        ]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def counters(self) -> EngineCounters:
        memo = self._memo.counters
        return EngineCounters(
            hits=memo.hits,
            misses=memo.misses,
            evictions=memo.evictions,
            invalidations=memo.invalidations,
            pool_reuses=self._pool_reuses,
            pool_evictions=self._pool_evictions,
        )

    def nodes_settled(self) -> int:
        """Total nodes ever settled by engine-owned expanders (monotone).

        Includes wavefronts already evicted from the pool; algorithms
        report per-run work as the delta around their execution.
        """
        with self._lock:
            live = sum(e.nodes_settled for e in self._pool.values())
            return self._retired_nodes + live

    def cache_info(self) -> dict[str, int | str]:
        """A flat summary for CLI output and debugging."""
        c = self.counters
        with self._lock:
            pool_entries = len(self._pool)
        oracle = self._peek_oracle()
        if oracle is None:
            oracle_state = "none"
        else:
            oracle_state = oracle.kind + (" (stale)" if oracle.stale else "")
        return {
            "backend": self.backend_name,
            "oracle": oracle_state,
            "memo_entries": len(self._memo),
            "memo_capacity": self._memo.capacity,
            "pool_entries": pool_entries,
            "pool_capacity": self.pool_capacity,
            "hits": c.hits,
            "misses": c.misses,
            "evictions": c.evictions,
            "invalidations": c.invalidations,
            "pool_reuses": c.pool_reuses,
            "pool_evictions": c.pool_evictions,
        }

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _retire_pool(self) -> None:
        with self._lock:
            for expander in self._pool.values():
                self._retired_nodes += expander.nodes_settled
            self._pool.clear()

    @contextmanager
    def coalesced_invalidation(self):
        """Defer invalidations inside the block, applying one at the end.

        Compound workspace mutations (``move_object`` = remove + add;
        ``update_edge_length`` re-registers every affected object) call
        the invalidation hooks once per step.  Wrapping the compound
        operation in this context collapses them into a single drop of
        the strongest requested kind — object-level unless any step
        asked for a network-level invalidation.  Nestable; only the
        outermost exit applies.
        """
        with self._lock:
            self._invalidation_depth += 1
        try:
            yield
        finally:
            pending = 0
            with self._lock:
                self._invalidation_depth -= 1
                if self._invalidation_depth == 0:
                    pending = self._pending_invalidation
                    self._pending_invalidation = 0
            if pending == 2:
                self.invalidate_network()
            elif pending == 1:
                self.invalidate()

    def _defer_invalidation(self, level: int) -> bool:
        """Record a pending invalidation if inside a coalescing block."""
        with self._lock:
            if self._invalidation_depth > 0:
                self._pending_invalidation = max(
                    self._pending_invalidation, level
                )
                return True
        return False

    def invalidate(self) -> None:
        """Drop cached distances and wavefronts (object churn).

        Object insertion/removal does not change junction-to-junction
        distances, but pooled wavefronts (INE emission logs above all)
        and memoised distances to *object locations* may now describe
        stale objects; dropping everything is cheap and simple.
        """
        if self._defer_invalidation(1):
            return
        self._memo.clear()
        self._retire_pool()

    def invalidate_network(self) -> None:
        """Drop everything derived from edge weights (graph mutation).

        Beyond :meth:`invalidate`, backend precomputation (landmark
        tables, backend-owned oracle indexes) is reset — it encodes
        distances of the old graph.  An *attached* (persisted) oracle
        cannot be rebuilt from here, so it is marked stale instead:
        further queries record ``oracle_fallbacks`` and resolve online
        until a matching index is re-attached.
        """
        if self._defer_invalidation(2):
            return
        self._memo.clear()
        self._retire_pool()
        with self._lock:
            backends = list(self._backends.values())
            attached = self._attached_oracle
        for backend in backends:
            backend.reset()
        if attached is not None:
            attached.mark_stale()
            self._hub_labels = False

    def clear(self) -> None:
        """Forget all cached state without counting an invalidation.

        Called by ``Workspace.reset_io(cold=True)`` so cold-buffer
        measurements start from a cold engine too.
        """
        self._memo.clear(count_invalidation=False)
        self._retire_pool()
