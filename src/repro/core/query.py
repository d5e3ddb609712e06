"""The query workspace: one dataset wired to its storage and indexes.

A :class:`Workspace` owns everything an algorithm needs to answer
multi-source skyline queries over one (network, object set) pair:

* the page-clustered :class:`~repro.network.storage.NetworkStore`
  behind the experiment's LRU buffer;
* the :class:`~repro.network.middle_layer.MiddleLayer` with its own
  B+-tree pager;
* the object R-tree with its pager;

or, in unpaged mode, the in-memory equivalents (for unit tests and for
users who want answers without cost simulation).  Workspaces are built
once per dataset and reused across many queries — exactly how the
paper's experiments amortise their setup.

Concurrency: a workspace carries a readers-writer lock
(:class:`~repro.concurrency.ReadWriteLock`).  Query executions
take the shared side via :meth:`Workspace.reading`; the mutation
methods below take the exclusive side (via :meth:`Workspace.mutating`),
coalesce the engine invalidation hooks to fire exactly once per
compound operation, and bump :attr:`Workspace.version`.  Direct
single-threaded use is unchanged — the lock is uncontended and the
mutation methods lock themselves.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.concurrency import ReadWriteLock
from repro.engine import DEFAULT_BACKEND, DistanceEngine
from repro.index.rtree import DEFAULT_MAX_ENTRIES, RTree
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.middle_layer import InMemoryPlacements, MiddleLayer
from repro.network.objects import ObjectSet, SpatialObject
from repro.network.storage import NetworkStore
from repro.obs import MetricRegistry
from repro.storage.binding import NodePager
from repro.storage.buffer import DEFAULT_BUFFER_BYTES
from repro.storage.page import DEFAULT_PAGE_SIZE


@dataclass
class Workspace:
    """A dataset plus its (optionally simulated-disk) access structures."""

    network: RoadNetwork
    objects: ObjectSet
    store: NetworkStore | None
    middle: MiddleLayer | InMemoryPlacements
    object_rtree: RTree
    rtree_pager: NodePager | None
    middle_pager: NodePager | None
    engine: DistanceEngine | None = None
    metrics: MetricRegistry | None = None

    def __post_init__(self) -> None:
        # Workspaces assembled directly (tests, serialization) get a
        # default engine so workspace.engine is always usable.
        if self.engine is None:
            self.engine = DistanceEngine(
                self.network, store=self.store, placements=self.middle
            )
        if self.metrics is None:
            self.metrics = MetricRegistry()
        self._register_metrics()
        self._rwlock = ReadWriteLock()
        self._version = 0

    def _register_metrics(self) -> None:
        """Expose the workspace's live counters as callback metrics.

        Everything here is a scrape-time read of counters that already
        exist (buffer-pool :class:`~repro.storage.stats.IOStats`, the
        engine's memo) — registration costs nothing on the query hot
        path, and ``/metricsz`` always reflects the current truth
        without parallel bookkeeping.
        """
        registry = self.metrics
        assert registry is not None
        pools = {
            "network": self.store.stats if self.store is not None else None,
            "index": (
                self.rtree_pager.stats if self.rtree_pager is not None else None
            ),
            "middle": (
                self.middle_pager.stats if self.middle_pager is not None else None
            ),
        }
        for pool_name, io in pools.items():
            if io is None:
                continue
            registry.register_callback(
                "repro_buffer_reads_total",
                (lambda s=io: s.logical_reads),
                kind="counter",
                help_text="Logical page reads per buffer pool",
                pool=pool_name,
                mode="logical",
            )
            registry.register_callback(
                "repro_buffer_reads_total",
                (lambda s=io: s.physical_reads),
                kind="counter",
                help_text="Logical page reads per buffer pool",
                pool=pool_name,
                mode="physical",
            )
            registry.register_callback(
                "repro_buffer_hit_ratio",
                (lambda s=io: s.hit_ratio),
                kind="gauge",
                help_text="Buffer-pool hit ratio over logical reads",
                pool=pool_name,
            )
        engine = self.engine
        if engine is not None:
            # The oracle pool appears lazily (first oracle-backend query
            # or an explicit attach), so these callbacks read through
            # the engine at scrape time and report 0 until then.
            def _oracle_stat(field_name: str) -> float:
                io = engine.oracle_io_stats()
                return getattr(io, field_name) if io is not None else 0
            registry.register_callback(
                "repro_buffer_reads_total",
                (lambda: _oracle_stat("logical_reads")),
                kind="counter",
                help_text="Logical page reads per buffer pool",
                pool="oracle",
                mode="logical",
            )
            registry.register_callback(
                "repro_buffer_reads_total",
                (lambda: _oracle_stat("physical_reads")),
                kind="counter",
                help_text="Logical page reads per buffer pool",
                pool="oracle",
                mode="physical",
            )
            registry.register_callback(
                "repro_buffer_hit_ratio",
                (lambda: _oracle_stat("hit_ratio")),
                kind="gauge",
                help_text="Buffer-pool hit ratio over logical reads",
                pool="oracle",
            )
            for field_name in ("hits", "misses", "evictions", "invalidations"):
                registry.register_callback(
                    "repro_engine_memo_events_total",
                    (lambda e=engine, f=field_name: getattr(e.counters, f)),
                    kind="counter",
                    help_text="Distance-memo lookup outcomes",
                    event=field_name,
                )
            registry.register_callback(
                "repro_engine_nodes_settled_total",
                engine.nodes_settled,
                kind="counter",
                help_text="Nodes settled by engine-owned expanders",
            )
            registry.register_callback(
                "repro_engine_memo_entries",
                (lambda e=engine: len(e._memo)),
                kind="gauge",
                help_text="Entries currently held by the distance memo",
            )
        registry.register_callback(
            "repro_workspace_objects",
            (lambda: len(self.objects)),
            kind="gauge",
            help_text="Spatial objects currently registered",
        )
        registry.register_callback(
            "repro_workspace_version",
            (lambda: self.version),
            kind="gauge",
            help_text="Monotone workspace mutation counter",
        )

    # ------------------------------------------------------------------
    # Snapshot isolation
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter; bumped once per mutating() block."""
        return self._version

    @property
    def rwlock(self):
        """The workspace's readers-writer lock (shared with the service)."""
        return self._rwlock

    @contextmanager
    def reading(self):
        """Shared-side context: queries executed inside never see a
        torn mutation (the writer waits for the block to finish)."""
        with self._rwlock.read_locked():
            yield self

    @contextmanager
    def mutating(self):
        """Exclusive-side context for (compound) mutations.

        Waits out in-flight readers, coalesces the engine invalidation
        hooks so the whole block drives them exactly once, and bumps
        :attr:`version` once on the outermost exit.  Reentrant: the
        mutation methods below use it themselves, so nesting
        (``move_object`` → remove + add) still invalidates once.  Do
        not call while inside :meth:`reading` — lock upgrades deadlock.
        """
        outermost = self._rwlock.caller_write_depth == 0
        with self._rwlock.write_locked():
            if self.engine is not None:
                with self.engine.coalesced_invalidation():
                    yield self
            else:
                yield self
            if outermost:
                self._version += 1

    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        objects: ObjectSet,
        paged: bool = True,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        rtree_max_entries: int = DEFAULT_MAX_ENTRIES,
        bptree_order: int = 64,
        distance_backend: str = DEFAULT_BACKEND,
    ) -> "Workspace":
        """Assemble the workspace, clustering and indexing the dataset.

        Every paged structure sits behind its own LRU pool of
        ``buffer_bytes`` (the paper's setup); ``distance_backend`` picks
        the engine's default distance backend (``"dijkstra"``,
        ``"astar"``, ``"astar+landmarks"``, or the preprocessed oracles
        ``"ch"`` / ``"hublabel"``).
        """
        if objects.network is not network:
            raise ValueError("object set was built for a different network")
        objects.validate_uniform_attributes()
        if paged:
            store = NetworkStore(
                network,
                page_size=page_size,
                buffer_bytes=buffer_bytes,
            )
            middle_pager = NodePager(
                buffer_bytes=buffer_bytes,
                page_size=page_size,
                component="middle",
            )
            middle: MiddleLayer | InMemoryPlacements = MiddleLayer.build(
                objects, order=bptree_order, pager=middle_pager
            )
            rtree_pager = NodePager(
                buffer_bytes=buffer_bytes,
                page_size=page_size,
                component="index",
            )
            object_rtree = objects.build_rtree(
                max_entries=rtree_max_entries, pager=rtree_pager
            )
        else:
            store = None
            middle_pager = None
            middle = InMemoryPlacements(objects)
            rtree_pager = None
            object_rtree = objects.build_rtree(max_entries=rtree_max_entries)
        engine = DistanceEngine(
            network, store=store, placements=middle, backend=distance_backend
        )
        return cls(
            network=network,
            objects=objects,
            store=store,
            middle=middle,
            object_rtree=object_rtree,
            rtree_pager=rtree_pager,
            middle_pager=middle_pager,
            engine=engine,
        )

    # ------------------------------------------------------------------
    # I/O accounting
    # ------------------------------------------------------------------
    def reset_io(self, cold: bool = True) -> None:
        """Zero counters before a measured query (cold = empty buffers).

        A cold reset also empties the distance engine's wavefront pool
        and memo, so cold-buffer measurements are cold end to end; a
        warm reset keeps them (how warm-cache benchmarks are run).
        """
        if self.store is not None:
            self.store.reset(cold=cold)
        for pager in (self.rtree_pager, self.middle_pager):
            if pager is not None:
                pager.pool.reset_stats()
                if cold:
                    pager.pool.clear()
        if self.engine is not None:
            self.engine.reset_oracle_io(cold=cold)
            if cold:
                self.engine.clear()

    def network_pages_read(self) -> int:
        """Physical network-store reads since the last reset."""
        return self.store.stats.physical_reads if self.store is not None else 0

    def index_pages_read(self) -> int:
        """Physical object-R-tree page reads since the last reset."""
        return (
            self.rtree_pager.stats.physical_reads
            if self.rtree_pager is not None
            else 0
        )

    def middle_pages_read(self) -> int:
        """Physical middle-layer page reads since the last reset."""
        return (
            self.middle_pager.stats.physical_reads
            if self.middle_pager is not None
            else 0
        )

    # ------------------------------------------------------------------
    # Dynamic object updates
    # ------------------------------------------------------------------
    def add_object(self, obj) -> None:
        """Add one object, keeping every derived index consistent.

        Updates the object set, the middle layer's B+-tree and the
        object R-tree in one step, and invalidates the distance
        engine's caches; subsequent queries see the object.
        """
        with self.mutating():
            self.objects.add(obj)
            self.middle.add_object(obj)
            self.object_rtree.insert_point(obj.point, obj)
            if self.engine is not None:
                self.engine.invalidate()

    def remove_object(self, object_id: int) -> None:
        """Remove one object everywhere (KeyError when absent)."""
        with self.mutating():
            obj = self.objects.remove(object_id)
            self.middle.remove_object(obj)
            self.object_rtree.delete_point(obj.point, obj)
            if self.engine is not None:
                self.engine.invalidate()

    def move_object(self, object_id: int, location: NetworkLocation) -> SpatialObject:
        """Relocate one object, keeping attributes and every index.

        Implemented as remove + re-add so the middle layer, the R-tree
        and the engine caches all observe the move; the ``mutating()``
        wrapper coalesces the two invalidations into one.  Returns the
        moved object.
        """
        with self.mutating():
            obj = self.objects.get(object_id)
            self.remove_object(object_id)
            moved = replace(obj, location=location)
            self.add_object(moved)
            return moved

    # ------------------------------------------------------------------
    # Network mutation
    # ------------------------------------------------------------------
    def update_edge_length(self, edge_id: int, length: float) -> None:
        """Change one edge's travel length (e.g. congestion reweighting).

        Objects on (or at the endpoints of) the edge are re-registered
        so their middle-layer placements match the new length; on-edge
        objects keep their offset from the ``u`` endpoint, which must
        still fit.  All engine caches — including backend
        precomputation such as landmark tables — are invalidated, since
        every previously settled distance may have changed.
        """
        with self.mutating():
            self.network.edge(edge_id)  # KeyError for foreign edges
            affected = [p.obj for p in self.middle.objects_on(edge_id)]
            for obj in affected:
                loc = obj.location
                if loc.edge_id == edge_id and loc.offset > length + 1e-9:
                    raise ValueError(
                        f"object {obj.object_id} at offset {loc.offset} does not "
                        f"fit the new length {length} of edge {edge_id}"
                    )
            # Run the network's own checks (chord rule, polyline,
            # positive finite length) before touching any object state: a rejection
            # must leave the workspace untouched, not with `affected`
            # already deregistered.
            self.network.validate_edge_length(edge_id, length)
            for obj in affected:
                self.remove_object(obj.object_id)
            self.network.update_edge_length(edge_id, length)
            for obj in affected:
                loc = obj.location
                if loc.edge_id == edge_id:
                    obj = replace(
                        obj,
                        location=self.network.location_on_edge(edge_id, loc.offset),
                    )
                self.add_object(obj)
            if self.engine is not None:
                self.engine.invalidate_network()

    # ------------------------------------------------------------------
    # Query-point helpers
    # ------------------------------------------------------------------
    def validate_queries(
        self, queries: list[NetworkLocation]
    ) -> list[NetworkLocation]:
        """Reject empty or foreign query-point lists early.

        Returns the points placed on the current network.  An on-edge
        point keeps its offset from the ``u`` endpoint and gets its
        planar point again, as objects do in :meth:`update_edge_length`:
        a location made before its edge was reweighted carries a point
        that no longer matches its offset, and the Euclidean lower
        bounds EDC and LBC take from it could prune a skyline object.
        """
        if not queries:
            raise ValueError("a skyline query needs at least one query point")
        placed = []
        for q in queries:
            if q.node_id is not None:
                if not self.network.has_node(q.node_id):
                    raise KeyError(f"query point at unknown node {q.node_id}")
                placed.append(q)
            else:
                # KeyError for foreign edges, ValueError for an offset
                # the edge no longer fits.
                placed.append(self.network.location_on_edge(q.edge_id, q.offset))
        return placed

    @property
    def attribute_count(self) -> int:
        """Static (non-spatial) attributes carried by every object."""
        return self.objects.attribute_count
