"""LBC — the Lower Bound Constraint algorithm (Section 4.3).

LBC is the paper's headline contribution, proven instance-optimal for
network access (Theorem 1).  It improves on EDC in two ways:

* the candidate space is bounded by **network** skyline points only
  (never the looser shifted-Euclidean-skyline hypercubes), and
* candidates get **partial** network-distance computation: per
  non-source query point only a *path-distance lower bound* is pushed
  up, one A* expansion step at a time, until the candidate is either
  provably dominated (discard, distances never finished) or fully
  resolved (a new skyline point).

Structure, for a chosen source query point ``q``:

Step 1 — next network NN of ``q``:
  1.1  stream Euclidean NNs of ``q`` from the R-tree, pruning any
       object or subtree whose *Euclidean* lower-bound vector is
       dominated by a known skyline point's *network* vector;
  1.2  compute ``dN(q, p)`` for each streamed object (A*, resumable),
       holding them in a buffer (a min-heap on network distance) until
       the cheapest buffered network distance is no larger than the
       next Euclidean distance — then that buffered object is the true
       next network NN.  The stream is read one object ahead (its
       Euclidean distance drives that test), so an object pulled before
       a confirmation is pruned again before its ``dN`` is computed.

Step 2 — resolve the network NN ``p``:
  maintain ``bounds = (dN(q,p), plb(q2,p), …, plb(qn,p), attrs…)``,
  starting each dimension at the exact distance the engine already
  holds (``DistanceEngine.known_distance``: the query point's label
  column under a hub-label oracle, else the memo, then a CH oracle)
  and each remaining ``plb`` at the Euclidean distance; repeatedly
  expand the open non-source query point with the smallest current
  ``plb`` by one node; discard ``p`` the moment a known skyline point
  dominates the bounds vector (sound: bounds never exceed the true
  values); if every search completes without that happening, ``p``
  joins the skyline.  A cold reset empties the memo, so the prefill
  leaves the paper's cold network access — and Theorem 1 — as it was;
  on a warm engine a memo-hot candidate costs one dominance probe.

The paper formulates step 2 with per-query sorted lists ``q'.L``; the
direct lower-bound dominance test used here is equivalent (a skyline
point precedes ``p`` in every list iff it is pointwise no larger) and
touches exactly the same network data, which is what optimality is
measured in.

Tie safety beyond the paper: a newly confirmed point evicts previously
confirmed points it dominates (possible only under exact distance
ties, e.g. co-located objects reached in different emission order).
"""

from __future__ import annotations

import heapq
from array import array
from typing import Callable, Iterator

from repro.columnar.store import SkylineBlock
from repro.core.base import SkylineAlgorithm, _ResponseTimer, confirm_skyline_point
from repro.core.query import Workspace
from repro.core.result import SkylinePoint
from repro.core.stats import QueryStats
from repro.geometry.mbr import MBR
from repro.network.astar import AStarExpander
from repro.network.graph import NetworkLocation
from repro.network.objects import SpatialObject
from repro.obs import tracing
from repro.oracle.runtime import LabelColumn
from repro.skyline.bbs import mbr_lower_bound_vector


class LowerBoundConstraint(SkylineAlgorithm):
    """The paper's instance-optimal algorithm.

    ``source_index`` selects which query point drives the network-NN
    enumeration (the paper notes the choice is a user-preference knob:
    skyline points near the source are reported first).
    """

    name = "LBC"

    def __init__(self, source_index: int = 0, use_lower_bounds: bool = True) -> None:
        self.source_index = source_index
        # Ablation knob: with use_lower_bounds=False, step 2 computes
        # every candidate's full distance vector immediately (EDC-style
        # resolution) instead of expanding lower bounds one node at a
        # time.  Isolates the contribution of the plb idea; answers are
        # identical either way.
        self.use_lower_bounds = use_lower_bounds
        if not use_lower_bounds:
            self.name = "LBC-noplb"

    def _execute(
        self,
        workspace: Workspace,
        queries: list[NetworkLocation],
        stats: QueryStats,
        timer: _ResponseTimer,
    ) -> list[SkylinePoint]:
        if not 0 <= self.source_index < len(queries):
            raise ValueError(
                f"source_index {self.source_index} outside 0..{len(queries) - 1}"
            )
        engine = workspace.engine
        self._engine = engine
        source = queries[self.source_index]
        others = [
            (i, q) for i, q in enumerate(queries) if i != self.source_index
        ]

        # Pooled A*-family expanders, one per dimension: repeated
        # queries from the same points resume earlier wavefronts.  The
        # slot keeps co-located query points on separate expanders (an
        # expander carries at most one live LowerBoundSearch).
        source_expander = engine.astar_expander(source, slot=self.source_index)
        other_expanders = {i: engine.astar_expander(q, slot=i) for i, q in others}
        # Beside each expander, the point's label column (None without a
        # hub-label oracle), checked out once for the whole query.
        other_columns = {i: engine.label_column(q) for i, q in others}

        skyline: list[SkylinePoint] = []
        # Indexed mirror of the confirmed vectors: every prune probe is
        # a few bisects instead of a per-tuple Python loop.  Updated in
        # place on each confirmation so the stream's prune closure sees
        # it.
        sky = SkylineBlock(len(queries) + workspace.attribute_count)

        for p, source_dist in self._network_nn_stream(
            workspace, queries, source, source_expander, sky, stats
        ):
            resolved = self._resolve_candidate(
                p,
                source_dist,
                queries,
                others,
                other_expanders,
                other_columns,
                sky,
                stats,
            )
            if resolved is None:
                continue
            confirm_skyline_point(skyline, sky, SkylinePoint(obj=p, vector=resolved))
            timer.mark_first_result()

        return skyline

    # ------------------------------------------------------------------
    # Step 1: network NNs of the source, in ascending network distance
    # ------------------------------------------------------------------
    def _network_nn_stream(
        self,
        workspace: Workspace,
        queries: list[NetworkLocation],
        source: NetworkLocation,
        source_expander: AStarExpander,
        sky: SkylineBlock,
        stats: QueryStats,
    ) -> Iterator[tuple[SpatialObject, float]]:
        """Yield ``(object, dN(source, object))`` in ascending distance.

        Implements steps 1.1/1.2: Euclidean NNs stream from the R-tree
        (with dominance pruning against the *live* ``sky`` block, which
        the caller updates); each gets its network distance and waits
        in a heap until provably the closest remaining.  Ties pop in
        object-id order.  The source's label column is checked out once,
        beside ``source_expander``.
        """
        source_column = self._engine.label_column(source)
        prune = _lower_bound_prune(workspace, queries, sky)
        euclid_stream = workspace.object_rtree.nearest(source.point, prune)

        # Min-heap of (network distance, object id, object): ids are
        # unique, so the object itself is never compared.
        buffered: list[tuple[float, int, SpatialObject]] = []
        stream_done = False
        next_euclid: tuple[float, MBR, SpatialObject] | None = None
        pulled_at = sky.version

        def pull() -> None:
            nonlocal stream_done, next_euclid, pulled_at
            try:
                next_euclid = next(euclid_stream)
            except StopIteration:
                stream_done = True
                next_euclid = None
            pulled_at = sky.version

        pull()
        while True:
            # Absorb Euclidean NNs until the buffer provably holds the
            # next network NN (step 1.2's termination test).
            while not stream_done:
                assert next_euclid is not None
                euclid_dist, mbr, candidate = next_euclid
                if buffered and buffered[0][0] <= euclid_dist:
                    break
                # The stream pruned the candidate when it was pulled;
                # points confirmed while it waited may dominate it now.
                if sky.version != pulled_at and prune(mbr, candidate):
                    pull()
                    continue
                with tracing.span("lbc.stream"):
                    network_dist = self._engine.distance_via(
                        source, candidate.location, source_expander, source_column
                    )
                tracing.record("distance_computations")
                stats.candidate_count += 1
                heapq.heappush(
                    buffered, (network_dist, candidate.object_id, candidate)
                )
                pull()
            if not buffered:
                return
            # Objects unreachable from the source surface here with an
            # inf source distance; they still get resolved (their other
            # dimensions may be finite and undominated).
            network_dist, _, obj = heapq.heappop(buffered)
            yield (obj, network_dist)

    # ------------------------------------------------------------------
    # Step 2: resolve one candidate with partial distance computation
    # ------------------------------------------------------------------
    def _resolve_candidate(
        self,
        p: SpatialObject,
        source_dist: float,
        queries: list[NetworkLocation],
        others: list[tuple[int, NetworkLocation]],
        other_expanders: dict[int, AStarExpander],
        other_columns: dict[int, LabelColumn | None],
        sky: SkylineBlock,
        stats: QueryStats,
    ) -> tuple[float, ...] | None:
        """Return ``p``'s full vector, or None when provably dominated.

        ``others`` lists the dimensions to resolve in ascending index
        order, each with its expander and label column.
        """
        source_index = self.source_index
        n = len(queries)
        # One scratch row per candidate (distances then attributes);
        # dominance probes read it in place — the boundary tuple is
        # materialised only when the candidate survives.
        scratch = array("d", bytes(8 * (n + len(p.attributes))))
        scratch[source_index] = source_dist
        searches = {}
        for i, q in others:
            scratch[i] = q.point.distance_to(p.point)
        a = 0
        for value in p.attributes:
            scratch[n + a] = value
            a += 1

        with tracing.span("lbc.resolve", object_id=p.object_id):
            # Known-distance prefill: a dimension the engine already
            # holds exactly needs no plb search.  A miss on one
            # dimension says nothing about the next.  What is left open
            # stays in ascending index order.
            open_dims: list[int] = []
            for i, q in others:
                value = self._engine.known_distance(q, p.location, other_columns[i])
                if value is None:
                    open_dims.append(i)
                else:
                    scratch[i] = value
                    tracing.record("distance_computations")

            if not self.use_lower_bounds:
                # Ablation path: full distance computation for every
                # candidate, then one exact dominance check.
                for i in open_dims:
                    scratch[i] = self._engine.distance_via(
                        queries[i], p.location, other_expanders[i], other_columns[i]
                    )
                    tracing.record("distance_computations")
                if sky.dominates_lb(scratch):
                    return None
                return tuple(scratch)

            while True:
                if sky.dominates_lb(scratch):
                    return None
                if not open_dims:
                    return tuple(scratch)
                # Expand the open query point with the smallest plb; min
                # keeps the first of equals, so ties go to the lowest index.
                target = min(open_dims, key=scratch.__getitem__)
                search = searches.get(target)
                if search is None:
                    search = other_expanders[target].search_toward(p.location)
                    searches[target] = search
                    tracing.record("distance_computations")
                    if search.plb > scratch[target]:
                        scratch[target] = search.plb
                else:
                    step = search.expand_step()
                    if step > scratch[target]:
                        scratch[target] = step
                    tracing.record("lb_expansions")
                if search.done:
                    # Exact distance: close the dimension, feed the memo.
                    open_dims.remove(target)
                    self._engine.record(queries[target], p.location, search.distance)


class LowerBoundConstraintLazy(LowerBoundConstraint):
    """LBC with a lazily-bounded *source* dimension (our extension).

    The paper's step 1.2 computes the exact network distance from the
    source to every Euclidean NN it pulls — the cost that erodes LBC's
    advantage on sparse (large-δ) networks, where Euclidean order drags
    in many candidates before the network-NN emission test fires (see
    EXPERIMENTS.md, Figure 4(c) discussion).  This variant drops the
    network-NN ordering entirely: candidates stream in Euclidean order
    of the source distance, and *every* dimension, source included,
    starts from its Euclidean lower bound and is expanded one A* node
    at a time until the candidate is dominated or fully resolved.

    Consequences:

    * dominated candidates may now avoid even their source-distance
      computation — strictly less network access per discard;
    * reporting is no longer ordered by source network distance (the
      progressive-reporting property is traded away);
    * confirmation order can momentarily admit a point a later point
      dominates; :func:`insert_skyline_point` eviction keeps the final
      answer exact, and transitivity keeps interim pruning sound.

    Answers are identical to every other algorithm (property-tested).
    """

    name = "LBC-lazy"

    def __init__(self, source_index: int = 0) -> None:
        super().__init__(source_index=source_index)

    def _execute(
        self,
        workspace: Workspace,
        queries: list[NetworkLocation],
        stats: QueryStats,
        timer: _ResponseTimer,
    ) -> list[SkylinePoint]:
        if not 0 <= self.source_index < len(queries):
            raise ValueError(
                f"source_index {self.source_index} outside 0..{len(queries) - 1}"
            )
        engine = workspace.engine
        self._engine = engine
        source = queries[self.source_index]
        expanders = {
            i: engine.astar_expander(q, slot=i) for i, q in enumerate(queries)
        }
        columns = {i: engine.label_column(q) for i, q in enumerate(queries)}
        all_dims = list(enumerate(queries))

        skyline: list[SkylinePoint] = []

        source_point = source.point
        sky = SkylineBlock(len(queries) + workspace.attribute_count)
        prune = _lower_bound_prune(workspace, queries, sky)
        for _, _, p in workspace.object_rtree.nearest(source_point, prune):
            stats.candidate_count += 1
            vector = self._resolve_candidate(
                p,
                source_point.distance_to(p.point),  # a lower bound, not exact
                queries,
                all_dims,
                expanders,
                columns,
                sky,
                stats,
            )
            if vector is None:
                continue
            confirm_skyline_point(skyline, sky, SkylinePoint(obj=p, vector=vector))
            timer.mark_first_result()

        return skyline


def _lower_bound_prune(
    workspace: Workspace,
    queries: list[NetworkLocation],
    sky: SkylineBlock,
) -> Callable[[MBR, SpatialObject | None], bool]:
    """Step 1.1's R-tree prune against the *live* ``sky`` block.

    True for an entry whose Euclidean lower-bound vector ``sky``
    dominates, subtrees included; the caller updates ``sky`` in place
    as points are confirmed, so the prune grows stronger over time.
    """
    all_query_points = [q.point for q in queries]
    attribute_count = workspace.attribute_count

    def prune(mbr: MBR, payload: SpatialObject | None) -> bool:
        if payload is None:
            bounds = mbr_lower_bound_vector(mbr, all_query_points, attribute_count)
        else:
            bounds = tuple(
                payload.point.distance_to(q) for q in all_query_points
            ) + payload.attributes
        return sky.dominates_lb(bounds)

    return prune
