"""CE — the Collaborative Expansion algorithm (Section 4.1).

Each query point grows a Dijkstra wavefront; the wavefronts take turns
emitting their next nearest object by network distance.

*Filtering phase.*  Every object any wavefront meets goes into the
candidate set ``C``.  The phase ends when one object ``p*`` has been
visited by **all** dimensions: ``p*`` is the first skyline point, and
every object never seen so far is dominated by it (each dimension's
unseen objects lie at least as far as ``p*`` in that dimension).

*Refinement phase.*  Expansion continues, but objects outside ``C`` are
discarded.  When a candidate has been visited by every query point its
vector is complete: it is a skyline point unless dominated by one that
is already confirmed.  Confirmed points prune the remaining candidates
through the paper's ``∩ C(p,q)`` rule, realised here as a sound
lower-bound dominance test (a candidate's unknown distance to ``q`` is
at least the distance of ``q``'s last emitted object).

*Static attributes.*  The paper's closing remark of Section 4.3 — treat
non-spatial attributes (e.g. hotel price) as dimensions whose
"distances" are pre-computed — matters for CE's correctness, not just
generality: an object may be remote from every query point yet survive
on a cheap attribute, and the distance-only cut-off would never place
it in ``C``.  Each attribute therefore participates in the round-robin
as a *virtual expander* that emits objects in ascending attribute
order, so the filtering-phase cut remains exact in the full vector
space.

Tie safety beyond the paper: (1) after the filtering phase the
completing dimension is drained of objects tied with ``p*`` so vectors
identical to ``p*``'s are not lost, and (2) confirmed points evict
previously confirmed points they dominate (only possible under exact
ties).  Both are no-ops on generic inputs.
"""

from __future__ import annotations

import math

from array import array

from repro.columnar.kernels import dominates_flat
from repro.columnar.store import SkylineBlock, VectorTable
from repro.core.base import SkylineAlgorithm, _ResponseTimer, confirm_skyline_point
from repro.core.query import Workspace
from repro.core.result import SkylinePoint
from repro.core.stats import QueryStats
from repro.network.graph import NetworkLocation
from repro.network.objects import SpatialObject
from repro.obs import tracing


class _AttributeRank:
    """A virtual wavefront: emits objects in ascending attribute order.

    Mirrors the emission interface of
    :class:`~repro.network.dijkstra.EmissionCursor` for one static
    attribute dimension, whose "network distances" are all pre-known.
    """

    def __init__(self, objects: list[SpatialObject], attribute_index: int) -> None:
        self._ordered = sorted(
            objects,
            key=lambda o: (o.attributes[attribute_index], o.object_id),
        )
        self._attribute_index = attribute_index
        self._position = 0

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._ordered)

    def next_nearest_object(self) -> tuple[SpatialObject, float] | None:
        if self.exhausted:
            return None
        obj = self._ordered[self._position]
        self._position += 1
        return (obj, obj.attributes[self._attribute_index])


class CollaborativeExpansion(SkylineAlgorithm):
    """The paper's straightforward multi-wavefront algorithm.

    The wavefronts alternate round-robin, one emission per dimension per
    cycle: the literal reading of "expanded in a collaborative way".
    """

    name = "CE"

    def _execute(
        self,
        workspace: Workspace,
        queries: list[NetworkLocation],
        stats: QueryStats,
        timer: _ResponseTimer,
    ) -> list[SkylinePoint]:
        engine = workspace.engine
        n = len(queries)
        k = workspace.attribute_count
        m = n + k  # total dimensions

        all_objects = list(workspace.objects)
        # Each dimension reads its INE wavefront through its own cursor:
        # the engine pools the wavefront (store and middle layer wired)
        # and the cursor replays what an earlier query already emitted,
        # so the emission sequence, and with it the p* cut-off, is the
        # one a fresh wavefront would produce.
        expanders: list = [engine.ine_expander(q) for q in queries]
        expanders.extend(_AttributeRank(all_objects, j) for j in range(k))

        # Partial vectors live in one flat column block: candidate rows
        # are inf-initialised (unknown distance) with attribute slots
        # pre-filled (pre-known), and per-object bitmasks track which
        # dimensions have emitted.  ``handles`` maps object id -> row.
        table = VectorTable(m)
        handles: dict[int, int] = {}
        masks: dict[int, int] = {}
        objects: dict[int, SpatialObject] = {}
        exhausted = [False] * m
        full_mask = (1 << m) - 1
        spatial_mask = (1 << n) - 1
        inf_row = (math.inf,) * m

        def handle_of(obj: SpatialObject) -> int:
            h = handles.get(obj.object_id)
            if h is None:
                h = table.append(inf_row)
                handles[obj.object_id] = h
                masks[obj.object_id] = 0
                objects[obj.object_id] = obj
                base = h * m + n
                for a, value in enumerate(obj.attributes):
                    table.data[base + a] = value
            return h

        def record_visit(index: int, obj: SpatialObject, value: float) -> bool:
            """Record one emission; True when visited in every dimension."""
            h = handle_of(obj)
            table.data[h * m + index] = value
            mask = masks[obj.object_id] | (1 << index)
            masks[obj.object_id] = mask
            if index < n:
                tracing.record("distance_computations")
                # INE emissions are exact distances: feed the shared
                # memo so later queries and explain() answer from cache.
                engine.record(queries[index], obj.location, value)
            return mask == full_mask

        # ------------------------------------------------------------------
        # Filtering phase
        # ------------------------------------------------------------------
        first_complete: int | None = None
        completing_index = 0
        with tracing.span("ce.filter"):
            while first_complete is None and not all(exhausted):
                for i in range(m):
                    if exhausted[i]:
                        continue
                    emission = expanders[i].next_nearest_object()
                    if emission is None:
                        exhausted[i] = True
                        continue
                    obj, value = emission
                    if record_visit(i, obj, value):
                        first_complete = obj.object_id
                        completing_index = i
                        break

        candidates: set[int] = set(handles)
        skyline: list[SkylinePoint] = []
        # Indexed mirror of the confirmed vectors for the refine-phase
        # dominance probes; updated on every confirmation.
        sky = SkylineBlock(m)

        if first_complete is not None:
            # Drain exact ties from the completing dimension so objects
            # whose vector equals p*'s are not lost to the C cut-off.
            p_star_value = table.data[handles[first_complete] * m + completing_index]
            expander = expanders[completing_index]
            while not exhausted[completing_index]:
                emission = expander.next_nearest_object()
                if emission is None:
                    exhausted[completing_index] = True
                    break
                obj, value = emission
                record_visit(completing_index, obj, value)
                candidates.add(obj.object_id)
                if value > p_star_value:
                    break

            stats.candidate_count = len(candidates)
            p_star = objects[first_complete]
            vector = table.row(handles[first_complete])
            new_point = SkylinePoint(obj=p_star, vector=vector)
            confirm_skyline_point(skyline, sky, new_point)
            timer.mark_first_result()
            candidates.discard(first_complete)
            self._prune(candidates, table, handles, masks, expanders, new_point, n)
        else:
            # Every dimension exhausted before any object was visited in
            # all of them: parts of the network are unreachable.  All
            # seen objects stay candidates with inf-padded vectors, and
            # never-seen objects (unreachable from every query point)
            # join them — their all-inf distance vectors tie, so only
            # their attributes can decide dominance.  Without a p* there
            # is no cut-off argument to exclude them.
            for obj in workspace.objects:
                if obj.object_id not in handles:
                    handle_of(obj)
                    candidates.add(obj.object_id)
            stats.candidate_count = len(candidates)

        # ------------------------------------------------------------------
        # Refinement phase (spatial dimensions only: attribute values of
        # candidates are already exact)
        # ------------------------------------------------------------------
        with tracing.span("ce.refine"):
            while candidates and not all(exhausted[:n]):
                progressed = False
                for i in range(n):
                    if exhausted[i] or not candidates:
                        continue
                    if not self._wants_expansion(i, candidates, masks):
                        continue
                    emission = expanders[i].next_nearest_object()
                    if emission is None:
                        exhausted[i] = True
                        continue
                    progressed = True
                    obj, value = emission
                    engine.record(queries[i], obj.location, value)
                    if obj.object_id not in candidates:
                        # New objects met during refinement are dominated
                        # (they lie beyond p* in every dimension) — discard.
                        continue
                    h = handles[obj.object_id]
                    table.data[h * m + i] = value
                    mask = masks[obj.object_id] | (1 << i)
                    masks[obj.object_id] = mask
                    tracing.record("distance_computations")
                    if mask & spatial_mask == spatial_mask:
                        candidates.discard(obj.object_id)
                        vector = table.row(h)
                        if not sky.dominates(vector):
                            new_point = SkylinePoint(obj=obj, vector=vector)
                            confirm_skyline_point(skyline, sky, new_point)
                            timer.mark_first_result()
                            self._prune(
                                candidates, table, handles, masks,
                                expanders, new_point, n,
                            )
                if not progressed:
                    break

        # Finalise candidates that remained partially visited because a
        # wavefront exhausted (unreachable regions): unknown = inf.
        for object_id in sorted(candidates):
            obj = objects[object_id]
            vector = table.row(handles[object_id])
            if not sky.dominates(vector):
                confirm_skyline_point(
                    skyline, sky, SkylinePoint(obj=obj, vector=vector)
                )
                timer.mark_first_result()

        return skyline

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _wants_expansion(
        index: int, candidates: set[int], masks: dict[int, int]
    ) -> bool:
        """Skip wavefronts that already know every candidate's distance."""
        return any(not masks[c] >> index & 1 for c in candidates)

    @staticmethod
    def _prune(
        candidates: set[int],
        table: VectorTable,
        handles: dict[int, int],
        masks: dict[int, int],
        expanders: list,
        new_point: SkylinePoint,
        n: int,
    ) -> None:
        """Drop candidates provably dominated by the new skyline point.

        Pruning runs once per confirmation, against the newly confirmed
        point only (the paper's ``∩ C(p,q)`` rule) — earlier skyline
        points already pruned everything they could when they arrived.
        A candidate's unknown distance to query ``i`` is bounded below
        by the distance of that wavefront's last emission; attribute
        dimensions are exact.  Strictness in the lower-bound dominance
        test guarantees no tied twin is ever discarded.

        One scratch row is reused for every candidate's bounds vector —
        known values come straight out of the column block, unknown
        spatial slots are floored by the wavefront radii.
        """
        m = table.width
        data = table.data
        vector = new_point.vector
        scratch = array("d", bytes(8 * m))
        doomed: list[int] = []
        for object_id in candidates:
            base = handles[object_id] * m
            mask = masks[object_id]
            i = 0
            while i < n:
                if mask >> i & 1:
                    scratch[i] = data[base + i]
                else:
                    floor = expanders[i].last_emitted_distance
                    scratch[i] = floor if floor > 0.0 else 0.0
                i += 1
            while i < m:
                # Attribute slots are exact from row creation.
                scratch[i] = data[base + i]
                i += 1
            if dominates_flat(vector, 0, scratch, 0, m):
                doomed.append(object_id)
        for object_id in doomed:
            candidates.discard(object_id)
