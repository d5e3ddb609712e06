"""Multi-source BBS: Euclidean skyline over the R-tree.

Section 4.2 of the paper extends Papadias et al.'s Branch-and-Bound
Skyline to multiple query points: the R-tree is browsed best-first with

* ``mindist`` of an object  = sum of its Euclidean distances to every
  query point, and
* ``mindist`` of an MBR     = sum of the per-query minimum distances
  to the rectangle,

and an entry is expanded only if the vector of its per-query (minimum)
distances is not dominated by an already-confirmed skyline point.  The
sum is strictly monotone under dominance, so every dominator of an
object pops before the object itself — which is exactly why comparing
against the confirmed set alone is complete.

:func:`euclidean_skyline` materialises the stream for EDC's step 1.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.columnar.store import SkylineBlock
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.index.rtree import RTree
from repro.network.objects import SpatialObject


def euclidean_vector(
    point: Point, query_points: Sequence[Point], attributes: Sequence[float] = ()
) -> tuple[float, ...]:
    """A location's vector of Euclidean distances (plus static attrs)."""
    return tuple(point.distance_to(q) for q in query_points) + tuple(attributes)


def mbr_lower_bound_vector(
    mbr: MBR, query_points: Sequence[Point], attribute_count: int = 0
) -> tuple[float, ...]:
    """Per-query mindist vector of an MBR, padded with zero attributes.

    Zero is the universal lower bound for unknown static attributes of
    the objects inside the subtree; with non-negative attribute domains
    this keeps subtree pruning sound.
    """
    return tuple(mbr.mindist(q) for q in query_points) + (0.0,) * attribute_count


def incremental_euclidean_skyline(
    rtree: RTree,
    query_points: Sequence[Point],
    attribute_count: int = 0,
) -> Iterator[tuple[SpatialObject, tuple[float, ...]]]:
    """Stream the multi-source Euclidean skyline in aggregate-distance order.

    Yields ``(object, vector)`` pairs where ``vector`` is the object's
    Euclidean distance vector (with static attributes appended).
    ``attribute_count`` must state how many static attributes the
    indexed objects carry so that MBR lower-bound vectors have matching
    dimensionality; a yielded vector of another width raises
    ``ValueError``.

    The confirmed vectors live in a :class:`SkylineBlock`, so each
    pruning probe is one columnar kernel call (charged to
    ``dominance_checks``) with the scalar test's exact verdict.
    """
    query_list = list(query_points)
    sky = SkylineBlock(len(query_list) + attribute_count)

    def entry_vector(mbr: MBR, payload: SpatialObject | None) -> tuple[float, ...]:
        if payload is not None:
            return euclidean_vector(payload.point, query_list, payload.attributes)
        return mbr_lower_bound_vector(mbr, query_list, attribute_count)

    def prune(mbr: MBR, payload: SpatialObject | None) -> bool:
        vector = entry_vector(mbr, payload)
        if payload is not None:
            return sky.dominates(vector)
        return sky.dominates_lb(vector)

    def key(mbr: MBR, payload: SpatialObject | None) -> float:
        return sum(entry_vector(mbr, payload))

    for _, _, payload in rtree.best_first(key, prune):
        obj: SpatialObject = payload
        vector = euclidean_vector(obj.point, query_list, obj.attributes)
        sky.append(vector)
        yield (obj, vector)


def euclidean_skyline(
    rtree: RTree,
    query_points: Sequence[Point],
    attribute_count: int = 0,
) -> list[tuple[SpatialObject, tuple[float, ...]]]:
    """The complete multi-source Euclidean skyline (materialised)."""
    return list(
        incremental_euclidean_skyline(
            rtree, query_points, attribute_count=attribute_count
        )
    )
