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

The generator form feeds EDC's incremental variant, which consumes one
Euclidean skyline point at a time and injects its own extra pruning.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator, Sequence

from repro.columnar import kernels
from repro.columnar.store import CoordinateColumns, SkylineBlock, VectorTable
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.index.rtree import RTree
from repro.network.objects import SpatialObject
from repro.obs import tracing


def euclidean_vector(
    point: Point, query_points: Sequence[Point], attributes: Sequence[float] = ()
) -> tuple[float, ...]:
    """A location's vector of Euclidean distances (plus static attrs)."""
    return tuple(point.distance_to(q) for q in query_points) + tuple(attributes)


def euclidean_vectors_block(
    coords: CoordinateColumns,
    query_points: Sequence[Point],
    attributes=None,
    attribute_count: int = 0,
) -> VectorTable:
    """Euclidean distance vectors for a whole coordinate block at once.

    Row ``i`` holds the distances of point ``i`` to every query point,
    followed by its static attributes read from the flat ``attributes``
    buffer (``count * attribute_count`` floats, row-major) when given.
    One :func:`~repro.columnar.kernels.batch_euclidean` sweep per query
    point fills a column in place — no per-object tuples.
    """
    count = len(coords)
    width = len(query_points) + attribute_count
    data = array("d", bytes(8 * count * width))
    with tracing.span("columnar.distances", points=count, queries=len(query_points)):
        for column, q in enumerate(query_points):
            kernels.batch_euclidean(
                coords.xs, coords.ys, count, q.x, q.y, data, column, width
            )
        if attributes is not None:
            # ``attributes`` is row-major as well; column j of the source
            # strides by attribute_count starting at offset j.
            for j in range(attribute_count):
                kernels.fill_column(
                    data,
                    width,
                    len(query_points) + j,
                    attributes,
                    count,
                    src_offset=j,
                    src_stride=attribute_count,
                )
    return VectorTable(width, data)


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
    extra_prune: Callable[[tuple[float, ...]], bool] | None = None,
    attribute_count: int = 0,
) -> Iterator[tuple[SpatialObject, tuple[float, ...]]]:
    """Stream the multi-source Euclidean skyline in aggregate-distance order.

    Yields ``(object, vector)`` pairs where ``vector`` is the object's
    Euclidean distance vector (with static attributes appended).
    ``extra_prune`` receives the lower-bound vector of any entry and may
    veto it — EDC's incremental mode uses this to skip entries inside
    already-covered candidate regions.  ``attribute_count`` must state
    how many static attributes the indexed objects carry so that MBR
    lower-bound vectors have matching dimensionality; a yielded vector
    of another width raises ``ValueError``.

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
            if sky.dominates(vector):
                return True
        elif sky.dominates_lb(vector):
            return True
        return extra_prune is not None and extra_prune(vector)

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
