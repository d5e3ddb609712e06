"""Column containers for the columnar data plane.

These are thin, slotted wrappers around flat ``array('d')`` buffers:
they own layout (row-major, fixed width) and boundary materialisation
(:meth:`VectorTable.row` builds the per-object tuple exactly once, when
a result crosses back into the object world), while all comparison
work is delegated to :mod:`repro.columnar.kernels`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

from repro.columnar.kernels import (
    block_skyline,
    index_append,
    index_build,
    index_covers,
    index_dominates,
)


class VectorTable:
    """A row-major table of fixed-width float vectors in one flat buffer.

    ``data[r * width + d]`` is component ``d`` of row ``r``.  The row
    count is derived (``len(data) // width``), so writers that stream
    raw values via :attr:`data` must append whole rows.
    """

    __slots__ = ("width", "data")

    def __init__(self, width: int, data: array | None = None) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = width
        self.data = array("d") if data is None else data
        if len(self.data) % width:
            raise ValueError(
                f"buffer length {len(self.data)} is not a multiple of "
                f"width {width}"
            )

    def __len__(self) -> int:
        return len(self.data) // self.width

    def append(self, vector: Sequence[float]) -> int:
        """Append one row, returning its index."""
        if len(vector) != self.width:
            raise ValueError(
                f"dimension mismatch: {len(vector)} vs {self.width}"
            )
        index = len(self.data) // self.width
        self.data.extend(vector)
        return index

    def row(self, index: int) -> tuple[float, ...]:
        """Materialise row ``index`` as a tuple (the object boundary)."""
        base = index * self.width
        if not 0 <= index < len(self):
            raise IndexError(f"row {index} outside 0..{len(self) - 1}")
        return tuple(self.data[base : base + self.width])

    def clear(self) -> None:
        del self.data[:]


class CandidateBlock:
    """A candidate set in columnar form: id handles beside vector rows.

    Algorithms carry candidates as ``(ids[i], vectors row i)`` pairs and
    materialise :class:`~repro.network.objects.SpatialObject` results
    only at the :class:`~repro.core.result.SkylineResult` boundary.
    """

    __slots__ = ("ids", "vectors")

    def __init__(self, width: int) -> None:
        self.ids = array("q")
        self.vectors = VectorTable(width)

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, object_id: int, vector: Sequence[float]) -> int:
        """Append one candidate, returning its row index."""
        index = self.vectors.append(vector)
        self.ids.append(object_id)
        return index

    def skyline(self) -> list[int]:
        """Row indices of the block's skyline (SFS preference order)."""
        return block_skyline(self.vectors.data, len(self.ids), self.vectors.width)


class SkylineBlock:
    """Columnar mirror of a confirmed-skyline vector set, indexed per dimension.

    ``table`` keeps the rows in confirmation order.  Beside it, for each
    dimension ``d``, ``values[d]`` holds the column in ascending order
    and ``masks[d][k]`` the bitmask of the rows with its ``k`` smallest
    values (see :func:`repro.columnar.kernels.index_build`), so every
    probe is a few bisects and integer ANDs/ORs rather than a scan of
    every row.  :meth:`append` updates the index in place; only
    :meth:`rebuild` (after an eviction, or for a fresh snapshot) sorts.
    Probes accept any indexable vector (tuple, array row via
    ``offset``), which lets hot loops test scratch buffers without
    materialising tuples, and charge ``dominance_checks`` exactly what a
    front-to-back scan of the rows would have examined.

    ``version`` counts the appends and rebuilds, so a caller holding a
    verdict can tell whether the set has changed since (the length
    cannot: an eviction plus an append leaves it unchanged).
    """

    __slots__ = ("table", "values", "masks", "version")

    def __init__(self, width: int) -> None:
        self.table = VectorTable(width)
        self.values: list[list[float]] = [[] for _ in range(width)]
        self.masks: list[list[int]] = [[0] for _ in range(width)]
        self.version = 0

    def __len__(self) -> int:
        return len(self.table)

    def rebuild(self, vectors: Iterable[Sequence[float]]) -> None:
        """Replace the contents with ``vectors`` (e.g. after eviction)."""
        table = self.table
        table.clear()
        for vector in vectors:
            table.append(vector)
        index_build(self.values, self.masks, table.data, len(table))
        self.version += 1

    def append(self, vector: Sequence[float]) -> None:
        self.table.append(vector)
        index_append(self.values, self.masks, vector)
        self.version += 1

    def dominates(self, vector, offset: int = 0) -> bool:
        """Does any confirmed vector dominate ``vector``? (exact)"""
        return index_dominates(self.values, self.masks, vector, offset)

    def dominates_lb(self, bounds, offset: int = 0) -> bool:
        """Does any confirmed vector provably dominate the true vector
        lower-bounded by ``bounds``? (sound under-approximation)"""
        return index_dominates(self.values, self.masks, bounds, offset)

    def covers(self, vector, offset: int = 0) -> bool:
        """Is ``vector <= r`` pointwise for some row ``r``? (EDC's window
        test, with shifted corners as the rows)"""
        return index_covers(self.values, self.masks, vector, offset)
