"""Result types shared by every skyline algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stats import QueryStats
from repro.network.objects import SpatialObject


@dataclass(frozen=True, slots=True)
class SkylinePoint:
    """One answer: an object with its full evaluation vector.

    ``vector`` holds the network distances to every query point, in
    query order, followed by the object's static attributes (if any).
    """

    obj: SpatialObject
    vector: tuple[float, ...]

    @property
    def object_id(self) -> int:
        return self.obj.object_id


@dataclass
class SkylineResult:
    """The points of a multi-source network skyline query, plus costs.

    Points appear in the order the algorithm confirmed them (LBC and
    incremental EDC report progressively; the order is part of the
    paper's user-preference story).
    """

    points: list[SkylinePoint] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    trace: object | None = field(default=None, compare=False, repr=False)
    """The run's root :class:`repro.obs.tracing.Span` (``query.<algo>``).

    Always populated by :meth:`SkylineAlgorithm.run`; consumers that
    want the tree (``repro query --stats`` prints it, ``--json`` writes
    it) read it here, everyone else ignores it.  Typed loosely so the
    result module keeps zero telemetry imports.
    """

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def object_ids(self) -> list[int]:
        """Sorted object ids — the canonical form for equality checks."""
        return sorted(p.object_id for p in self.points)

    def vectors_by_id(self) -> dict[int, tuple[float, ...]]:
        """Object id → evaluation vector."""
        return {p.object_id: p.vector for p in self.points}

    def same_answer(self, other: "SkylineResult", tol: float = 1e-9) -> bool:
        """True when both results contain the same points and vectors."""
        if self.object_ids() != other.object_ids():
            return False
        mine = self.vectors_by_id()
        theirs = other.vectors_by_id()
        for object_id, vector in mine.items():
            other_vector = theirs[object_id]
            if len(vector) != len(other_vector):
                return False
            for a, b in zip(vector, other_vector):
                if a == b:  # handles inf == inf
                    continue
                if abs(a - b) > tol * max(1.0, abs(a), abs(b)):
                    return False
        return True
