"""The paper's contribution: multi-source network skyline processing.

Public API::

    from repro.core import Workspace, CE, EDC, LBC

    workspace = Workspace.build(network, objects)
    result = LBC().run(workspace, query_locations)
    for point in result:
        print(point.obj.object_id, point.vector)

Algorithms:

* :class:`CollaborativeExpansion` (``CE``) — Section 4.1;
* :class:`EuclideanDistanceConstraint` (``EDC``) — Section 4.2;
* :class:`LowerBoundConstraint` (``LBC``) — Section 4.3, the paper's
  instance-optimal algorithm;
* :class:`LowerBoundConstraintLazy` (``LBC-lazy``) — LBC with a
  lazily-bounded source dimension (not in the paper);
* :class:`NaiveSkyline` (``naive``) — exhaustive oracle (not in the
  paper).

All return identical answers; they differ in how much of the network
they touch, which is exactly what the benchmarks measure.
:data:`ALGORITHMS` maps each name to its class: the CLI, the service and
``repro bench`` accept exactly these names.
"""

from repro.core.base import SkylineAlgorithm
from repro.core.ce import CollaborativeExpansion
from repro.core.explain import (
    DominanceWitness,
    ObjectExplanation,
    explain_object,
    explain_result,
    object_vector,
)
from repro.core.edc import EuclideanDistanceConstraint
from repro.core.lbc import LowerBoundConstraint, LowerBoundConstraintLazy
from repro.core.naive import NaiveSkyline
from repro.core.query import Workspace
from repro.core.result import SkylinePoint, SkylineResult
from repro.core.stats import QueryStats

CE = CollaborativeExpansion
EDC = EuclideanDistanceConstraint
LBC = LowerBoundConstraint
LBCLazy = LowerBoundConstraintLazy

ALGORITHMS: dict[str, type[SkylineAlgorithm]] = {
    cls.name: cls
    for cls in (
        CollaborativeExpansion,
        EuclideanDistanceConstraint,
        LowerBoundConstraint,
        LowerBoundConstraintLazy,
        NaiveSkyline,
    )
}
"""Every algorithm by name: ``CE``, ``EDC``, ``LBC``, ``LBC-lazy`` and
``naive``."""

__all__ = [
    "ALGORITHMS",
    "CE",
    "CollaborativeExpansion",
    "DominanceWitness",
    "ObjectExplanation",
    "explain_object",
    "explain_result",
    "object_vector",
    "EDC",
    "EuclideanDistanceConstraint",
    "LBC",
    "LBCLazy",
    "LowerBoundConstraint",
    "LowerBoundConstraintLazy",
    "NaiveSkyline",
    "QueryStats",
    "SkylineAlgorithm",
    "SkylinePoint",
    "SkylineResult",
    "Workspace",
]
