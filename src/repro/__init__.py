"""repro — multi-source skyline query processing in road networks.

A from-scratch reproduction of Deng, Zhou, Shen, *Multi-source Skyline
Query Processing in Road Networks* (ICDE 2007): the CE, EDC and LBC
algorithms, the storage and index substrates they run on, workload
generators standing in for the paper's road networks, and an experiment
harness regenerating every figure of the paper's evaluation.

Quickstart::

    from repro import (
        Workspace, LBC, delaunay_road_network, extract_objects,
        select_query_points,
    )

    network = delaunay_road_network(node_count=2000, seed=1)
    objects = extract_objects(network, omega=0.5, seed=2)
    workspace = Workspace.build(network, objects)
    queries = select_query_points(network, 3, seed=3)
    for point in LBC().run(workspace, queries):
        print(point.obj.object_id, point.vector)
"""

from repro.core import (
    ALGORITHMS,
    CE,
    EDC,
    LBC,
    CollaborativeExpansion,
    EuclideanDistanceConstraint,
    LowerBoundConstraint,
    NaiveSkyline,
    QueryStats,
    SkylineAlgorithm,
    SkylinePoint,
    SkylineResult,
    Workspace,
)
from repro.datasets import (
    build_preset,
    delaunay_road_network,
    extract_objects,
    select_query_points,
)
from repro.engine import BACKEND_NAMES, DistanceEngine
from repro.geometry import MBR, Point
from repro.network import (
    NetworkLocation,
    ObjectSet,
    RoadNetwork,
    SpatialObject,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "BACKEND_NAMES",
    "CE",
    "DistanceEngine",
    "EDC",
    "LBC",
    "MBR",
    "CollaborativeExpansion",
    "EuclideanDistanceConstraint",
    "LowerBoundConstraint",
    "NaiveSkyline",
    "NetworkLocation",
    "ObjectSet",
    "Point",
    "QueryStats",
    "RoadNetwork",
    "SkylineAlgorithm",
    "SkylinePoint",
    "SkylineResult",
    "SpatialObject",
    "Workspace",
    "build_preset",
    "delaunay_road_network",
    "extract_objects",
    "select_query_points",
    "__version__",
]
