"""Workload generation: networks, objects, query points, presets."""

from repro.datasets.io import (
    NetworkFormatError,
    load_network,
    load_objects,
    save_network,
    save_objects,
)
from repro.datasets.generators import (
    REGION_SIDE,
    delaunay_road_network,
    network_density,
)
from repro.datasets.objects import (
    OMEGA_LEVELS,
    AttributeSpec,
    extract_n_objects,
    extract_objects,
)
from repro.datasets.presets import (
    AU,
    CA,
    DEFAULT_SCALE,
    DENSITY_ORDER,
    NA,
    PRESETS,
    NetworkPreset,
    build_preset,
)
from repro.datasets.queries import (
    select_query_points,
    select_query_points_on_edges,
)

__all__ = [
    "AU",
    "CA",
    "DEFAULT_SCALE",
    "DENSITY_ORDER",
    "NA",
    "OMEGA_LEVELS",
    "PRESETS",
    "REGION_SIDE",
    "AttributeSpec",
    "NetworkFormatError",
    "load_network",
    "load_objects",
    "save_network",
    "save_objects",
    "NetworkPreset",
    "build_preset",
    "delaunay_road_network",
    "extract_n_objects",
    "extract_objects",
    "network_density",
    "select_query_points",
    "select_query_points_on_edges",
]
