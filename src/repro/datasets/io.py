"""Plain-text road-network and object-set files.

The paper's datasets came as node/edge files (Digital Chart of the
World exports).  This module reads and writes that style of format so
users can bring their own networks:

Network file (``.net``), whitespace-separated, ``#`` comments::

    node <id> <x> <y>
    edge <id> <u> <v> <length>

Object file (``.obj``)::

    object <id> <edge_id> <offset> [attr1 attr2 ...]

Loaders validate as they go (unknown nodes, bad lengths, duplicate ids
all raise with line numbers) and writers round-trip exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, TextIO

from repro.geometry.point import Point
from repro.network.graph import RoadNetwork
from repro.network.objects import ObjectSet, SpatialObject

class NetworkFormatError(ValueError):
    """Raised for malformed network or object files."""

    def __init__(self, path: str, line_number: int, message: str) -> None:
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


def _content_lines(handle: TextIO) -> Iterable[tuple[int, list[str]]]:
    for line_number, raw in enumerate(handle, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield (line_number, line.split())


def save_network(network: RoadNetwork, path: str | Path) -> None:
    """Write a network in the text format described above.

    The format has no polyline record, so a network with an edge that
    carries polyline geometry is refused before anything is written:
    its on-edge points would not survive the round trip.
    """
    for edge in network.edges():
        if edge.geometry is not None:
            raise ValueError(
                f"edge {edge.edge_id} carries polyline geometry, which the "
                "network file format cannot store"
            )
    path = Path(path)
    with path.open("w") as handle:
        handle.write("# road network: nodes then edges\n")
        for node_id in sorted(network.node_ids()):
            p = network.node_point(node_id)
            handle.write(f"node {node_id} {p.x!r} {p.y!r}\n")
        for edge_id in sorted(network.edge_ids()):
            edge = network.edge(edge_id)
            handle.write(
                f"edge {edge.edge_id} {edge.u} {edge.v} {edge.length!r}\n"
            )


def load_network(path: str | Path) -> RoadNetwork:
    """Read a network file, validating record by record."""
    path = Path(path)
    network = RoadNetwork()
    with path.open() as handle:
        for line_number, fields in _content_lines(handle):
            kind = fields[0]
            try:
                if kind == "node":
                    if len(fields) != 4:
                        raise ValueError(
                            f"node takes 3 fields, got {len(fields) - 1}"
                        )
                    network.add_node(
                        int(fields[1]), Point(float(fields[2]), float(fields[3]))
                    )
                elif kind == "edge":
                    if len(fields) != 5:
                        raise ValueError(
                            f"edge takes 4 fields, got {len(fields) - 1}"
                        )
                    network.add_edge(
                        int(fields[2]),
                        int(fields[3]),
                        length=float(fields[4]),
                        edge_id=int(fields[1]),
                    )
                else:
                    raise ValueError(f"unknown record type {kind!r}")
            except (ValueError, KeyError) as exc:
                raise NetworkFormatError(str(path), line_number, str(exc)) from exc
    return network


def save_objects(objects: ObjectSet, path: str | Path) -> None:
    """Write an object set (edge-resident placements with attributes)."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write("# objects: object <id> <edge_id> <offset> [attrs...]\n")
        for obj in sorted(objects, key=lambda o: o.object_id):
            loc = obj.location
            if loc.edge_id is None:
                # Node-resident objects serialise through an incident
                # edge at offset 0 or length.
                network = objects.network
                neighbors = network.neighbors(loc.node_id)
                if not neighbors:
                    raise ValueError(
                        f"object {obj.object_id} sits on isolated node "
                        f"{loc.node_id}; cannot serialise"
                    )
                _, edge_id = neighbors[0]
                edge = network.edge(edge_id)
                offset = 0.0 if edge.u == loc.node_id else edge.length
            else:
                edge_id = loc.edge_id
                offset = loc.offset
            attrs = " ".join(repr(a) for a in obj.attributes)
            suffix = f" {attrs}" if attrs else ""
            handle.write(f"object {obj.object_id} {edge_id} {offset!r}{suffix}\n")


def load_objects(network: RoadNetwork, path: str | Path) -> ObjectSet:
    """Read an object file against an already-loaded network."""
    path = Path(path)
    objects: list[SpatialObject] = []
    with path.open() as handle:
        for line_number, fields in _content_lines(handle):
            if fields[0] != "object":
                raise NetworkFormatError(
                    str(path), line_number, f"unknown record type {fields[0]!r}"
                )
            if len(fields) < 4:
                raise NetworkFormatError(
                    str(path),
                    line_number,
                    f"object takes at least 3 fields, got {len(fields) - 1}",
                )
            try:
                object_id = int(fields[1])
                edge_id = int(fields[2])
                offset = float(fields[3])
                attributes = tuple(float(f) for f in fields[4:])
                location = network.location_on_edge(edge_id, offset)
            except (ValueError, KeyError) as exc:
                raise NetworkFormatError(str(path), line_number, str(exc)) from exc
            objects.append(
                SpatialObject(
                    object_id=object_id, location=location, attributes=attributes
                )
            )
    return ObjectSet.build(network, objects)
