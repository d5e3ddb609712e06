"""Synthetic road-network generators.

The paper evaluates on three DCW road networks (California, Australia,
North America) that are not redistributable here; these generators
produce networks with the structural properties the experiments
actually exercise:

* everything is unified into a **1 km x 1 km region** (as the paper
  does) so "network density" means edges per fixed area;
* the **edge/node ratio** matches the real datasets (~1.19-1.30);
* **sparser networks have larger δ** (the network/Euclidean distance
  ratio): with few alternative routes, paths detour.  This emerges
  naturally from thinning a Delaunay triangulation down to the target
  edge count — no artificial length inflation is needed, though a mild
  per-edge detour factor is supported to model curved roads.

Two families:

* :func:`grid_network` — regular grids with perturbation; predictable,
  ideal for unit tests;
* :func:`delaunay_road_network` — the experiment workhorse: random
  sites, Delaunay triangulation, MST-plus-shortest-extras thinning,
  optional multi-patch site distribution (the paper's NA dataset is
  "merged from multiple originally separated road networks").
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.geometry.point import Point
from repro.network.graph import RoadNetwork

REGION_SIDE = 1.0
"""All generated networks live in a unit (1 km x 1 km) region."""


def grid_network(
    rows: int,
    cols: int,
    jitter: float = 0.0,
    detour: float = 1.0,
    drop_fraction: float = 0.0,
    seed: int = 0,
    region_side: float = REGION_SIDE,
) -> RoadNetwork:
    """A rows x cols grid with optional jitter, detours and edge drops.

    ``jitter`` displaces nodes by up to that fraction of the cell size;
    ``detour`` multiplies every edge length (>= 1); ``drop_fraction``
    removes that share of edges, skipping removals that would
    disconnect the grid (checked cheaply by keeping a spanning set).
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2x2 nodes")
    if detour < 1.0:
        raise ValueError(f"detour factor must be >= 1, got {detour}")
    rng = random.Random(seed)
    network = RoadNetwork()
    dx = region_side / (cols - 1)
    dy = region_side / (rows - 1)

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            jx = rng.uniform(-jitter, jitter) * dx if jitter else 0.0
            jy = rng.uniform(-jitter, jitter) * dy if jitter else 0.0
            network.add_node(node_id(r, c), Point(c * dx + jx, r * dy + jy))

    candidate_edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                candidate_edges.append((node_id(r, c), node_id(r, c + 1)))
            if r + 1 < rows:
                candidate_edges.append((node_id(r, c), node_id(r + 1, c)))

    keep: list[tuple[int, int]] = candidate_edges
    if drop_fraction > 0.0:
        keep = _drop_edges_keeping_connected(
            candidate_edges, rows * cols, drop_fraction, rng
        )
    for u, v in keep:
        chord = network.node_point(u).distance_to(network.node_point(v))
        network.add_edge(u, v, length=chord * detour)
    return network


def delaunay_road_network(
    node_count: int,
    edge_node_ratio: float = 1.2,
    seed: int = 0,
    patches: int = 1,
    patch_spread: float = 0.18,
    detour_jitter: tuple[float, float] = (1.0, 1.08),
    short_extra_share: float = 0.5,
    region_side: float = REGION_SIDE,
) -> RoadNetwork:
    """The main road-network generator (see module docstring).

    ``patches > 1`` draws most sites from that many Gaussian clusters
    (merged sub-networks).  ``edge_node_ratio`` sets |E|/|V|: a minimum
    spanning tree is kept, then extra Delaunay edges are added up to
    the target.  ``short_extra_share`` splits those extras between the
    *shortest* remaining edges (purely local shortcuts — poor long-range
    routing, large δ) and a *random* mix over all length scales
    (highway-like links — good routing, small δ).  This is the knob the
    presets use to reproduce the paper's δ-falls-with-density effect.
    """
    if node_count < 4:
        raise ValueError("need at least 4 nodes for a triangulation")
    if edge_node_ratio < 1.0:
        raise ValueError(f"edge/node ratio must be >= 1, got {edge_node_ratio}")
    lo, hi = detour_jitter
    if not 1.0 <= lo <= hi:
        raise ValueError(
            f"detour_jitter must satisfy 1 <= lo <= hi, got {detour_jitter}"
        )
    if not 0.0 <= short_extra_share <= 1.0:
        raise ValueError(
            f"short_extra_share must be in [0, 1], got {short_extra_share}"
        )

    rng = random.Random(seed)
    sites = _generate_sites(node_count, patches, patch_spread, rng, region_side)

    import numpy as np
    from scipy.spatial import Delaunay

    array = np.array([(p.x, p.y) for p in sites])
    triangulation = Delaunay(array)
    edge_set: set[tuple[int, int]] = set()
    for simplex in triangulation.simplices:
        a, b, c = int(simplex[0]), int(simplex[1]), int(simplex[2])
        edge_set.add((min(a, b), max(a, b)))
        edge_set.add((min(b, c), max(b, c)))
        edge_set.add((min(a, c), max(a, c)))

    def chord(edge: tuple[int, int]) -> float:
        return sites[edge[0]].distance_to(sites[edge[1]])

    by_length = sorted(edge_set, key=lambda e: (chord(e), e))

    # Kruskal: the MST keeps the network connected with n-1 edges.
    parent = list(range(node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    mst: list[tuple[int, int]] = []
    extras: list[tuple[int, int]] = []
    for edge in by_length:
        ra, rb = find(edge[0]), find(edge[1])
        if ra != rb:
            parent[ra] = rb
            mst.append(edge)
        else:
            extras.append(edge)

    target_edges = max(node_count - 1, int(round(node_count * edge_node_ratio)))
    need = max(0, target_edges - len(mst))
    short_count = min(len(extras), int(round(need * short_extra_share)))
    chosen_extras = extras[:short_count]
    remaining = extras[short_count:]
    rng.shuffle(remaining)
    chosen_extras += remaining[: need - short_count]
    chosen = mst + chosen_extras

    network = RoadNetwork()
    for i, p in enumerate(sites):
        network.add_node(i, p)
    # Assign edge ids in spatial (Hilbert midpoint) order, as real road
    # data files are tiled geographically.  The middle layer's B+-tree
    # is keyed by edge id, so this gives wavefront-local probes the
    # page locality they would have on DCW data.
    from repro.network.storage import hilbert_index

    order = 10
    side = (1 << order) - 1

    def hilbert_of(edge: tuple[int, int]) -> int:
        mid = sites[edge[0]].midpoint(sites[edge[1]])
        gx = min(side, max(0, int(mid.x / region_side * side)))
        gy = min(side, max(0, int(mid.y / region_side * side)))
        return hilbert_index(gx, gy, order)

    chosen.sort(key=lambda e: (hilbert_of(e), e))
    for u, v in chosen:
        factor = rng.uniform(lo, hi)
        network.add_edge(u, v, length=chord((u, v)) * factor)
    return network


def _generate_sites(
    node_count: int,
    patches: int,
    patch_spread: float,
    rng: random.Random,
    region_side: float,
) -> list[Point]:
    """Uniform sites, or a mixture of clusters plus uniform background."""
    sites: list[Point] = []
    if patches <= 1:
        for _ in range(node_count):
            sites.append(
                Point(rng.random() * region_side, rng.random() * region_side)
            )
        return sites
    centers = [
        Point(
            region_side * (0.2 + 0.6 * rng.random()),
            region_side * (0.2 + 0.6 * rng.random()),
        )
        for _ in range(patches)
    ]
    background = max(1, node_count // 10)
    clustered = node_count - background
    for i in range(clustered):
        center = centers[i % patches]
        x = min(max(rng.gauss(center.x, patch_spread * region_side), 0.0), region_side)
        y = min(max(rng.gauss(center.y, patch_spread * region_side), 0.0), region_side)
        sites.append(Point(x, y))
    for _ in range(background):
        sites.append(Point(rng.random() * region_side, rng.random() * region_side))
    return sites


def _drop_edges_keeping_connected(
    edges: Sequence[tuple[int, int]],
    node_count: int,
    drop_fraction: float,
    rng: random.Random,
) -> list[tuple[int, int]]:
    """Remove ~drop_fraction of edges without disconnecting the graph.

    A randomly grown spanning set is protected; only non-protected
    edges are eligible for removal.
    """
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError(f"drop_fraction must be in [0, 1), got {drop_fraction}")
    shuffled = list(edges)
    rng.shuffle(shuffled)
    parent = list(range(node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    protected: set[tuple[int, int]] = set()
    removable: list[tuple[int, int]] = []
    for edge in shuffled:
        ra, rb = find(edge[0]), find(edge[1])
        if ra != rb:
            parent[ra] = rb
            protected.add(edge)
        else:
            removable.append(edge)
    to_drop = min(len(removable), int(round(drop_fraction * len(edges))))
    dropped = set(removable[:to_drop])
    return [e for e in edges if e not in dropped]


def network_density(network: RoadNetwork, region_side: float = REGION_SIDE) -> float:
    """Total road length per unit area — the paper's density notion."""
    return network.total_length() / (region_side * region_side)


def estimate_delta(
    network: RoadNetwork,
    sources: int = 8,
    targets_per_source: int = 40,
    seed: int = 0,
) -> float:
    """Sampled average δ = dN / dE over random connected node pairs.

    The statistic Section 5 reasons about: large in sparse networks,
    approaching 1 as density grows.  One full Dijkstra per sampled
    source covers all of that source's target samples; wavefronts come
    from a throwaway :class:`~repro.engine.DistanceEngine` so this
    module respects the construction discipline (and repeated sources,
    if sampled, reuse their expansion).
    """
    from repro.engine import DistanceEngine

    rng = random.Random(seed)
    node_ids = list(network.node_ids())
    if len(node_ids) < 2:
        return 1.0
    engine = DistanceEngine(network)
    total = 0.0
    count = 0
    for source in rng.sample(node_ids, min(sources, len(node_ids))):
        expander = engine.expander(network.location_at_node(source))
        while expander.expand_next() is not None:
            pass
        reachable = [v for v in expander.settled if v != source]
        if not reachable:
            continue
        sample = rng.sample(reachable, min(targets_per_source, len(reachable)))
        source_point = network.node_point(source)
        for target in sample:
            euclid = source_point.distance_to(network.node_point(target))
            dist = expander.settled[target]
            if euclid > 0.0 and math.isfinite(dist):
                total += dist / euclid
                count += 1
    return total / count if count else 1.0

