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

:func:`delaunay_road_network` is the experiment workhorse: random
sites, Delaunay triangulation, MST-plus-shortest-extras thinning,
optional multi-patch site distribution (the paper's NA dataset is
"merged from multiple originally separated road networks").
"""

from __future__ import annotations

import random

from repro.geometry.point import Point
from repro.network.graph import RoadNetwork

REGION_SIDE = 1.0
"""All generated networks live in a unit (1 km x 1 km) region."""


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


def network_density(network: RoadNetwork, region_side: float = REGION_SIDE) -> float:
    """Total road length per unit area — the paper's density notion."""
    return network.total_length() / (region_side * region_side)
