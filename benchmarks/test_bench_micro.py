r"""Micro-benchmarks for the design choices DESIGN.md lists.

* **A\* vs Dijkstra** — point-to-point distance computation cost, the
  paper's explanation for EDC beating CE on response time (Section 6.3).
* **substrate ops** — R-tree NN streaming and B+-tree probes, the
  per-operation costs everything above is built from.
* **engine cache** — warm vs cold distance engine (a CI assertion).

The algorithm ablations (plb, LBC-lazy, CE strategy, buffer size, ALT
backend) are the ``ablations`` suite of :mod:`repro.bench`, measured
with counters and the answer check.
"""

import pytest

from repro.core import LBC
from repro.network import AStarExpander, DijkstraExpander, NetworkStore

from conftest import run_cold


class TestAStarVsDijkstra:
    @pytest.mark.parametrize("method", ["astar", "dijkstra"], ids=str)
    def test_point_to_point_distance(self, benchmark, workloads, method):
        """One-shot shortest-path cost between two random junctions."""
        network = workloads.network("AU")
        queries = workloads.queries("AU", 2, seed=55)
        source, target = queries

        def compute():
            if method == "astar":
                expander = AStarExpander(network, source)
                distance = expander.distance_to(target)
            else:
                expander = DijkstraExpander(network, source)
                distance = expander.distance_to(target)
            return expander.nodes_settled, distance

        nodes, _ = benchmark(compute)
        benchmark.extra_info["nodes_settled"] = nodes


class TestSubstrateOps:
    def test_rtree_nearest_stream(self, benchmark, workloads):
        """Streaming the 100 nearest objects from the NA object R-tree."""
        workspace = workloads.workspace("NA", 0.50)
        anchor = workloads.queries("NA", 1)[0].point

        def stream():
            out = []
            for _, _, payload in workspace.object_rtree.nearest(anchor):
                out.append(payload)
                if len(out) >= 100:
                    break
            return out

        result = benchmark(stream)
        assert len(result) == 100

    def test_middle_layer_probe(self, benchmark, workloads):
        """One B+-tree probe of the middle layer (hot buffer)."""
        workspace = workloads.workspace("NA", 0.50)
        edge_ids = sorted(workspace.network.edge_ids())[:200]

        def probe():
            hits = 0
            for edge_id in edge_ids:
                hits += len(workspace.middle.objects_on(edge_id))
            return hits

        benchmark(probe)

    def test_network_store_build(self, benchmark, workloads):
        """Hilbert clustering cost for the AU network."""
        network = workloads.network("AU")
        benchmark.pedantic(
            NetworkStore, args=(network,), rounds=2, iterations=1
        )

    def test_dijkstra_full_expansion(self, benchmark, workloads):
        """A complete single-source expansion of the AU network."""
        network = workloads.network("AU")
        source = workloads.queries("AU", 1, seed=66)[0]

        def expand():
            expander = DijkstraExpander(network, source)
            while expander.expand_next() is not None:
                pass
            return expander.nodes_settled

        nodes = benchmark(expand)
        benchmark.extra_info["nodes_settled"] = nodes


class TestEngineCache:
    """Warm vs cold distance engine on repeated multi-source queries.

    The tentpole claim of the engine layer: a repeated query against a
    warm engine (pooled wavefronts + distance memo) visits well under
    70 % of the nodes the cold (seed-equivalent) run visits, with an
    identical skyline.
    """

    @pytest.mark.parametrize("algorithm_name", ["EDC", "LBC"], ids=str)
    def test_warm_engine_cache_saves_node_visits(
        self, benchmark, workloads, algorithm_name
    ):
        from repro.core import EDC, Workspace

        # A private workspace: the shared one must stay cold for the
        # other benchmarks' measurements.
        network = workloads.network("AU")
        objects = workloads.workspace("AU", 0.50).objects
        workspace = Workspace.build(network, objects, paged=True)
        queries = workloads.queries("AU", 4)
        algorithm = EDC() if algorithm_name == "EDC" else LBC()

        cold = run_cold(workspace, algorithm, queries)
        assert cold.stats.nodes_settled > 0

        # Warm repeat: buffers and engine caches stay hot (no cold
        # reset), exactly how a query mix against one workspace runs.
        warm = benchmark.pedantic(
            algorithm.run, args=(workspace, queries), rounds=3, iterations=1
        )
        assert warm.same_answer(cold)
        assert warm.stats.nodes_settled <= 0.7 * cold.stats.nodes_settled
        benchmark.extra_info.update(
            {
                "cold_nodes": cold.stats.nodes_settled,
                "warm_nodes": warm.stats.nodes_settled,
                "warm_engine_hits": warm.stats.engine_hits,
            }
        )
