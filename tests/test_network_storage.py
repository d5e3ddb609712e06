"""Unit tests for the clustered network store and Hilbert ordering."""

import random


from repro.network import NetworkStore, hilbert_index
from repro.storage import DEFAULT_PAGE_SIZE

from conftest import grid_network
from invariants import check_rtree, rtree_entries
from network_measures import clustering_quality


class TestHilbertIndex:
    def test_order_one_quadrants(self):
        # The four cells of a first-order curve are visited exactly once.
        cells = {hilbert_index(x, y, 1) for x in (0, 1) for y in (0, 1)}
        assert cells == {0, 1, 2, 3}

    def test_bijective_on_grid(self):
        order = 4
        side = 1 << order
        seen = {
            hilbert_index(x, y, order) for x in range(side) for y in range(side)
        }
        assert seen == set(range(side * side))

    def test_adjacent_cells_are_close_on_curve(self):
        # The Hilbert property: consecutive curve positions are adjacent
        # cells, so adjacent cells tend to have close indices.  Compare
        # against row-major order on random neighbour pairs.
        order = 5
        side = 1 << order
        rng = random.Random(0)
        hilbert_gaps = []
        rowmajor_gaps = []
        for _ in range(300):
            x = rng.randrange(side - 1)
            y = rng.randrange(side)
            hilbert_gaps.append(
                abs(hilbert_index(x, y, order) - hilbert_index(x + 1, y, order))
            )
            rowmajor_gaps.append(abs((y * side + x) - (y * side + x + 1)))
        # Hilbert's average neighbour gap should be modest; a weak but
        # meaningful locality assertion.
        assert sum(hilbert_gaps) / len(hilbert_gaps) < side * side / 8


class TestNetworkStore:
    def test_every_node_has_a_page(self, medium_network):
        store = NetworkStore(medium_network)
        for node_id in medium_network.node_ids():
            assert store.page_of(node_id) >= 0

    def test_touch_counts_io(self, medium_network):
        store = NetworkStore(medium_network)
        node = next(iter(medium_network.node_ids()))
        store.touch_node(node)
        store.touch_node(node)
        assert store.stats.logical_reads == 2
        assert store.stats.physical_reads == 1

    def test_reset_cold_empties_buffer(self, medium_network):
        store = NetworkStore(medium_network)
        node = next(iter(medium_network.node_ids()))
        store.touch_node(node)
        store.reset(cold=True)
        store.touch_node(node)
        assert store.stats.physical_reads == 1

    def test_reset_warm_keeps_buffer(self, medium_network):
        store = NetworkStore(medium_network)
        node = next(iter(medium_network.node_ids()))
        store.touch_node(node)
        store.reset(cold=False)
        store.touch_node(node)
        assert store.stats.physical_reads == 0

    def test_small_pages_make_more_pages(self, medium_network):
        big = NetworkStore(medium_network, page_size=DEFAULT_PAGE_SIZE)
        small = NetworkStore(medium_network, page_size=256)
        assert small.page_count > big.page_count

    def test_huge_degree_node_clamped_to_page(self):
        # A star network where the hub's record exceeds one page must
        # still cluster without raising.
        from repro.geometry import Point
        from repro.network import RoadNetwork

        net = RoadNetwork()
        net.add_node(0, Point(0.5, 0.5))
        for i in range(1, 300):
            net.add_node(i, Point((i % 17) / 17.0, (i % 13) / 13.0))
            net.add_edge(0, i)
        store = NetworkStore(net, page_size=1024)
        store.touch_node(0)  # must not raise
        assert store.page_count >= 1

    def test_empty_network(self):
        from repro.network import RoadNetwork

        store = NetworkStore(RoadNetwork())
        assert store.page_count == 0

    def test_hilbert_clustering_beats_random_on_grid(self):
        net = grid_network(24, 24, seed=3)
        store = NetworkStore(net, page_size=1024)
        quality = clustering_quality(store)
        # Random assignment would co-locate only ~ (records/page) / nodes
        # of edges; Hilbert clustering should co-locate a large share.
        assert quality > 0.3

    def test_edge_rtree(self, medium_network):
        store = NetworkStore(medium_network)
        tree = store.build_edge_rtree(max_entries=8)
        check_rtree(tree)
        assert len(rtree_entries(tree)) == medium_network.edge_count


class TestWavefrontLocality:
    def test_compact_walk_hits_buffer(self):
        """A spatially compact expansion should mostly re-hit pages."""
        net = grid_network(30, 30, seed=1)
        store = NetworkStore(net, page_size=2048)
        from repro.network import DijkstraExpander

        expander = DijkstraExpander(
            net, net.location_at_node(0), store=store
        )
        for _ in range(200):
            if expander.expand_next() is None:
                break
        assert store.stats.hit_ratio > 0.5

    def test_random_jumps_miss_more(self):
        net = grid_network(30, 30, seed=1)
        store = NetworkStore(
            net, page_size=2048, buffer_bytes=2048 * 4
        )  # tiny buffer
        rng = random.Random(2)
        nodes = list(net.node_ids())
        for _ in range(200):
            store.touch_node(rng.choice(nodes))
        random_ratio = store.stats.hit_ratio

        store2 = NetworkStore(net, page_size=2048, buffer_bytes=2048 * 4)
        from repro.network import DijkstraExpander

        expander = DijkstraExpander(net, net.location_at_node(0), store=store2)
        for _ in range(200):
            expander.expand_next()
        assert store2.stats.hit_ratio > random_ratio
