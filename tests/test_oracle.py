"""Tests for the preprocessed distance-oracle layer (``repro.oracle``).

Exactness strategy: on networks whose edge lengths are integer-valued
floats, every path sum is exact regardless of association order (all
sums stay far below 2**53), so CH and hub-label answers must be
**bit-identical** to online Dijkstra — equality is asserted with ``==``,
never a tolerance.  (On irrational lengths the oracle's pre-summed
shortcut weights associate differently and can differ in the last bit;
``repro oracle verify`` covers that regime with a relative tolerance.)
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DistanceEngine
from repro.geometry import Point
from repro.network import NetworkStore, RoadNetwork
from repro.obs import tracing
from repro.oracle import (
    DistanceOracle,
    OracleIndexError,
    build_oracle_index,
    hub_label_distance,
    load_oracle_index,
    network_signature,
    save_oracle_index,
)
from repro.oracle.store import OracleStore

INF = math.inf


def integer_network(
    seed: int,
    node_count: int = 60,
    extra_edges: int = 40,
    components: int = 1,
) -> RoadNetwork:
    """A random network whose edge lengths are integer-valued floats.

    Integer lattice coordinates plus ``ceil(chord) + k`` lengths keep
    every distance an exact small integer, which is what makes the
    bit-identity assertions in this module legitimate.  ``components``
    > 1 partitions the nodes into that many disconnected chains.
    """
    rng = random.Random(seed)
    net = RoadNetwork()
    points = [
        Point(float(rng.randrange(1000)), float(rng.randrange(1000)))
        for _ in range(node_count)
    ]
    for i, p in enumerate(points):
        net.add_node(i, p)
    chunk = node_count // components
    chunks = [
        list(range(c * chunk, node_count if c == components - 1 else (c + 1) * chunk))
        for c in range(components)
    ]

    def connect(a: int, b: int) -> None:
        chord = points[a].distance_to(points[b])
        net.add_edge(a, b, length=float(math.ceil(chord) + rng.randrange(10)))
    for ids in chunks:
        order = list(ids)
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            connect(a, b)
    for _ in range(extra_edges):
        ids = rng.choice(chunks)
        if len(ids) < 2:
            continue
        a, b = rng.sample(ids, 2)
        connect(a, b)
    return net


def node_pairs(net: RoadNetwork, seed: int, count: int):
    rng = random.Random(seed)
    nodes = sorted(net.node_ids())
    for _ in range(count):
        a, b = rng.choice(nodes), rng.choice(nodes)
        yield net.location_at_node(a), net.location_at_node(b)


def edge_pairs(net: RoadNetwork, seed: int, count: int):
    """On-edge locations at integer offsets (kept integer-exact)."""
    rng = random.Random(seed)
    edges = sorted(net.edge_ids())
    for _ in range(count):
        locs = []
        for _ in range(2):
            edge = net.edge(rng.choice(edges))
            offset = float(rng.randrange(int(edge.length) + 1))
            locs.append(net.location_on_edge(edge.edge_id, offset))
        yield locs[0], locs[1]


# ----------------------------------------------------------------------
# Exact equivalence with online Dijkstra
# ----------------------------------------------------------------------
class TestExactEquivalence:
    @pytest.mark.parametrize("kind", ["ch", "hublabel"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_node_pairs_bit_identical(self, kind, seed):
        net = integer_network(seed)
        reference = DistanceEngine(net, backend="dijkstra")
        oracle = DistanceEngine(net, backend=kind)
        for a, b in node_pairs(net, seed + 50, 60):
            assert oracle.distance(a, b) == reference.distance(a, b)

    @pytest.mark.parametrize("kind", ["ch", "hublabel"])
    def test_on_edge_pairs_bit_identical(self, kind):
        net = integer_network(9)
        reference = DistanceEngine(net, backend="dijkstra")
        oracle = DistanceEngine(net, backend=kind)
        for a, b in edge_pairs(net, 42, 40):
            assert oracle.distance(a, b) == reference.distance(a, b)

    @pytest.mark.parametrize("kind", ["ch", "hublabel"])
    def test_disconnected_pairs_are_inf(self, kind):
        net = integer_network(4, node_count=40, extra_edges=10, components=2)
        reference = DistanceEngine(net, backend="dijkstra")
        oracle = DistanceEngine(net, backend=kind)
        cross = [
            (net.location_at_node(a), net.location_at_node(b))
            for a in (0, 5)
            for b in (25, 39)
        ]
        for a, b in cross:
            assert reference.distance(a, b) == INF
            assert oracle.distance(a, b) == INF
        # Same-component pairs stay finite and exact.
        for a, b in node_pairs(net, 77, 30):
            assert oracle.distance(a, b) == reference.distance(a, b)


# ----------------------------------------------------------------------
# Hub-label lookup: probing a source hub map against a sorted merge
# ----------------------------------------------------------------------
def merge_reference(a, b):
    """Merge-intersect two id-sorted labels: ``(distance, loop steps)``."""
    best = INF
    steps = 0
    i = j = 0
    while i < len(a) and j < len(b):
        steps += 1
        if a[i][0] == b[j][0]:
            total = a[i][1] + b[j][1]
            if total < best:
                best = total
            i += 1
            j += 1
        elif a[i][0] < b[j][0]:
            i += 1
        else:
            j += 1
    return best, steps


label_distance = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)
labels = st.dictionaries(st.integers(0, 30), label_distance, max_size=10).map(
    lambda entries: sorted(entries.items())
)


@st.composite
def label_pairs(draw):
    """Two labels related in one of the shapes a merge treats apart."""
    a = draw(labels)
    shape = draw(
        st.sampled_from(
            ["random", "disjoint", "identical", "nested", "equal-last", "singleton"]
        )
    )
    if shape == "random":
        b = draw(labels)
    elif shape == "disjoint":
        b = [(hub + 31, d) for hub, d in draw(labels)]
    elif shape == "identical":
        b = list(a)
    elif shape == "nested":
        b = [(hub, draw(label_distance)) for hub, _ in a if draw(st.booleans())]
    elif shape == "equal-last":
        b = draw(labels)
        top = max([hub for hub, _ in a + b], default=0) + 1
        a = a + [(top, draw(label_distance))]
        b = b + [(top, draw(label_distance))]
    else:
        b = [(draw(st.integers(0, 31)), draw(label_distance))]
    return (b, a) if draw(st.booleans()) else (a, b)


class TestHubLabelProbe:
    @settings(max_examples=300, deadline=None)
    @given(label_pairs())
    def test_probe_equals_sorted_merge(self, pair):
        a, b = pair
        assert hub_label_distance(a, b, dict(a)) == merge_reference(a, b)

    def test_disjoint_labels_are_inf(self):
        # The merge steps 1|2, 4|2, 4|5 and stops when the first runs out.
        a = [(1, 2.0), (4, 1.0)]
        b = [(2, 1.0), (5, 0.5)]
        assert hub_label_distance(a, b, dict(a)) == (INF, 3)
        assert hub_label_distance(b, a, dict(b)) == (INF, 3)

    def test_oracle_lookups_charge_the_merge_count(self):
        net = integer_network(3, node_count=30, extra_edges=20)
        index = build_oracle_index(net, kind="hublabel")
        oracle = DistanceOracle(index, net)
        nodes = sorted(net.node_ids())
        with tracing.span("query.hub-probe") as root:
            for u in nodes:
                for w in nodes:
                    want, _ = merge_reference(index.labels[u], index.labels[w])
                    assert oracle.node_distance(u, w) == want
        expected_entries = sum(
            merge_reference(index.labels[u], index.labels[w])[1]
            for u in nodes
            for w in nodes
        )
        assert root.total("oracle_label_entries") == expected_entries


# ----------------------------------------------------------------------
# Persistence: index file round-trip, page accounting on load
# ----------------------------------------------------------------------
class TestPersistence:
    def test_round_trip_is_lossless(self, tmp_path):
        net = integer_network(7)
        index = build_oracle_index(net, kind="hublabel")
        path = str(tmp_path / "au.oracle")
        save_oracle_index(index, path)
        loaded = load_oracle_index(path)
        assert loaded.kind == index.kind
        assert loaded.signature == index.signature
        assert loaded.order == index.order
        assert loaded.upward == index.upward
        assert loaded.labels == index.labels
        assert loaded.shortcut_count == index.shortcut_count
        assert loaded.witness_settle_limit == index.witness_settle_limit

    def test_loaded_index_answers_through_page_store(self, tmp_path):
        net = integer_network(11)
        path = str(tmp_path / "net.oracle")
        save_oracle_index(build_oracle_index(net, kind="hublabel"), path)

        engine = DistanceEngine(net, store=NetworkStore(net), backend="dijkstra")
        engine.attach_oracle(load_oracle_index(path))
        reference = DistanceEngine(net, backend="dijkstra")
        pairs = list(node_pairs(net, 13, 40))
        expected = [reference.distance(a, b) for a, b in pairs]
        with tracing.span("query.oracle-roundtrip") as root:
            for (a, b), want in zip(pairs, expected):
                assert engine.distance(a, b) == want
        totals = root.totals()
        # Oracle reads paid page accounting; online search never ran.
        assert totals.get("oracle_pages", 0) > 0
        assert totals.get("oracle_label_entries", 0) > 0
        assert totals.get("nodes_settled", 0) == 0

    def test_load_rejects_foreign_documents(self, tmp_path):
        bad = tmp_path / "bad.oracle"
        bad.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(OracleIndexError, match="format"):
            load_oracle_index(str(bad))
        bad.write_text("not json at all")
        with pytest.raises(OracleIndexError, match="JSON"):
            load_oracle_index(str(bad))

    def test_attach_rejects_mismatched_signature(self):
        net_a = integer_network(1)
        net_b = integer_network(2)
        index = build_oracle_index(net_a, kind="ch")
        engine = DistanceEngine(net_b, backend="dijkstra")
        with pytest.raises(OracleIndexError, match="signature"):
            engine.attach_oracle(index)
        assert network_signature(net_a) != network_signature(net_b)

    def test_store_covers_every_node(self):
        net = integer_network(5)
        index = build_oracle_index(net, kind="hublabel")
        store = OracleStore(index, net)
        for node_id in net.node_ids():
            store.touch(node_id)
        assert store.page_count >= 1
        assert store.stats.logical_reads == net.node_count


# ----------------------------------------------------------------------
# Backend selection, staleness, fallback
# ----------------------------------------------------------------------
class TestSelectionAndFallback:
    def test_non_oracle_backend_has_no_oracle(self):
        net = integer_network(3)
        engine = DistanceEngine(net, backend="dijkstra")
        a, b = next(node_pairs(net, 8, 1))
        assert engine.oracle_distance(a, b) is None
        assert engine.cache_info()["oracle"] == "none"
        assert engine.distance(a, b) < INF  # online path still answers

    def test_oracle_backend_builds_lazily(self):
        net = integer_network(3)
        engine = DistanceEngine(net, backend="hublabel")
        assert engine.cache_info()["oracle"] == "none"  # nothing built yet
        a, b = next(node_pairs(net, 8, 1))
        engine.distance(a, b)
        assert engine.cache_info()["oracle"] == "hublabel"

    def test_stale_attached_index_falls_back_online(self):
        net = integer_network(6)
        engine = DistanceEngine(net, backend="dijkstra")
        engine.attach_oracle(build_oracle_index(net, kind="hublabel"))
        a, b = next(node_pairs(net, 21, 1))
        engine.distance(a, b)

        edge_id = sorted(net.edge_ids())[0]
        net.update_edge_length(edge_id, net.edge(edge_id).length + 5.0)
        engine.invalidate_network()
        assert engine.cache_info()["oracle"] == "hublabel (stale)"

        reference = DistanceEngine(net, backend="dijkstra")
        with tracing.span("query.oracle-stale") as root:
            for a, b in node_pairs(net, 31, 20):
                # Falls back to online search against the mutated graph.
                assert engine.distance(a, b) == reference.distance(a, b)
        assert root.totals().get("oracle_fallbacks", 0) > 0

    def test_backend_owned_index_rebuilds_after_mutation(self):
        net = integer_network(6)
        engine = DistanceEngine(net, backend="ch")
        a, b = next(node_pairs(net, 21, 1))
        engine.distance(a, b)  # triggers the first build

        edge_id = sorted(net.edge_ids())[0]
        net.update_edge_length(edge_id, net.edge(edge_id).length + 7.0)
        engine.invalidate_network()
        assert engine.cache_info()["oracle"] == "none"  # old index dropped

        reference = DistanceEngine(net, backend="dijkstra")
        for a, b in node_pairs(net, 33, 20):
            assert engine.distance(a, b) == reference.distance(a, b)
        assert engine.cache_info()["oracle"] == "ch"  # rebuilt lazily

    def test_workspace_mutation_marks_attached_oracle_stale(self):
        from conftest import place_random_objects
        from repro.core import Workspace

        net = integer_network(12)
        objects = place_random_objects(net, 20, seed=2, attribute_count=1)
        workspace = Workspace.build(net, objects, paged=True)
        workspace.engine.attach_oracle(build_oracle_index(net, kind="hublabel"))
        assert workspace.engine.cache_info()["oracle"] == "hublabel"

        edge_id = sorted(net.edge_ids())[0]
        workspace.update_edge_length(edge_id, net.edge(edge_id).length + 3.0)
        assert workspace.engine.cache_info()["oracle"] == "hublabel (stale)"

    def test_object_churn_leaves_oracle_alone(self):
        from conftest import place_random_objects
        from repro.core import Workspace

        net = integer_network(12)
        objects = place_random_objects(net, 20, seed=2, attribute_count=1)
        workspace = Workspace.build(net, objects, paged=True)
        workspace.engine.attach_oracle(build_oracle_index(net, kind="hublabel"))
        workspace.remove_object(objects.objects[0].object_id)
        # Object distances never depend on the index; it stays usable.
        assert workspace.engine.cache_info()["oracle"] == "hublabel"

    def test_stale_handle_refuses_directly(self):
        net = integer_network(14)
        oracle = DistanceOracle(build_oracle_index(net, kind="ch"), net)
        a, b = next(node_pairs(net, 5, 1))
        finite = oracle.distance(a, b)
        assert finite < INF
        oracle.mark_stale()
        assert oracle.stale
