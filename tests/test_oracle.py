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
from repro.oracle.runtime import LabelColumn
from repro.oracle.store import OracleStore
from reference_oracle import PerPairOracle

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



# ----------------------------------------------------------------------
# Label columns: what a query point keeps, against the per-pair path
# ----------------------------------------------------------------------
def located_sweeps(net: RoadNetwork, seed: int, sources: int = 12, width: int = 6):
    """``(source, targets)`` sweeps over junctions and on-edge points.

    Targets come from four junctions and the edges around them, so
    junctions repeat within and across sweeps; an on-edge source also
    gets targets on its own edge (the direct walk).  Offsets are
    integers, which keeps every sum exact.
    """
    rng = random.Random(seed)
    nodes = sorted(net.node_ids())
    edges = sorted(net.edge_ids())
    pool = rng.sample(nodes, 4)

    def on_edge(edge_id: int):
        length = int(net.edge(edge_id).length)
        return net.location_on_edge(edge_id, float(rng.randrange(length + 1)))

    for _ in range(sources):
        if rng.random() < 0.5:
            source = net.location_at_node(rng.choice(nodes))
        else:
            source = on_edge(rng.choice(edges))
        targets = []
        for _ in range(width):
            draw = rng.random()
            if draw < 0.4:
                targets.append(net.location_at_node(rng.choice(pool)))
            elif draw < 0.8:
                _, edge_id = rng.choice(net.neighbors(rng.choice(pool)))
                targets.append(on_edge(edge_id))
            elif source.edge_id is not None:
                targets.append(on_edge(source.edge_id))
            else:
                targets.append(source)
        yield source, targets


def oracle_columns(engine: DistanceEngine) -> list[LabelColumn]:
    with engine._lock:
        return [c for key, c in engine._pool.items() if key[0] == "oracle"]


class TestLabelColumns:
    def test_column_charges_what_the_per_pair_path_charged(self):
        for seed in (3, 8, 13):
            net = integer_network(seed, node_count=30, extra_edges=20)
            index = build_oracle_index(net, kind="hublabel")
            # 256-byte pages hold a few labels each; three frames evict.
            stores = [
                OracleStore(index, net, page_size=256, buffer_bytes=3 * 256)
                for _ in range(2)
            ]
            oracle = DistanceOracle(index, net, store=stores[0])
            reference = PerPairOracle(DistanceOracle(index, net, store=stores[1]))
            sweeps = list(located_sweeps(net, seed))
            pairs = [(s, t) for s, targets in sweeps for t in targets]
            with tracing.span("query.columns") as columns_span:
                got = []
                for source, targets in sweeps:
                    column = LabelColumn(oracle, source)
                    got += [oracle.distance(source, t, column) for t in targets]
                # No column given: a transient one, charged the same.
                got += [oracle.distance(s, t) for s, t in pairs]
            with tracing.span("query.per-pair") as per_pair_span:
                want = [reference.distance(s, t) for s, t in pairs + pairs]
            assert got == want
            totals = columns_span.totals()
            assert totals == per_pair_span.totals()
            assert totals["oracle_label_entries"] > 0
            assert stores[0].stats == stores[1].stats
            assert stores[0].stats.physical_reads > stores[0].page_count
            assert list(stores[0].pool._resident) == list(stores[1].pool._resident)

            # Every junction pair: the sorted merge's distance, and its
            # step count charged as oracle_label_entries.
            unpaged = DistanceOracle(index, net)
            nodes = sorted(net.node_ids())
            with tracing.span("query.hub-probe") as root:
                for u in nodes:
                    source = net.location_at_node(u)
                    column = LabelColumn(unpaged, source)
                    for w in nodes:
                        want, _ = merge_reference(index.labels[u], index.labels[w])
                        target = net.location_at_node(w)
                        assert unpaged.distance(source, target, column) == want
            expected_entries = sum(
                merge_reference(index.labels[u], index.labels[w])[1]
                for u in nodes
                for w in nodes
            )
            assert root.total("oracle_label_entries") == expected_entries


class TestColumnLifetime:
    @pytest.mark.parametrize("drop", ["clear", "invalidate", "invalidate_network"])
    def test_every_pool_drop_drops_the_columns(self, drop):
        net = integer_network(6)
        engine = DistanceEngine(net, store=NetworkStore(net), backend="hublabel")
        for a, b in edge_pairs(net, 7, 10):
            engine.distance(a, b)
        assert oracle_columns(engine)
        # A column settles nothing.
        assert engine.nodes_settled() == 0
        getattr(engine, drop)()
        assert not oracle_columns(engine)
        assert engine.nodes_settled() == 0

    def test_attached_ch_index_answers_not_an_old_column(self):
        net = integer_network(8)
        engine = DistanceEngine(net, store=NetworkStore(net), backend="hublabel")
        reference = DistanceEngine(net, backend="dijkstra")
        nodes = sorted(net.node_ids())
        sources = [net.location_at_node(n) for n in nodes[:4]]
        for source in sources:
            for node in nodes[10:20]:
                engine.distance(source, net.location_at_node(node))
        assert len(oracle_columns(engine)) == len(sources)

        engine.attach_oracle(build_oracle_index(net, kind="ch"))
        with tracing.span("query.attached") as root:
            for source in sources:
                for node in nodes[20:30]:
                    target = net.location_at_node(node)
                    assert engine.distance(source, target) == reference.distance(
                        source, target
                    )
        totals = root.totals()
        assert totals["oracle_nodes_settled"] > 0
        assert totals.get("oracle_label_entries", 0) == 0

    def test_a_new_handle_replaces_the_columns_it_did_not_build(self):
        net = integer_network(8)
        engine = DistanceEngine(net, store=NetworkStore(net), backend="hublabel")
        reference = DistanceEngine(net, backend="dijkstra")
        sweeps = list(located_sweeps(net, 21, sources=4))
        for source, targets in sweeps[:2]:
            for target in targets:
                engine.distance(source, target)
        built = engine.ensure_oracle()
        assert {id(c.oracle) for c in oracle_columns(engine)} == {id(built)}

        handle = engine.attach_oracle(build_oracle_index(net, kind="hublabel"))
        for source, targets in sweeps:
            for target in targets:
                # Past the memo, which still holds the old answers.
                assert engine.oracle_distance(
                    source, target
                ) == reference.distance(source, target)
        kept = oracle_columns(engine)
        assert len(kept) == 4
        assert all(c.oracle is handle for c in kept)

    def test_an_evicted_column_is_rebuilt_and_answers_the_same_bits(self):
        net = integer_network(10)
        tight = DistanceEngine(
            net, store=NetworkStore(net), backend="hublabel", pool_capacity=1
        )
        roomy = DistanceEngine(net, store=NetworkStore(net), backend="hublabel")
        sweeps = list(located_sweeps(net, 33, sources=3))
        spans = []
        for engine in (tight, roomy):
            with tracing.span("query.sweeps") as root:
                # Round-robin over the sources: each lookup evicts the
                # previous source's column from the one slot.
                answers = [
                    engine.distance(source, targets[i])
                    for i in range(len(sweeps[0][1]))
                    for source, targets in sweeps
                ]
            spans.append((answers, root.totals()))
        assert spans[0] == spans[1]
        assert tight.counters.pool_evictions > 0
        assert roomy.counters.pool_evictions == 0


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


# ----------------------------------------------------------------------
# LBC over an oracle
# ----------------------------------------------------------------------
class TestLBCOverOracle:
    def test_warm_rerun_answers_from_the_pooled_columns(self):
        from conftest import place_random_objects
        from repro.core import LBC, NaiveSkyline, Workspace

        net = integer_network(12)
        objects = place_random_objects(net, 20, seed=2, attribute_count=1)
        workspace = Workspace.build(
            net, objects, paged=True, distance_backend="hublabel"
        )
        queries = [a for a, _ in node_pairs(net, 41, 3)]
        first = LBC().run(workspace, queries)
        second = LBC().run(workspace, queries)
        fresh = Workspace.build(net, objects, paged=False)
        assert first.same_answer(NaiveSkyline().run(fresh, queries))
        # A column hit is charged what a scan would be, and no run reads
        # the memo, so the re-run is billed like the first.
        assert first.stats.oracle_label_entries > 0
        assert second.stats.oracle_label_entries == first.stats.oracle_label_entries
        assert second.vectors_by_id() == first.vectors_by_id()
        for run in (first, second):
            assert (run.stats.engine_hits, run.stats.engine_misses) == (0, 0)
            assert run.stats.nodes_settled == 0

    def test_stale_oracle_resolves_online_after_mutation(self):
        from conftest import place_random_objects
        from repro.core import LBC, NaiveSkyline, Workspace

        net = integer_network(12)
        objects = place_random_objects(net, 20, seed=2, attribute_count=1)
        workspace = Workspace.build(net, objects, paged=True)
        workspace.engine.attach_oracle(build_oracle_index(net, kind="hublabel"))
        queries = [a for a, _ in node_pairs(net, 43, 3)]
        LBC().run(workspace, queries)  # answered from label columns

        for _, edge_id in net.neighbors(queries[0].node_id):
            workspace.update_edge_length(edge_id, net.edge(edge_id).length + 500.0)
        result = LBC().run(workspace, queries)
        assert result.stats.oracle_fallbacks > 0
        assert result.stats.oracle_label_entries == 0
        fresh = Workspace.build(net, objects, paged=False)
        assert result.same_answer(NaiveSkyline().run(fresh, queries))


# ----------------------------------------------------------------------
# Hub-label answers come from the query point's column, past the memo
# ----------------------------------------------------------------------
def hub_workspace(attached: bool = False):
    from conftest import place_random_objects
    from repro.core import Workspace

    net = integer_network(12)
    objects = place_random_objects(net, 20, seed=2, attribute_count=1)
    workspace = Workspace.build(
        net,
        objects,
        paged=True,
        distance_backend="dijkstra" if attached else "hublabel",
    )
    if attached:
        workspace.engine.attach_oracle(build_oracle_index(net, kind="hublabel"))
    queries = [a for a, _ in node_pairs(net, 47, 3)]
    return net, objects, workspace, queries


def count_memo_calls(engine: DistanceEngine, monkeypatch) -> list[str]:
    """Every memo read and write the engine makes from now on."""
    calls: list[str] = []
    memo = engine._memo
    for name in ("get", "put"):
        original = getattr(memo, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(memo, name, spy)
    return calls


class TestMemoBypass:
    @pytest.mark.parametrize("attached", [False, True], ids=["backend", "attached"])
    @pytest.mark.parametrize("name", ["LBC", "LBC-lazy", "EDC", "naive", "CE"])
    def test_hub_label_runs_make_no_memo_call(self, name, attached, monkeypatch):
        from repro.core import ALGORITHMS, NaiveSkyline, Workspace

        net, objects, workspace, queries = hub_workspace(attached)
        calls = count_memo_calls(workspace.engine, monkeypatch)
        result = ALGORITHMS[name]().run(workspace, queries)
        assert calls == []
        assert workspace.engine.cache_info()["memo_entries"] == 0
        assert (result.stats.engine_hits, result.stats.engine_misses) == (0, 0)
        fresh = Workspace.build(net, objects, paged=False)
        assert result.same_answer(NaiveSkyline().run(fresh, queries))

    @pytest.mark.parametrize("name", ["LBC", "LBC-lazy", "EDC", "naive"])
    def test_a_query_checks_each_column_out_once(self, name, monkeypatch):
        from repro.core import ALGORITHMS
        from repro.engine import location_key

        _, _, workspace, queries = hub_workspace()
        engine = workspace.engine
        checked_out: list[tuple] = []
        original = engine._label_column

        def spy(oracle, source):
            checked_out.append(location_key(source))
            return original(oracle, source)

        monkeypatch.setattr(engine, "_label_column", spy)
        for _ in range(2):  # cold, then over the pooled columns
            checked_out.clear()
            result = ALGORITHMS[name]().run(workspace, queries)
            assert result.stats.oracle_label_entries > 0
            assert sorted(checked_out) == sorted(location_key(q) for q in queries)

    def test_a_stale_index_falls_back_once_per_memo_miss(self):
        net = integer_network(6)
        engine = DistanceEngine(net, backend="dijkstra")
        engine.attach_oracle(build_oracle_index(net, kind="hublabel"))
        (a, b), (c, d) = node_pairs(net, 21, 2)
        edge_id = sorted(net.edge_ids())[0]
        net.update_edge_length(edge_id, net.edge(edge_id).length + 5.0)
        engine.invalidate_network()

        reference = DistanceEngine(net, backend="dijkstra")
        expander = engine.astar_expander(c)
        with tracing.span("query.stale") as root:
            assert engine.distance(a, b) == reference.distance(a, b)  # miss
            assert engine.distance(b, a) == reference.distance(a, b)  # hit
            assert engine.known_distance(a, b) == reference.distance(a, b)
            assert engine.known_distance(c, d) is None  # miss
            want = reference.distance(c, d)
            assert engine.distance_via(c, d, expander) == want  # miss
            assert engine.known_distance(c, d) == want
        assert root.total("oracle_fallbacks") == 3
        assert (engine.counters.hits, engine.counters.misses) == (1, 2)

        # A matching index answers from columns again, past the memo.
        engine.attach_oracle(build_oracle_index(net, kind="hublabel"))
        with tracing.span("query.reattached") as root:
            assert engine.distance(c, d) == want
        assert root.total("oracle_fallbacks") == 0
        assert root.total("oracle_label_entries") > 0
        assert engine.counters.hits == 1
