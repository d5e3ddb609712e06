"""The distance engine: memo, pool, backends, accounting, discipline.

Covers the service layer itself (``repro.engine``) plus the two
contracts the refactor established repo-wide:

* every expander the engine hands out charges page reads to the
  workspace's buffer pool by default, and
* no module outside ``repro.engine``/``repro.network`` constructs a
  raw expander (grep-enforced below).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.core import CE, EDC, LBC, NaiveSkyline, Workspace
from repro.core.explain import object_vector
from repro.datasets.objects import extract_objects
from repro.engine import (
    BACKEND_NAMES,
    DistanceEngine,
    DistanceMemo,
    make_backend,
)
from repro.network.astar import AStarExpander
from repro.network.dijkstra import DijkstraExpander
from repro.obs import tracing

from conftest import (
    build_random_network,
    cold_run,
    grid_network,
    place_random_objects,
    random_locations,
)


def ine_emissions(stream, limit=None):
    """``(object_id, distance)`` pairs a stream emits, up to ``limit``."""
    emitted = []
    while limit is None or len(emitted) < limit:
        item = stream.next_nearest_object()
        if item is None:
            break
        emitted.append((item[0].object_id, item[1]))
    return emitted


def small_workspace(seed=42, paged=False, backend="dijkstra"):
    network = build_random_network(40, 25, seed=seed, detour_max=0.6)
    objects = place_random_objects(network, 20, seed=seed + 1)
    workspace = Workspace.build(
        network, objects, paged=paged, distance_backend=backend
    )
    return network, workspace


# ----------------------------------------------------------------------
# DistanceMemo
# ----------------------------------------------------------------------
class TestDistanceMemo:
    def test_hit_miss_counting(self):
        memo = DistanceMemo(8)
        assert memo.get(("a", "b")) is None
        memo.put(("a", "b"), 1.5)
        assert memo.get(("a", "b")) == 1.5
        assert memo.counters.misses == 1
        assert memo.counters.hits == 1

    def test_lru_eviction(self):
        memo = DistanceMemo(2)
        memo.put("a", 1.0)
        memo.put("b", 2.0)
        assert memo.get("a") == 1.0  # refresh "a": "b" is now LRU
        memo.put("c", 3.0)
        assert "b" not in memo
        assert "a" in memo and "c" in memo
        assert memo.counters.evictions == 1

    def test_uncounted_read_refreshes_recency(self):
        memo = DistanceMemo(2)
        memo.put("a", 1.0)
        memo.put("b", 2.0)
        assert memo.get("a", count=False) == 1.0  # "b" is now LRU
        assert memo.get("c", count=False) is None
        memo.put("c", 3.0)
        assert "b" not in memo
        assert "a" in memo and "c" in memo
        assert memo.counters.hits == memo.counters.misses == 0

    def test_clear_counts_invalidation(self):
        memo = DistanceMemo(8)
        memo.put("a", 1.0)
        memo.clear()
        assert len(memo) == 0
        assert memo.counters.invalidations == 1
        memo.clear(count_invalidation=False)
        assert memo.counters.invalidations == 1


# ----------------------------------------------------------------------
# Engine memo semantics
# ----------------------------------------------------------------------
class TestEngineMemo:
    def test_repeated_distance_hits_cache(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        a, b = random_locations(network, 2, seed=7)
        first = engine.distance(a, b)
        before = engine.counters
        second = engine.distance(a, b)
        after = engine.counters
        assert second == first
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_memo_key_is_symmetric(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        a, b = random_locations(network, 2, seed=11)
        forward = engine.distance(a, b)
        before = engine.counters
        backward = engine.distance(b, a)
        assert backward == pytest.approx(forward)
        assert engine.counters.hits == before.hits + 1

    def test_record_feeds_later_queries(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        a, b = random_locations(network, 2, seed=13)
        truth = DijkstraExpander(network, a).distance_to(b)
        engine.record(a, b, truth)
        before = engine.counters
        assert engine.distance(a, b) == truth
        assert engine.counters.hits == before.hits + 1

    def test_known_distance_reads_the_memo_uncounted(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        a, b = random_locations(network, 2, seed=19)
        value = engine.distance(a, b)
        before = engine.counters
        assert engine.known_distance(a, b) == value
        assert engine.known_distance(b, a) == value
        after = engine.counters
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_known_distance_without_oracle_never_searches(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        a, b = random_locations(network, 2, seed=23)
        before = engine.counters
        settled = engine.nodes_settled()
        assert engine.known_distance(a, b) is None
        assert engine.counters.misses == before.misses
        assert engine.nodes_settled() == settled

    def test_known_distance_memoises_ch_answers_not_hub_label_answers(self):
        # A CH lookup costs an upward search, so the memo fronts it: the
        # repeat is a hit and settles no oracle node.  A hub-label
        # answer comes from the point's label column, past the memo.
        for backend, memoised in (("ch", 1), ("hublabel", 0)):
            network, workspace = small_workspace(backend=backend)
            engine = workspace.engine
            a, b = random_locations(network, 2, seed=29)
            value = engine.known_distance(a, b)
            assert value == pytest.approx(
                DijkstraExpander(network, a).distance_to(b)
            )
            assert engine.cache_info()["memo_entries"] == memoised
            before = engine.counters
            with tracing.span("query.repeat") as root:
                assert engine.distance(a, b) == value
            assert engine.counters.hits == before.hits + memoised
            assert engine.counters.misses == before.misses
            if memoised:
                assert root.total("oracle_nodes_settled") == 0
            else:
                assert root.total("oracle_label_entries") > 0

    def test_known_distance_forgets_after_network_invalidation(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        a, b = random_locations(network, 2, seed=31)
        engine.distance(a, b)
        assert engine.known_distance(a, b) is not None
        engine.invalidate_network()
        assert engine.known_distance(a, b) is None

    def test_matches_raw_dijkstra(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        locations = random_locations(network, 6, seed=17)
        for a in locations[:3]:
            for b in locations[3:]:
                expected = DijkstraExpander(network, a).distance_to(b)
                assert engine.distance(a, b) == pytest.approx(expected)


# ----------------------------------------------------------------------
# Expander pool
# ----------------------------------------------------------------------
class TestExpanderPool:
    def test_same_source_reuses_expander(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        source = network.location_at_node(sorted(network.node_ids())[0])
        first = engine.expander(source)
        second = engine.expander(source)
        assert first is second
        assert engine.counters.pool_reuses >= 1

    def test_eviction_retires_settled_nodes(self):
        network, _ = small_workspace()
        engine = DistanceEngine(network, pool_capacity=1)
        nodes = sorted(network.node_ids())
        first = engine.expander(network.location_at_node(nodes[0]))
        while first.expand_next() is not None:
            pass
        settled = first.nodes_settled
        assert settled > 0
        engine.expander(network.location_at_node(nodes[1]))  # evicts first
        assert engine.counters.pool_evictions == 1
        assert engine.nodes_settled() >= settled

    def test_astar_slots_do_not_collide(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        source = network.location_at_node(sorted(network.node_ids())[0])
        a = engine.astar_expander(source, slot=0)
        b = engine.astar_expander(source, slot=1)
        assert a is not b
        assert a is engine.astar_expander(source, slot=0)

    def test_ine_cursors_replay_one_pooled_wavefront(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        source = random_locations(network, 1, seed=5)[0]
        fresh = DijkstraExpander(network, source, placements=engine.placements)
        expected = ine_emissions(fresh)
        assert len(expected) == len(workspace.objects)
        before = engine.nodes_settled()
        first = engine.ine_expander(source)
        head = ine_emissions(first, limit=3)
        # The second cursor replays the first's three emissions, then
        # drives the shared wavefront; the first replays the rest.
        second = engine.ine_expander(source)
        assert second.wavefront is first.wavefront
        assert ine_emissions(second) == expected
        # Each cursor bounds its own unseen objects, not the wavefront's.
        assert first.last_emitted_distance == head[-1][1] < expected[-1][1]
        assert head + ine_emissions(first) == expected
        assert first.last_emitted_distance == expected[-1][1]
        assert engine.nodes_settled() - before == fresh.nodes_settled
        # A third cursor finds the whole sequence logged: no settles.
        settled = engine.nodes_settled()
        assert ine_emissions(engine.ine_expander(source)) == expected
        assert engine.nodes_settled() == settled

    @pytest.mark.parametrize("drop", ["invalidate", "invalidate_network", "clear"])
    def test_ine_wavefront_dropped_with_the_pool(self, drop):
        network, workspace = small_workspace()
        engine = workspace.engine
        source = random_locations(network, 1, seed=5)[0]
        old = engine.ine_expander(source)
        assert old.next_nearest_object() is not None
        getattr(engine, drop)()
        new = engine.ine_expander(source)
        assert new.wavefront is not old.wavefront
        assert new.wavefront.nodes_settled == 0
        assert new.wavefront.emissions == []

    def test_ine_cursor_survives_eviction_mid_stream(self):
        network, workspace = small_workspace()
        nodes = sorted(network.node_ids())
        a, b = (network.location_at_node(n) for n in nodes[:2])
        placements = workspace.engine.placements
        engine = DistanceEngine(network, placements=placements, pool_capacity=1)
        expected = ine_emissions(
            DijkstraExpander(network, a, placements=placements)
        )
        cursor = engine.ine_expander(a)
        head = ine_emissions(cursor, limit=3)
        engine.ine_expander(b)  # evicts a's wavefront
        assert engine.counters.pool_evictions == 1
        assert head + ine_emissions(cursor) == expected
        assert ine_emissions(engine.ine_expander(a)) == expected


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class TestBackends:
    def test_backend_names_stable(self):
        assert BACKEND_NAMES == (
            "astar",
            "astar+landmarks",
            "ch",
            "dijkstra",
            "hublabel",
        )

    def test_unknown_backend_rejected(self):
        network, _ = small_workspace()
        with pytest.raises(ValueError, match="unknown distance backend"):
            DistanceEngine(network, backend="bogus")
        with pytest.raises(ValueError, match="unknown distance backend"):
            make_backend("bogus", network)

    def test_per_call_backend_override(self):
        network, workspace = small_workspace()
        engine = workspace.engine
        source = network.location_at_node(sorted(network.node_ids())[0])
        assert isinstance(engine.expander(source), DijkstraExpander)
        assert isinstance(
            engine.expander(source, backend="astar"), AStarExpander
        )

    def test_workspace_backend_selection(self):
        _, workspace = small_workspace(backend="astar+landmarks")
        assert workspace.engine.backend_name == "astar+landmarks"
        stats = LBC().run(
            workspace, random_locations(workspace.network, 2, seed=3)
        ).stats
        assert stats.distance_backend == "astar+landmarks"


# ----------------------------------------------------------------------
# Accounting: the store-threading bugfixes
# ----------------------------------------------------------------------
class TestAccounting:
    def test_engine_distances_charge_page_reads(self):
        network, workspace = small_workspace(paged=True)
        workspace.reset_io(cold=True)
        a, b = random_locations(network, 2, seed=19)
        workspace.engine.distance(a, b)
        assert workspace.network_pages_read() > 0

    def test_object_vector_charges_page_reads(self):
        # Regression: explain.object_vector used to build expanders
        # without the store, so its page reads were invisible.
        network, workspace = small_workspace(paged=True)
        queries = random_locations(network, 2, seed=23)
        workspace.reset_io(cold=True)
        object_id = next(iter(workspace.objects)).object_id
        object_vector(workspace, queries, object_id)
        assert workspace.network_pages_read() > 0

    def test_network_distance_store_parameter(self):
        network, workspace = small_workspace(paged=True)
        a, b = random_locations(network, 2, seed=29)
        workspace.reset_io(cold=True)
        without = DijkstraExpander(network, a).distance_to(b)
        assert workspace.network_pages_read() == 0
        with_store = DijkstraExpander(network, a, store=workspace.store).distance_to(b)
        assert workspace.network_pages_read() > 0
        assert with_store == pytest.approx(without)

    def test_engine_counters_reach_query_stats(self):
        network, workspace = small_workspace()
        queries = random_locations(network, 2, seed=31)
        first = NaiveSkyline().run(workspace, queries).stats
        # Identical repeat: every distance now comes from the memo.
        second = NaiveSkyline().run(workspace, queries).stats
        assert first.distance_backend == "dijkstra"
        assert second.engine_hits > 0
        assert second.nodes_settled == 0
        row = second.as_row()
        assert row["eng_hits"] == second.engine_hits
        assert second.engine_hit_ratio == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Regression: explain reuses wavefronts instead of one Dijkstra per pair
# ----------------------------------------------------------------------
class TestExplainRegression:
    def test_object_vector_visits_fewer_nodes_than_per_pair_dijkstra(self):
        network, workspace = small_workspace()
        queries = random_locations(network, 3, seed=37)
        object_ids = sorted(o.object_id for o in workspace.objects)[:8]

        # Seed behaviour: a fresh full-strength Dijkstra per (q, obj).
        baseline = 0
        for object_id in object_ids:
            obj = workspace.objects.get(object_id)
            for q in queries:
                expander = DijkstraExpander(network, q)
                expander.distance_to(obj.location)
                baseline += expander.nodes_settled

        engine = workspace.engine
        before = engine.nodes_settled()
        for object_id in object_ids:
            object_vector(workspace, queries, object_id)
        engine_nodes = engine.nodes_settled() - before

        assert engine_nodes < 0.7 * baseline


# ----------------------------------------------------------------------
# Backend equivalence: distances and skylines agree across backends
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distances_identical_on_grids(self, seed):
        network = grid_network(5, 6, jitter=0.25, detour=1.3, seed=seed)
        plain = DistanceEngine(network, backend="dijkstra")
        guided = DistanceEngine(network, backend="astar+landmarks")
        locations = random_locations(network, 8, seed=seed + 50)
        for a in locations[:4]:
            for b in locations[4:]:
                assert guided.distance(a, b) == pytest.approx(
                    plain.distance(a, b)
                )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_skylines_identical_on_grids(self, seed):
        network = grid_network(5, 5, jitter=0.2, detour=1.4, seed=seed)
        objects = extract_objects(network, omega=0.6, seed=seed + 1)
        queries = random_locations(network, 3, seed=seed + 2)
        results = {}
        for backend in ("dijkstra", "astar+landmarks"):
            workspace = Workspace.build(
                network, objects, paged=False, distance_backend=backend
            )
            results[backend] = [
                cold_run(algorithm, workspace, queries)
                for algorithm in (CE(), EDC(), LBC())
            ]
        for plain, guided in zip(results["dijkstra"], results["astar+landmarks"]):
            assert plain.same_answer(guided)


# ----------------------------------------------------------------------
# Construction discipline (grep-enforced)
# ----------------------------------------------------------------------
class TestConstructionDiscipline:
    ALLOWED_TOP_LEVEL = {"engine", "network"}
    PATTERN = re.compile(r"\b(?:DijkstraExpander|AStarExpander)\s*\(")

    def test_no_direct_expander_construction_outside_engine_and_network(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src)
            if rel.parts[0] in self.ALLOWED_TOP_LEVEL:
                continue
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if self.PATTERN.search(line):
                    offenders.append(f"src/repro/{rel}:{lineno}: {line.strip()}")
        assert not offenders, (
            "raw expander construction outside repro.engine/repro.network "
            "(route through workspace.engine instead):\n" + "\n".join(offenders)
        )
