"""Dynamic object updates: the workspace stays consistent under churn."""

import math
import random

import pytest

from repro.core import CE, EDC, LBC, LBCLazy, NaiveSkyline, Workspace
from repro.network import SpatialObject

from conftest import (
    build_random_network,
    cold_run,
    place_random_objects,
    random_locations,
)
from invariants import check_rtree, rtree_entries


def fresh_workspace(seed, paged, attribute_count=0):
    network = build_random_network(60, 40, seed=seed, detour_max=0.7)
    objects = place_random_objects(
        network, 30, seed=seed + 1, attribute_count=attribute_count
    )
    return network, Workspace.build(network, objects, paged=paged)


def object_on_edge(network, object_id, edge_index=0, fraction=0.5, attrs=()):
    edge = sorted(network.edges(), key=lambda e: e.edge_id)[edge_index]
    loc = network.location_on_edge(edge.edge_id, edge.length * fraction)
    return SpatialObject(object_id, loc, attrs)


class TestAddObject:
    @pytest.mark.parametrize("paged", [False, True])
    def test_added_object_visible_to_queries(self, paged):
        network, workspace = fresh_workspace(1001, paged)
        queries = random_locations(network, 2, seed=1002)
        # Place the new object exactly on the first query point's
        # location (if on an edge) or adjacent — it must dominate
        # everything in that dimension and join the skyline.
        new = SpatialObject(9000, queries[0])
        workspace.add_object(new)
        result = LBC().run(workspace, queries)
        assert 9000 in result.object_ids()
        assert result.same_answer(NaiveSkyline().run(workspace, queries))

    def test_duplicate_id_rejected(self):
        network, workspace = fresh_workspace(1011, paged=False)
        with pytest.raises(ValueError):
            workspace.add_object(object_on_edge(network, 0))

    def test_attribute_mismatch_rejected(self):
        network, workspace = fresh_workspace(1021, paged=False, attribute_count=1)
        with pytest.raises(ValueError):
            workspace.add_object(object_on_edge(network, 9000, attrs=()))

    def test_nan_attribute_rejected(self):
        network, workspace = fresh_workspace(1023, paged=False, attribute_count=1)
        before = len(workspace.objects)
        with pytest.raises(ValueError, match="object 9000 has attributes"):
            workspace.add_object(object_on_edge(network, 9000, attrs=(float("nan"),)))
        assert len(workspace.objects) == before
        assert 9000 not in workspace.objects

    def test_counts_update(self):
        network, workspace = fresh_workspace(1031, paged=False)
        before = len(workspace.objects)
        workspace.add_object(object_on_edge(network, 9000))
        assert len(workspace.objects) == before + 1
        assert len(rtree_entries(workspace.object_rtree)) == before + 1


class TestRemoveObject:
    @pytest.mark.parametrize("paged", [False, True])
    def test_removed_object_gone_from_answers(self, paged):
        network, workspace = fresh_workspace(1041, paged)
        queries = random_locations(network, 2, seed=1042)
        result = LBC().run(workspace, queries)
        victim = result.points[0].object_id
        workspace.remove_object(victim)
        after = LBC().run(workspace, queries)
        assert victim not in after.object_ids()
        assert after.same_answer(NaiveSkyline().run(workspace, queries))

    def test_remove_unknown_raises(self):
        _, workspace = fresh_workspace(1051, paged=False)
        with pytest.raises(KeyError):
            workspace.remove_object(424242)

    def test_remove_then_readd(self):
        network, workspace = fresh_workspace(1061, paged=False)
        obj = workspace.objects.get(5)
        workspace.remove_object(5)
        workspace.add_object(obj)
        queries = random_locations(network, 2, seed=1062)
        assert LBC().run(workspace, queries).same_answer(
            NaiveSkyline().run(workspace, queries)
        )

    def test_middle_layer_consistent_after_removal(self):
        network, workspace = fresh_workspace(1071, paged=True)
        obj = workspace.objects.get(3)
        edge_id = obj.location.edge_id
        workspace.remove_object(3)
        remaining = workspace.middle.objects_on(edge_id)
        assert all(p.obj.object_id != 3 for p in remaining)


class TestEngineInvalidation:
    """Mutations drop cached distances; re-queries answer correctly."""

    def primed_workspace(self, seed=2001, paged=False):
        network, workspace = fresh_workspace(seed, paged)
        queries = random_locations(network, 2, seed=seed + 1)
        NaiveSkyline().run(workspace, queries)  # fill memo and pool
        assert workspace.engine.cache_info()["memo_entries"] > 0
        return network, workspace, queries

    def test_add_object_drops_cached_distances(self):
        network, workspace, queries = self.primed_workspace(2001)
        workspace.add_object(object_on_edge(network, 9000))
        info = workspace.engine.cache_info()
        assert info["memo_entries"] == 0
        assert info["pool_entries"] == 0
        assert info["invalidations"] >= 1

    def test_remove_object_drops_cached_distances(self):
        network, workspace, queries = self.primed_workspace(2011)
        victim = sorted(o.object_id for o in workspace.objects)[0]
        workspace.remove_object(victim)
        assert workspace.engine.cache_info()["memo_entries"] == 0

    def test_move_object_drops_cache_and_requery_is_correct(self):
        network, workspace, queries = self.primed_workspace(2021)
        # Move an object onto the first query point: it must now win
        # that dimension, which only happens if stale distances are gone.
        moved_id = sorted(o.object_id for o in workspace.objects)[0]
        workspace.move_object(moved_id, queries[0])
        assert workspace.engine.cache_info()["memo_entries"] == 0
        result = LBC().run(workspace, queries)
        assert moved_id in result.object_ids()
        assert result.same_answer(NaiveSkyline().run(workspace, queries))

    @pytest.mark.parametrize("paged", [False, True])
    def test_edge_reweight_invalidates_and_requery_is_correct(self, paged):
        from repro.network import DijkstraExpander

        network, workspace, queries = self.primed_workspace(2031, paged)
        edge = max(network.edges(), key=lambda e: e.length)
        workspace.update_edge_length(edge.edge_id, edge.length * 3.0)
        info = workspace.engine.cache_info()
        assert info["memo_entries"] == 0
        assert info["pool_entries"] == 0
        # Cached distances must match a fresh ground-truth expansion on
        # the mutated graph, not the old one.
        targets = [o.location for o in workspace.objects]
        for q in queries:
            fresh = DijkstraExpander(network, q)
            for target in targets:
                assert workspace.engine.distance(q, target) == pytest.approx(
                    fresh.distance_to(target)
                )

    def test_algorithms_agree_after_mixed_mutations(self):
        network, workspace, queries = self.primed_workspace(2041)
        edge = max(network.edges(), key=lambda e: e.length)
        workspace.update_edge_length(edge.edge_id, edge.length * 2.0)
        workspace.add_object(object_on_edge(network, 9100, edge_index=3))
        reference = NaiveSkyline().run(workspace, queries)
        for algorithm in (CE(), EDC(), LBC()):
            assert cold_run(algorithm, workspace, queries).same_answer(reference)

    def test_landmark_backend_survives_network_mutation(self):
        # Tables built while ten edges are 6x longer overestimate
        # distances once the edges are restored; unless
        # invalidate_network drops them, A* settles wrong distances.
        # Seeds 2053 and 2063 return a wrong skyline if it does not.
        for seed in (2051, 2053, 2063):
            network = build_random_network(50, 30, seed=seed, detour_max=0.7)
            objects = place_random_objects(network, 25, seed=seed + 1)
            workspace = Workspace.build(
                network, objects, paged=False, distance_backend="astar+landmarks"
            )
            queries = random_locations(network, 2, seed=seed + 2)
            edge_ids = random.Random(seed).sample(
                sorted(e.edge_id for e in network.edges()), 10
            )
            lengths = {e: network.edge(e).length for e in edge_ids}
            for edge_id, length in lengths.items():
                workspace.update_edge_length(edge_id, length * 6.0)
            LBC().run(workspace, queries)  # builds the tables on the long graph
            for edge_id, length in lengths.items():
                workspace.update_edge_length(edge_id, length)
            # Naive on a workspace of its own: on this one it would
            # memoise every distance, and LBC would read them back
            # instead of searching with the tables under test.
            fresh = Workspace.build(network, workspace.objects, paged=False)
            reference = NaiveSkyline().run(fresh, queries)
            for algorithm in (LBC(), LBCLazy()):
                result = cold_run(algorithm, workspace, queries)
                assert result.same_answer(reference), (seed, algorithm.name)

    def test_update_edge_length_rejects_misfit_objects(self):
        network, workspace = fresh_workspace(2061, paged=False)
        placed = [o for o in workspace.objects if o.location.edge_id is not None]
        obj = max(placed, key=lambda o: o.location.offset)
        with pytest.raises(ValueError, match="does not fit"):
            workspace.update_edge_length(
                obj.location.edge_id, obj.location.offset * 0.5
            )

    def test_rejected_reweight_leaves_workspace_untouched(self):
        """A length the *network* rejects (below the chord) must not
        strand objects half-deregistered: validation precedes mutation."""
        network, workspace = fresh_workspace(2071, paged=False)
        queries = random_locations(network, 2, seed=2072)
        before = NaiveSkyline().run(workspace, queries)
        count = len(workspace.objects)
        # An edge whose on-edge objects all fit a sub-chord length, so
        # only the network's chord rule can reject it.
        for edge in network.edges():
            on_edge = [
                p.obj
                for p in workspace.middle.objects_on(edge.edge_id)
                if p.obj.location.edge_id == edge.edge_id
            ]
            chord = network.node_point(edge.u).distance_to(
                network.node_point(edge.v)
            )
            if on_edge and all(o.location.offset < chord * 0.5 for o in on_edge):
                break
        else:
            pytest.skip("no edge with early-offset objects in this workload")
        with pytest.raises(ValueError, match="shorter than the Euclidean"):
            workspace.update_edge_length(edge.edge_id, chord * 0.6)
        assert len(workspace.objects) == count
        assert NaiveSkyline().run(workspace, queries).same_answer(before)


    @pytest.mark.parametrize("length", [math.nan, math.inf])
    @pytest.mark.parametrize("occupied", [True, False])
    def test_non_finite_reweight_leaves_workspace_untouched(self, occupied, length):
        """NaN slipped past every ``<=``/``<`` check: on an occupied edge
        the objects were deregistered before re-placing them failed, and
        an object-free edge kept the NaN and skewed later answers."""
        network, workspace = fresh_workspace(2091, paged=False)
        queries = random_locations(network, 3, seed=2092)
        before = NaiveSkyline().run(workspace, queries)
        edge_id = next(
            e.edge_id
            for e in network.edges()
            if bool(workspace.middle.objects_on(e.edge_id)) == occupied
        )
        old_length = network.edge(edge_id).length
        placements = [
            (p.obj.object_id, p.dist_from_u)
            for p in workspace.middle.objects_on(edge_id)
        ]
        count = len(workspace.objects)
        version = workspace.version
        with pytest.raises(ValueError, match="finite"):
            workspace.update_edge_length(edge_id, length)
        assert network.edge(edge_id).length == old_length
        assert [
            (p.obj.object_id, p.dist_from_u)
            for p in workspace.middle.objects_on(edge_id)
        ] == placements
        assert len(workspace.objects) == count
        assert workspace.version == version
        assert cold_run(NaiveSkyline(), workspace, queries).same_answer(before)


class TestChurn:
    @pytest.mark.parametrize("paged", [False, True])
    def test_random_churn_keeps_algorithms_agreeing(self, paged):
        rng = random.Random(77)
        network, workspace = fresh_workspace(1081, paged)
        queries = random_locations(network, 3, seed=1082)
        next_id = 10_000
        edge_ids = sorted(network.edge_ids())
        for step in range(25):
            if len(workspace.objects) > 5 and rng.random() < 0.5:
                victim = rng.choice(sorted(o.object_id for o in workspace.objects))
                workspace.remove_object(victim)
            else:
                edge = network.edge(rng.choice(edge_ids))
                loc = network.location_on_edge(
                    edge.edge_id, edge.length * rng.uniform(0.05, 0.95)
                )
                workspace.add_object(SpatialObject(next_id, loc))
                next_id += 1
            if step % 5 == 4:
                reference = NaiveSkyline().run(workspace, queries)
                for algorithm in (CE(), EDC(), LBC()):
                    assert cold_run(algorithm, workspace, queries).same_answer(
                        reference
                    ), f"step {step}: {algorithm.name}"
        check_rtree(workspace.object_rtree)
