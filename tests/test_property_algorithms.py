"""Hypothesis-driven equivalence of all algorithms against the oracle.

Random networks (including disconnected ones), random on-edge objects
with optional static attributes, random node/edge query points — every
algorithm must return exactly the naive baseline's skyline, points and
vectors alike.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CE, EDC, LBC, LBCLazy, NaiveSkyline, Workspace
from repro.geometry import Point
from repro.network import ObjectSet, RoadNetwork, SpatialObject

from conftest import cold_run


@st.composite
def workloads(draw):
    return build_workload(
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        disconnected=draw(st.booleans()),
        attribute_count=draw(st.integers(min_value=0, max_value=2)),
        query_count=draw(st.integers(min_value=1, max_value=4)),
        object_count=draw(st.integers(min_value=1, max_value=25)),
    )


def build_workload(seed, disconnected, attribute_count, query_count, object_count):
    rng = random.Random(seed)
    network = RoadNetwork()

    def add_component(base, count, ox, oy):
        pts = [
            Point(ox + rng.random() * 0.4, oy + rng.random() * 0.4)
            for _ in range(count)
        ]
        for i, p in enumerate(pts):
            network.add_node(base + i, p)
        order = list(range(count))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            chord = pts[a].distance_to(pts[b])
            network.add_edge(
                base + a, base + b, length=max(chord, 1e-9) * (1 + rng.random())
            )
        for _ in range(count // 2):
            a, b = rng.sample(range(count), 2)
            chord = pts[a].distance_to(pts[b])
            network.add_edge(
                base + a, base + b, length=max(chord, 1e-9) * (1 + rng.random())
            )

    n1 = rng.randrange(8, 20)
    add_component(0, n1, 0.0, 0.0)
    total_nodes = n1
    if disconnected:
        n2 = rng.randrange(5, 15)
        add_component(n1, n2, 0.55, 0.55)
        total_nodes += n2

    edge_ids = sorted(network.edge_ids())
    objects = []
    for i in range(object_count):
        edge = network.edge(rng.choice(edge_ids))
        offset = edge.length * rng.uniform(0.05, 0.95)
        attributes = tuple(rng.random() for _ in range(attribute_count))
        objects.append(
            SpatialObject(i, network.location_on_edge(edge.edge_id, offset), attributes)
        )
    object_set = ObjectSet.build(network, objects)

    queries = []
    for _ in range(query_count):
        if rng.random() < 0.5:
            queries.append(network.location_at_node(rng.randrange(total_nodes)))
        else:
            edge = network.edge(rng.choice(edge_ids))
            queries.append(
                network.location_on_edge(
                    edge.edge_id, edge.length * rng.uniform(0.1, 0.9)
                )
            )
    return network, object_set, queries


@settings(max_examples=25, deadline=None)
@given(workloads())
def test_all_algorithms_match_oracle(workload):
    network, object_set, queries = workload
    workspace = Workspace.build(network, object_set, paged=False)
    reference = NaiveSkyline().run(workspace, queries)
    for algorithm in (CE(), EDC(), LBC(), LBCLazy()):
        result = cold_run(algorithm, workspace, queries)
        assert result.same_answer(reference), (
            f"{algorithm.name}: {result.object_ids()} != {reference.object_ids()}"
        )


@pytest.mark.parametrize(
    "backend", ["dijkstra", "astar+landmarks", "ch", "hublabel"]
)
@settings(max_examples=20, deadline=None)
@given(workloads())
def test_edc_matches_oracle_on_every_backend(backend, workload):
    """EDC over each distance backend, cold, warm and after a reweight.

    Each reference is ``NaiveSkyline`` over plain Dijkstra on a fresh
    copy of the workspace's current network and objects, so no engine
    state is shared with the run it checks.  Ids must match exactly;
    vectors within ``same_answer``'s tolerance, since oracle-served
    distances are not yet bit-exact.
    """
    network, object_set, queries = workload
    workspace = Workspace.build(
        network, object_set, paged=False, distance_backend=backend
    )

    def check(result):
        fresh = Workspace.build(
            *copy.deepcopy((network, workspace.objects)), paged=False
        )
        reference = NaiveSkyline().run(fresh, queries)
        assert result.object_ids() == reference.object_ids()
        assert result.same_answer(reference)

    check(cold_run(EDC(), workspace, queries))
    check(EDC().run(workspace, queries))

    edge_id = object_set.objects[0].location.edge_id
    workspace.update_edge_length(edge_id, network.edge(edge_id).length * 2.0)
    check(EDC().run(workspace, queries))


def test_query_point_held_across_a_reweight():
    """A location made before its edge is reweighted keeps its offset.

    Its planar point then sits where the old length put that offset.
    Read as is, it gave EDC and LBC Euclidean lower bounds that pruned
    object 0, and they answered object 4 where Naive and CE answer 0.
    """
    network, object_set, queries = build_workload(
        seed=160, disconnected=False, attribute_count=0, query_count=1, object_count=6
    )
    workspace = Workspace.build(network, object_set, paged=False)
    edge_id = object_set.objects[0].location.edge_id
    assert queries[0].edge_id == edge_id
    workspace.update_edge_length(edge_id, network.edge(edge_id).length * 2.0)
    current = [network.location_on_edge(edge_id, queries[0].offset)]
    assert current[0].point != queries[0].point

    reference = NaiveSkyline().run(workspace, current)
    assert reference.object_ids() == [0]
    for algorithm in (CE(), EDC(), LBC(), LBCLazy()):
        result = cold_run(algorithm, workspace, queries)
        assert result.same_answer(reference), algorithm.name


def _ce_answer(result):
    """Ids, exact vectors and discovery order: what warm CE must keep."""
    return (
        result.object_ids(),
        result.vectors_by_id(),
        [point.object_id for point in result.points],
    )


@settings(max_examples=15, deadline=None)
@given(workloads())
def test_warm_ce_equals_cold_ce(workload):
    """Pooled INE wavefronts replay exactly what a fresh one emits.

    Every warm run (reruns, a repeated query point, and runs after an
    object leaves and returns, each following a run that filled the
    pool) must equal a cold run on the same workspace state, bit for bit.
    """
    network, object_set, queries = workload
    workspace = Workspace.build(network, object_set, paged=False)
    cold = cold_run(CE(), workspace, queries)
    for _ in range(2):
        warm = CE().run(workspace, queries)
        assert _ce_answer(warm) == _ce_answer(cold)
        assert warm.stats.nodes_settled <= cold.stats.nodes_settled

    repeated = queries + queries[:1]
    warm = CE().run(workspace, repeated)
    assert _ce_answer(warm) == _ce_answer(cold_run(CE(), workspace, repeated))

    victim = workspace.objects.get(min(obj.object_id for obj in workspace.objects))
    for mutate in (
        lambda: workspace.remove_object(victim.object_id),
        lambda: workspace.add_object(victim),
    ):
        mutate()
        warm = CE().run(workspace, queries)
        assert _ce_answer(warm) == _ce_answer(cold_run(CE(), workspace, queries))


@settings(max_examples=10, deadline=None)
@given(workloads())
def test_lbc_source_choice_irrelevant_to_answer(workload):
    network, object_set, queries = workload
    workspace = Workspace.build(network, object_set, paged=False)
    results = [
        cold_run(LBC(source_index=i), workspace, queries)
        for i in range(len(queries))
    ]
    for other in results[1:]:
        assert other.same_answer(results[0])


@settings(max_examples=10, deadline=None)
@given(workloads())
def test_skyline_never_empty(workload):
    network, object_set, queries = workload
    workspace = Workspace.build(network, object_set, paged=False)
    assert len(NaiveSkyline().run(workspace, queries)) >= 1
