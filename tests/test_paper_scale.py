"""Paper-scale fidelity check: the CA stand-in at its REAL size.

The paper's smallest dataset (California: 3 044 nodes, 3 607 edges) is
within pure-Python reach, so this test runs the full pipeline at
``scale=1.0`` — the one setting where our workload matches the paper's
dataset dimensions exactly — and asserts both correctness (all
algorithms agree) and the evaluation's CA-specific findings.

Marked ``slow``; runs in roughly half a minute.  Deselect with
``pytest -m "not slow"``.
"""

import pytest

from repro.core import CE, EDC, LBC, NaiveSkyline, Workspace
from repro.datasets import build_preset, extract_objects, select_query_points

from network_measures import estimate_delta

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def full_ca():
    network = build_preset("CA", scale=1.0, seed=7)
    objects = extract_objects(network, omega=0.5, seed=1)
    workspace = Workspace.build(network, objects, buffer_bytes=1024 * 1024)
    return network, workspace


class TestPaperScaleCA:
    def test_dimensions_match_paper(self, full_ca):
        network, _ = full_ca
        assert network.node_count == 3044
        assert network.edge_count == pytest.approx(3607, abs=5)

    def test_network_is_usable(self, full_ca):
        network, workspace = full_ca
        assert network.is_connected()
        assert len(workspace.objects) == pytest.approx(0.5 * network.edge_count, abs=2)

    def test_delta_is_large_on_sparse_network(self, full_ca):
        network, _ = full_ca
        delta = estimate_delta(network, sources=4, targets_per_source=25)
        assert delta > 1.5  # the sparse/high-δ regime the paper describes

    def test_all_algorithms_agree_at_paper_scale(self, full_ca):
        network, workspace = full_ca
        queries = select_query_points(network, 4, seed=11)
        reference = NaiveSkyline().run(workspace, queries)
        for algorithm in (CE(), EDC(), LBC()):
            workspace.reset_io(cold=True)
            result = algorithm.run(workspace, queries)
            assert result.same_answer(reference), algorithm.name

    def test_lbc_network_access_comparable_on_sparse_network(self, full_ca):
        """On the sparse, high-δ CA network LBC's Euclidean-guided
        candidate enumeration loses its edge (the paper's own Section 6
        finding: "with CA, LBC loses some efficiency due to the same
        reason as EDC") — step 1.2 computes the full source distance for
        every Euclidean NN pulled, and δ inflates how many that is.  We
        assert near-parity here; the strict N(LBC) <= N(CE) relation is
        asserted on denser networks in test_integration.py."""
        network, workspace = full_ca
        queries = select_query_points(network, 4, seed=13)
        costs = {}
        for algorithm in (CE(), LBC()):
            workspace.reset_io(cold=True)
            costs[algorithm.name] = algorithm.run(workspace, queries).stats
        assert (
            costs["LBC"].nodes_settled
            <= max(3 * costs["CE"].nodes_settled, network.node_count)
        )

    def test_lbc_initial_response_immediate(self, full_ca):
        network, workspace = full_ca
        queries = select_query_points(network, 4, seed=17)
        workspace.reset_io(cold=True)
        stats = LBC().run(workspace, queries).stats
        assert stats.initial_response_s < stats.total_response_s / 2


class TestLazyLBCAtPaperScale:
    """Our LBC-lazy extension repairs the sparse-network regression."""

    def test_lazy_beats_plain_lbc_on_sparse_network(self, full_ca):
        from repro.core import LBCLazy

        network, workspace = full_ca
        wins = 0
        for seed in (13, 17, 19):
            queries = select_query_points(network, 4, seed=seed)
            workspace.reset_io(cold=True)
            plain = LBC().run(workspace, queries)
            workspace.reset_io(cold=True)
            lazy = LBCLazy().run(workspace, queries)
            assert lazy.same_answer(plain)
            if lazy.stats.nodes_settled <= plain.stats.nodes_settled:
                wins += 1
        assert wins == 3

    def test_lazy_beats_ce_on_sparse_network(self, full_ca):
        from repro.core import LBCLazy

        network, workspace = full_ca
        wins = 0
        for seed in (13, 17, 19):
            queries = select_query_points(network, 4, seed=seed)
            workspace.reset_io(cold=True)
            ce = CE().run(workspace, queries)
            workspace.reset_io(cold=True)
            lazy = LBCLazy().run(workspace, queries)
            assert lazy.same_answer(ce)
            if lazy.stats.nodes_settled <= ce.stats.nodes_settled:
                wins += 1
        assert wins >= 2
