"""Tests for the explanation API (``repro.core.explain``)."""

import pytest

from repro.core import LBC, Workspace, explain_object, explain_result

from conftest import build_random_network, place_random_objects, random_locations


class TestExplain:
    @pytest.fixture(scope="class")
    def answered(self):
        network = build_random_network(50, 30, seed=801)
        objects = place_random_objects(network, 30, seed=802)
        workspace = Workspace.build(network, objects, paged=False)
        queries = random_locations(network, 3, seed=803)
        result = LBC().run(workspace, queries)
        return workspace, queries, result

    def test_member_explanation(self, answered):
        workspace, queries, result = answered
        member = result.points[0].object_id
        explanation = explain_object(workspace, queries, result, member)
        assert explanation.on_skyline
        assert explanation.witnesses == ()
        assert "on the skyline" in explanation.summary()

    def test_non_member_has_witnesses(self, answered):
        workspace, queries, result = answered
        members = set(result.object_ids())
        loser = next(
            o.object_id for o in workspace.objects if o.object_id not in members
        )
        explanation = explain_object(workspace, queries, result, loser)
        assert not explanation.on_skyline
        assert explanation.witnesses
        for witness in explanation.witnesses:
            assert all(m >= 0 for m in witness.margins)
            assert any(m > 0 for m in witness.margins)
        assert "dominated by" in explanation.summary()

    def test_witness_vectors_really_dominate(self, answered):
        from repro.skyline import dominates

        workspace, queries, result = answered
        members = set(result.object_ids())
        loser = next(
            o.object_id for o in workspace.objects if o.object_id not in members
        )
        explanation = explain_object(workspace, queries, result, loser)
        for witness in explanation.witnesses:
            assert dominates(witness.dominator_vector, explanation.vector)

    def test_every_non_member_explained(self, answered):
        workspace, queries, result = answered
        members = set(result.object_ids())
        for obj in workspace.objects:
            explanation = explain_object(
                workspace, queries, result, obj.object_id
            )
            assert explanation.on_skyline == (obj.object_id in members)

    def test_result_report(self, answered):
        workspace, queries, result = answered
        report = explain_result(workspace, queries, result)
        assert f"{len(result)} skyline points" in report
        for point in result:
            assert f"object {point.object_id}:" in report

    def test_foreign_result_rejected(self, answered):
        workspace, queries, result = answered
        other_queries = random_locations(workspace.network, 3, seed=899)
        fresh = LBC().run(workspace, other_queries)
        members = set(fresh.object_ids())
        outsider = next(
            o.object_id
            for o in workspace.objects
            if o.object_id not in members
        )
        # Explaining against mismatched queries must either resolve
        # consistently or raise the mismatch error — never mislabel.
        try:
            explanation = explain_object(
                workspace, queries, fresh, outsider
            )
        except ValueError:
            return
        assert explanation.object_id == outsider
