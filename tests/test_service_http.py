"""In-process HTTP transport tests for the serving layer.

A real :class:`ServiceHTTPServer` bound to an ephemeral port, driven
with ``urllib`` — no mocking, the exact stack ``repro-serve`` runs.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from conftest import build_random_network, cold_run, place_random_objects
from repro.core import LBC, Workspace
from repro.service import QueryService, ServiceHTTPServer


@pytest.fixture(scope="module")
def server():
    network = build_random_network(120, 90, seed=41, detour_max=0.6)
    objects = place_random_objects(network, 40, seed=42, attribute_count=2)
    workspace = Workspace.build(network, objects, distance_backend="astar")
    service = QueryService(workspace, workers=2)
    http_server = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    try:
        yield http_server
    finally:
        http_server.shutdown()
        http_server.server_close()
        service.close()
        thread.join(timeout=10)


def get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post(server, path, body, headers=None):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


class TestRoutes:
    def test_healthz_reports_readiness(self, server):
        status, payload = get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"]
        assert payload["uptime_s"] >= 0.0
        assert payload["inflight"] == 0
        assert payload["queue"].keys() == {"depth", "limit"}
        assert payload["workers"].keys() == {"total", "busy", "saturation"}
        assert payload["workers"]["total"] == 2
        assert 0.0 <= payload["workers"]["saturation"] <= 1.0

    def test_statsz_has_the_advertised_shape(self, server):
        status, payload = get(server, "/statsz")
        assert status == 200
        assert payload["queue"].keys() >= {"depth", "limit", "shed"}
        assert payload["latency_s"].keys() >= {"p50_s", "p95_s", "p99_s"}
        assert "engine" in payload and "requests" in payload
        assert "batches" in payload

    def test_unknown_path_is_404(self, server):
        status, payload = get(server, "/nope")
        assert status == 404

    def test_query_matches_direct_run(self, server):
        workspace = server.service.workspace
        status, payload, _ = post(
            server,
            "/query",
            {"algorithm": "LBC", "query_nodes": [3, 40, 77]},
        )
        assert status == 200
        queries = [workspace.network.location_at_node(n) for n in (3, 40, 77)]
        direct = cold_run(LBC(), workspace, queries)
        got = {
            (entry["object_id"], tuple(entry["vector"]))
            for entry in payload["skyline"]
        }
        want = {(p.object_id, tuple(p.vector)) for p in direct}
        assert got == want
        assert payload["stats"]["algorithm"] == "LBC"

    def test_on_edge_query_points_accepted(self, server):
        edge_id = sorted(server.service.workspace.network.edge_ids())[0]
        status, payload, _ = post(
            server,
            "/query",
            {"query_points": [{"edge": edge_id, "offset": 0.0}, {"node": 5}]},
        )
        assert status == 200
        assert payload["skyline"]

    @pytest.mark.parametrize(
        "body",
        [
            {"algorithm": "nope", "query_nodes": [1, 2]},
            {"algorithm": "LBC", "query_nodes": [10**9]},
            {"algorithm": "LBC", "query_nodes": "3"},
            {"algorithm": "LBC"},
            {"algorithm": "LBC", "query_points": [{"offset": 1.0}]},
        ],
    )
    def test_bad_queries_are_400(self, server, body):
        status, payload, _ = post(server, "/query", body)
        assert status == 400
        assert "error" in payload

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/query", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=30)
        assert exc_info.value.code == 400

    def test_mutate_bumps_version_and_changes_answers(self, server):
        workspace = server.service.workspace
        network = workspace.network
        version_before = workspace.version
        edge_id = sorted(network.edge_ids())[3]
        new_length = network.edge(edge_id).length * 5.0
        status, payload, _ = post(
            server,
            "/mutate",
            {"op": "update_edge", "edge_id": edge_id, "length": new_length},
        )
        assert status == 200
        assert payload["workspace_version"] == version_before + 1
        assert network.edge(edge_id).length == pytest.approx(new_length)
        # Fresh query answers match a direct run on the mutated state.
        status, payload, _ = post(
            server, "/query", {"query_nodes": [3, 40, 77]}
        )
        assert status == 200
        queries = [network.location_at_node(n) for n in (3, 40, 77)]
        direct = cold_run(LBC(), workspace, queries)
        assert {e["object_id"] for e in payload["skyline"]} == {
            p.object_id for p in direct
        }

    def test_mutate_add_and_remove_object(self, server):
        workspace = server.service.workspace
        count_before = len(workspace.objects)
        status, _, _ = post(
            server,
            "/mutate",
            {
                "op": "add_object",
                "object_id": 999_001,
                "node": 7,
                "attributes": [0.5, 0.5],
            },
        )
        assert status == 200
        assert len(workspace.objects) == count_before + 1
        status, _, _ = post(
            server, "/mutate", {"op": "remove_object", "object_id": 999_001}
        )
        assert status == 200
        assert len(workspace.objects) == count_before

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_mutate_non_finite_length_is_400(self, server, length):
        """JSON carries ``NaN``/``Infinity``; the reweight must be refused
        with the network, placements and service counters unchanged."""
        service = server.service
        workspace = service.workspace
        network = workspace.network
        edge_id = next(
            e.edge_id
            for e in network.edges()
            if workspace.middle.objects_on(e.edge_id)
        )
        old_length = network.edge(edge_id).length
        placements = [
            (p.obj.object_id, p.dist_from_u)
            for p in workspace.middle.objects_on(edge_id)
        ]
        version = workspace.version
        mutations = service.stats_dict()["requests"]["mutations"]
        status, payload, _ = post(
            server,
            "/mutate",
            {"op": "update_edge", "edge_id": edge_id, "length": length},
        )
        assert status == 400
        assert "finite" in payload["error"]
        assert network.edge(edge_id).length == old_length
        assert [
            (p.obj.object_id, p.dist_from_u)
            for p in workspace.middle.objects_on(edge_id)
        ] == placements
        assert workspace.version == version
        assert service.stats_dict()["requests"]["mutations"] == mutations

    def test_mutate_unknown_op_is_400(self, server):
        status, payload, _ = post(server, "/mutate", {"op": "defragment"})
        assert status == 400
        assert "unknown op" in payload["error"]

    def test_sloz_reports_objectives(self, server):
        status, payload = get(server, "/sloz")
        assert status == 200
        names = {o["name"] for o in payload["objectives"]}
        assert names == {"latency", "availability"}
        for objective in payload["objectives"]:
            assert 0.0 < objective["target"] < 1.0
            assert objective["windows"]
            for window in objective["windows"]:
                assert window.keys() >= {
                    "long_s", "short_s", "max_burn",
                    "long_burn", "short_burn", "violating",
                }
        # The fixture's traffic is healthy; nothing should be burning.
        assert payload["violating"] is False

    def test_debugz_shows_live_state(self, server):
        status, payload = get(server, "/debugz")
        assert status == 200
        assert payload.keys() >= {
            "inflight", "queue", "workers", "active_by_thread",
            "flight_recorder", "events", "watchdog",
        }
        assert payload["queue"]["limit"] == server.service.queue_limit
        assert payload["workers"]["total"] == 2
        assert payload["flight_recorder"]["ring_capacity"] >= 1


class TestInsightz:
    def test_insightz_serves_live_cohort_digests(self, server):
        # Drive at least one query so a cohort exists.
        status, payload, _ = post(
            server,
            "/query",
            {"algorithm": "LBC", "query_nodes": [0, 1]},
        )
        assert status == 200
        status, payload = get(server, "/insightz")
        assert status == 200
        assert payload["schema"] == "repro-insight-live"
        assert payload["alpha"] > 0.0
        assert payload["observed"] >= 1
        assert payload["cohorts"]
        cohort = next(iter(payload["cohorts"].values()))
        assert cohort["count"] >= 1
        assert {"p50", "p90", "p99", "mean", "max"} <= set(
            cohort["latency_s"]
        )
        assert {"nodes_settled", "page_misses"} <= set(cohort["counters"])

    def test_insight_and_event_log_gauges_reach_metricsz(self, server):
        from repro.obs.metrics import parse_prometheus_text

        with urllib.request.urlopen(
            server.url + "/metricsz", timeout=30
        ) as response:
            families = parse_prometheus_text(response.read().decode())
        assert "repro_insight_latency_seconds" in families
        assert "repro_insight_queries_total" in families
        samples = families["repro_insight_queries_total"]["samples"]
        assert samples, "at least one cohort should have been bridged"
        assert all("cohort" in labels for _, labels, _ in samples)
        latency = families["repro_insight_latency_seconds"]["samples"]
        quantiles = {labels["quantile"] for _, labels, _ in latency}
        assert quantiles == {"0.5", "0.9", "0.99"}
        # Event-log health: the server fixture has no event log, so the
        # queue-depth gauge is absent here; it is covered by the insight
        # E2E test with an event-logging service.


class TestTraceIdPropagation:
    def test_trace_id_honored_and_echoed(self, server):
        status, payload, headers = post(
            server,
            "/query",
            {"algorithm": "LBC", "query_nodes": [3, 40]},
            headers={"X-Repro-Trace-Id": "client-trace-0042"},
        )
        assert status == 200
        assert payload["trace_id"] == "client-trace-0042"
        assert headers["X-Repro-Trace-Id"] == "client-trace-0042"
        # The flight ring's retained trace tree carries the client's id
        # end to end.
        trace_ids = {
            entry.span.trace_id
            for entry in server.service.recorder.ring_entries()
        }
        assert "client-trace-0042" in trace_ids

    def test_trace_id_echoed_on_errors_too(self, server):
        status, payload, headers = post(
            server,
            "/query",
            {"algorithm": "nope", "query_nodes": [3]},
            headers={"X-Repro-Trace-Id": "client-trace-err"},
        )
        assert status == 400
        assert headers["X-Repro-Trace-Id"] == "client-trace-err"

    def test_invalid_trace_id_is_400(self, server):
        status, payload, _ = post(
            server,
            "/query",
            {"algorithm": "LBC", "query_nodes": [3]},
            headers={"X-Repro-Trace-Id": "bad id with spaces!"},
        )
        assert status == 400
        assert "X-Repro-Trace-Id" in payload["error"]

    def test_generated_trace_id_returned_without_header(self, server):
        status, payload, _ = post(
            server, "/query", {"algorithm": "LBC", "query_nodes": [3, 40]}
        )
        assert status == 200
        assert payload["trace_id"]


class TestNo500s:
    def test_no_500s_were_served(self, server):
        assert server.error_responses == 0
