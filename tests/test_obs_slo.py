"""SLO burn-rate monitor: deterministic burn math under a fake clock,
and the service-level /sloz flip under an injected latency regression.
The latency source's sketch bridge (``QuantileSketch.count_at_most``)
is covered in ``test_insight_sketch.py``."""

from __future__ import annotations

import threading
import time

import pytest

from conftest import build_random_network, place_random_objects
from repro.core import ALGORITHMS, Workspace
from repro.core.result import SkylineResult
from repro.core.stats import QueryStats
from repro.obs import tracing
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    BurnWindow,
    Objective,
    SLOMonitor,
)
from repro.service import QueryService, ServiceHTTPServer


class TestObjective:
    def test_error_budget(self):
        objective = Objective("latency", target=0.99, threshold_s=0.25)
        assert objective.error_budget == pytest.approx(0.01)
        assert objective.to_dict()["threshold_s"] == 0.25

    @pytest.mark.parametrize("target", [0.0, 1.0, -1.0, 2.0])
    def test_target_must_be_a_fraction(self, target):
        with pytest.raises(ValueError):
            Objective("latency", target=target)

    def test_default_windows_are_long_short_pairs(self):
        for window in DEFAULT_WINDOWS:
            assert window.long_s > window.short_s
            assert window.max_burn > 1.0


class FakeSource:
    """Cumulative (good, total) counters the tests drive by hand."""

    def __init__(self):
        self.good = 0.0
        self.total = 0.0

    def arrive(self, good: float, bad: float = 0.0) -> None:
        self.good += good
        self.total += good + bad

    def __call__(self):
        return self.good, self.total


def make_monitor(windows=(BurnWindow(100.0, 10.0, 2.0),), target=0.9):
    clock = [0.0]
    source = FakeSource()
    monitor = SLOMonitor(windows=windows, clock=lambda: clock[0])
    monitor.add_objective(Objective("latency", target=target), source)
    return monitor, source, clock


class TestBurnMath:
    def test_no_traffic_is_not_an_outage(self):
        monitor, _, clock = make_monitor()
        clock[0] = 50.0
        report = monitor.report()
        assert report["violating"] is False
        assert monitor.burn_rate("latency", 100.0) == 0.0

    def test_healthy_traffic_has_zero_burn(self):
        monitor, source, clock = make_monitor()
        clock[0] = 5.0
        source.arrive(good=100)
        monitor.observe()
        clock[0] = 6.0
        report = monitor.report()
        (objective,) = report["objectives"]
        assert objective["compliance"] == 1.0
        assert objective["violating"] is False
        for window in objective["windows"]:
            assert window["long_burn"] == 0.0
            assert window["short_burn"] == 0.0

    def test_regression_flips_both_windows(self):
        monitor, source, clock = make_monitor()
        clock[0] = 5.0
        source.arrive(good=100)
        monitor.observe()
        clock[0] = 10.0
        source.arrive(good=0, bad=100)  # 50% of all traffic now bad
        monitor.observe()
        clock[0] = 11.0
        report = monitor.report()
        (objective,) = report["objectives"]
        (window,) = objective["windows"]
        # error budget is 0.1; half the traffic bad => burn 5.0 >= 2.0
        assert window["long_burn"] == pytest.approx(5.0)
        assert window["short_burn"] >= 2.0
        assert window["violating"] is True
        assert report["violating"] is True

    def test_short_window_resets_after_recovery(self):
        monitor, source, clock = make_monitor()
        clock[0] = 5.0
        source.arrive(good=100)
        monitor.observe()
        clock[0] = 10.0
        source.arrive(good=0, bad=100)
        monitor.observe()
        clock[0] = 30.0
        source.arrive(good=200)  # regression over: fresh traffic is good
        monitor.observe()
        clock[0] = 31.0
        report = monitor.report()
        (objective,) = report["objectives"]
        (window,) = objective["windows"]
        # Long window still remembers the incident...
        assert window["long_burn"] >= 2.0
        # ...but the short window proves it stopped, so no violation.
        assert window["short_burn"] < 2.0
        assert window["violating"] is False
        assert report["violating"] is False

    def test_history_is_trimmed_to_the_longest_window(self):
        monitor, source, clock = make_monitor()
        for step in range(1, 300):
            clock[0] = float(step)
            source.arrive(good=1)
            monitor.observe()
        tracked = monitor._tracked["latency"]
        # One baseline older than the 100s horizon, plus the window.
        assert len(tracked.history) < 120
        assert tracked.history[0].at <= clock[0] - 100.0

    def test_duplicate_objective_rejected(self):
        monitor, source, _ = make_monitor()
        with pytest.raises(ValueError):
            monitor.add_objective(Objective("latency", target=0.5), source)


class MolassesAlgorithm:
    """Injected latency regression: every query takes ~0.4s."""

    name = "molasses"

    def run(self, workspace, queries):
        with tracing.span("query.molasses") as root:
            time.sleep(0.4)
        stats = QueryStats(algorithm=self.name, trace_id=root.trace_id)
        return SkylineResult(points=[], stats=stats, trace=root)


@pytest.fixture
def slo_service():
    network = build_random_network(80, 40, seed=31)
    objects = place_random_objects(network, 15, seed=32)
    workspace = Workspace.build(network, objects, distance_backend="astar")
    # One cumulative window (longer than the test) so the verdict is
    # deterministic: burn is computed over everything that happened.
    service = QueryService(
        workspace,
        workers=2,
        algorithms={**ALGORITHMS, "molasses": MolassesAlgorithm},
        slo_windows=(BurnWindow(3600.0, 3600.0, 1.0),),
        slo_latency_target=0.5,
        slo_latency_threshold_s=0.25,
    )
    try:
        yield service
    finally:
        service.close()


class TestServiceSLOFlip:
    def test_latency_regression_flips_sloz_to_violating(self, slo_service):
        service = slo_service
        network = service.workspace.network
        nodes = sorted(network.node_ids())
        locations = [network.location_at_node(n) for n in nodes[:2]]

        for _ in range(4):
            service.query("LBC", locations)
        report = service.slo_report()
        latency = next(
            o for o in report["objectives"] if o["name"] == "latency"
        )
        assert latency["violating"] is False
        assert report["violating"] is False

        # Inject the regression: most traffic now blows the threshold.
        for _ in range(6):
            service.query("molasses", locations)
        report = service.slo_report()
        latency = next(
            o for o in report["objectives"] if o["name"] == "latency"
        )
        (window,) = latency["windows"]
        # 6 of 10 queries bad, error budget 0.5 => burn 1.2 >= 1.0.
        assert latency["total"] == 10.0
        assert window["long_burn"] >= 1.0
        assert latency["violating"] is True
        assert report["violating"] is True
        # The availability objective is unaffected by slowness.
        availability = next(
            o for o in report["objectives"] if o["name"] == "availability"
        )
        assert availability["violating"] is False

    def test_sloz_endpoint_serves_the_same_verdict(self, slo_service):
        import json
        import urllib.request

        service = slo_service
        network = service.workspace.network
        locations = [
            network.location_at_node(sorted(network.node_ids())[0])
        ]
        for _ in range(2):
            service.query("molasses", locations)
        http_server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        try:
            with urllib.request.urlopen(
                http_server.url + "/sloz", timeout=30
            ) as response:
                payload = json.loads(response.read())
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=10)
        assert payload["violating"] is True
        latency = next(
            o for o in payload["objectives"] if o["name"] == "latency"
        )
        assert latency["windows"][0]["long_burn"] >= 1.0
