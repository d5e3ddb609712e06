#!/usr/bin/env python
"""CI smoke test for the serving layer.

Boots ``repro serve`` as a real subprocess on a generated preset
network, fires ~50 concurrent HTTP queries (CE, EDC and LBC in turn,
plus a couple of mutations), then shuts it down with SIGTERM.  Fails
loudly if:

* any response is a 5xx (or a transport error),
* ``/statsz`` does not parse or lacks the advertised keys,
* ``/metricsz`` is not valid Prometheus text, contains a duplicate
  metric family, or lacks the serving-path families,
* ``/slowlogz`` lists a record that is not a completed query at or over
  its threshold (the server runs with ``--slow-threshold-s 0`` so the
  view is never empty),
* no JSON traces are exported on shutdown (the server runs with
  ``--trace-dir``),
* ``/insightz`` shows no observed queries, or ``repro insight
  summarize`` cannot digest the wide-event log the server wrote,
* the wide-event log's summed ``nodes_settled`` differs from the
  engine's settle count in the post-storm ``/statsz`` (every settle is
  billed to exactly one completion record), or ``/statsz`` reports a
  dropped event,
* the server does not exit cleanly on SIGTERM.

The ``/metricsz`` scrape, the ``/slowlogz`` payload, the ``/insightz``
payload, the wide-event log, the ``repro insight summarize`` report
and the exported traces are written to ``$SMOKE_ARTIFACT_DIR`` (when
set) so CI can upload them as a workflow artifact — the insight report
is what the follow-up CI step diffs against
``benchmarks/insight_baseline.json``.

Run from the repository root::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

CONCURRENT_QUERIES = 50
STARTUP_TIMEOUT_S = 60
SHUTDOWN_TIMEOUT_S = 30


def generate_dataset(tmpdir: str) -> tuple[str, str]:
    net_path = os.path.join(tmpdir, "smoke.net")
    obj_path = os.path.join(tmpdir, "smoke.obj")
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "generate",
            "--preset", "CA", "--scale", "0.02", "--seed", "7",
            "--out", net_path, "--objects", obj_path, "--omega", "0.5",
        ],
        check=True,
        env=env_with_src(),
    )
    return net_path, obj_path


def env_with_src() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def wait_for_url(process: subprocess.Popen) -> str:
    """Parse the announced URL from the server's first stdout line."""
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited during startup (rc={process.poll()})"
            )
        if " on http://" in line:
            url = line.rsplit(" on ", 1)[1].strip()
            break
    else:
        raise SystemExit(f"no startup line within {STARTUP_TIMEOUT_S}s: {line!r}")
    # Liveness gate before the load burst.
    for _ in range(100):
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=5) as r:
                if r.status == 200:
                    return url
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.1)
    raise SystemExit("server never answered /healthz")


def node_ids_from(net_path: str) -> list[int]:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.datasets import load_network

    return sorted(load_network(net_path).node_ids())


def post_json(url: str, path: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    for attempt in range(3):
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())
        except (ConnectionError, urllib.error.URLError):
            # Transient connect-time failure; one retry is generous —
            # the server keeps a deep accept backlog.
            if attempt == 2:
                raise
            time.sleep(0.2 * (attempt + 1))


def check_metricsz(url: str, artifact_dir: str) -> None:
    """Scrape /metricsz, save it, and strictly validate the exposition."""
    from repro.obs import parse_prometheus_text

    with urllib.request.urlopen(url + "/metricsz", timeout=30) as r:
        content_type = r.headers.get("Content-Type", "")
        text = r.read().decode("utf-8")
    with open(os.path.join(artifact_dir, "metricsz.txt"), "w") as handle:
        handle.write(text)
    if not content_type.startswith("text/plain"):
        raise SystemExit(f"/metricsz content type {content_type!r}")
    # The strict parser raises on duplicate families, TYPE-before-HELP,
    # malformed labels — exactly the drift this smoke guards against.
    families = parse_prometheus_text(text)
    required = {
        "repro_service_requests_total",
        "repro_service_queue_depth",
        "repro_insight_latency_seconds",
        "repro_buffer_reads_total",
        "repro_buffer_hit_ratio",
        "repro_engine_memo_events_total",
    }
    missing = required - set(families)
    if missing:
        raise SystemExit(f"/metricsz missing families: {sorted(missing)}")
    completed = [
        value
        for name, labels, value in families["repro_service_requests_total"]["samples"]
        if labels.get("outcome") == "completed"
    ]
    if not completed or completed[0] <= 0:
        raise SystemExit("/metricsz shows zero completed requests")
    print(
        f"smoke: metricsz ok — {len(families)} families, "
        f"no duplicates, completed={completed[0]:.0f}"
    )


def check_billing(event_log: str, stats: dict) -> None:
    """Every settle the engine made is billed to exactly one record.

    The storm rotates CE, EDC and LBC by request index.  All three
    search on engine-owned expanders (CE's pooled INE wavefronts, EDC's
    pooled A*, LBC's A* and lower-bound searches), so the records'
    summed ``nodes_settled`` must equal the engine's monotone settle
    count; a deduped follower bills zero.
    """
    from repro.obs import read_events

    dropped = stats["events"]["dropped"]
    if dropped:
        raise SystemExit(f"/statsz reports {dropped} dropped event(s)")
    billed = sum(
        event["counters"].get("nodes_settled", 0)
        for event in read_events(event_log)
    )
    settled = stats["engine_nodes_settled"]
    if billed != settled:
        raise SystemExit(
            f"event log bills {billed} settles, engine settled {settled}"
        )
    print(f"smoke: billing ok — {billed} settles billed = engine settled")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmpdir:
        artifact_dir = os.environ.get("SMOKE_ARTIFACT_DIR") or os.path.join(
            tmpdir, "artifacts"
        )
        os.makedirs(artifact_dir, exist_ok=True)
        trace_dir = os.path.join(artifact_dir, "traces")
        event_log = os.path.join(artifact_dir, "events.jsonl")
        net_path, obj_path = generate_dataset(tmpdir)
        nodes = node_ids_from(net_path)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                net_path, obj_path, "--port", "0", "--workers", "4",
                "--trace-dir", trace_dir, "--event-log", event_log,
                "--slow-threshold-s", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env_with_src(),
        )
        try:
            url = wait_for_url(process)
            print(f"smoke: server up at {url}")

            rng = random.Random(2007)
            failures: list[str] = []
            statuses: list[int] = []
            lock = threading.Lock()

            def one_query(i: int) -> None:
                try:
                    # A couple of mutations ride along with the storm.
                    if i % 25 == 7:
                        status, payload = post_json(
                            url, "/mutate",
                            {"op": "remove_object", "object_id": -1},
                        )  # unknown id → 400, exercises the error path
                        expected_ok = (400,)
                    else:
                        queries = rng.sample(nodes, 3)
                        status, payload = post_json(
                            url, "/query",
                            {
                                "algorithm": ("CE", "EDC", "LBC")[i % 3],
                                "query_nodes": queries,
                            },
                        )
                        expected_ok = (200, 503)  # shedding ≠ failure
                except Exception as exc:
                    with lock:
                        failures.append(f"request {i}: transport error {exc}")
                    return
                with lock:
                    statuses.append(status)
                    if status >= 500 and status != 503:
                        failures.append(f"request {i}: {status} {payload}")
                    elif status not in expected_ok:
                        failures.append(f"request {i}: {status} {payload}")

            threads = [
                threading.Thread(target=one_query, args=(i,))
                for i in range(CONCURRENT_QUERIES)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)

            if failures:
                raise SystemExit("smoke failures:\n" + "\n".join(failures))
            if len(statuses) != CONCURRENT_QUERIES:
                raise SystemExit(
                    f"only {len(statuses)}/{CONCURRENT_QUERIES} "
                    "requests completed"
                )
            ok = sum(1 for s in statuses if s == 200)
            print(f"smoke: {len(statuses)} requests, {ok} × 200, no 5xx")

            with urllib.request.urlopen(url + "/statsz", timeout=30) as r:
                stats = json.loads(r.read())
            for key in ("queue", "requests", "latency_s", "batches", "engine"):
                if key not in stats:
                    raise SystemExit(f"/statsz missing {key!r}: {stats}")
            print(
                "smoke: statsz ok — completed="
                f"{stats['requests']['completed']} "
                f"shed={stats['queue']['shed']} "
                f"p95={stats['latency_s']['p95_s']}s "
                f"mean_batch={stats['batches']['mean_batch_size']}"
            )

            check_metricsz(url, artifact_dir)
            with urllib.request.urlopen(url + "/slowlogz", timeout=30) as r:
                slowlog = json.loads(r.read())
            with open(os.path.join(artifact_dir, "slowlogz.json"), "w") as h:
                json.dump(slowlog, h, indent=1)
            records = slowlog["records"]
            if not records:
                raise SystemExit(f"/slowlogz is empty at threshold 0: {slowlog}")
            for record in records:
                if (
                    record["outcome"] != "completed"
                    or record["latency_s"] < slowlog["threshold_s"]
                ):
                    raise SystemExit(f"/slowlogz record not slow: {record}")
            print(
                f"smoke: slowlogz ok — slow_count={slowlog['slow_count']} "
                f"records={len(records)}"
            )

            with urllib.request.urlopen(url + "/insightz", timeout=30) as r:
                insight = json.loads(r.read())
            with open(os.path.join(artifact_dir, "insightz.json"), "w") as h:
                json.dump(insight, h, indent=1)
            if insight.get("schema") != "repro-insight-live":
                raise SystemExit(f"/insightz schema {insight.get('schema')!r}")
            if insight.get("observed", 0) <= 0 or not insight.get("cohorts"):
                raise SystemExit(f"/insightz saw no queries: {insight}")
            print(
                f"smoke: insightz ok — observed={insight['observed']} "
                f"over {len(insight['cohorts'])} cohort(s)"
            )
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                returncode = process.wait(timeout=SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                raise SystemExit("server ignored SIGTERM")
        remainder = process.stdout.read()
        if "shutdown complete" not in remainder:
            raise SystemExit(
                f"no clean shutdown message (rc={returncode}): {remainder!r}"
            )
        if returncode != 0:
            raise SystemExit(f"server exited with rc={returncode}")
        traces = sorted(
            f for f in os.listdir(trace_dir)
            if f.startswith("trace-") and f.endswith(".json")
        ) if os.path.isdir(trace_dir) else []
        if not traces:
            raise SystemExit(f"no traces exported to {trace_dir}")
        with open(os.path.join(trace_dir, traces[0])) as handle:
            root = json.load(handle)
        for key in ("name", "trace_id", "children", "counts"):
            if key not in root:
                raise SystemExit(f"trace {traces[0]} missing {key!r}")
        print(f"smoke: {len(traces)} traces exported, clean shutdown")

        # Offline leg: the wide-event log the server just flushed must
        # digest cleanly into the report CI diffs against the committed
        # insight baseline.
        if not os.path.exists(event_log):
            raise SystemExit(f"no wide-event log at {event_log}")
        report_path = os.path.join(artifact_dir, "insight_report.json")
        summarize = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "insight", "summarize",
                event_log, "--out", report_path,
            ],
            env=env_with_src(),
        )
        if summarize.returncode != 0:
            raise SystemExit(
                f"insight summarize failed (rc={summarize.returncode})"
            )
        with open(report_path) as handle:
            report = json.load(handle)
        if report.get("events", 0) <= 0 or not report.get("cohorts"):
            raise SystemExit(f"insight report digested nothing: {report_path}")
        if report.get("corrupt_lines", 0):
            raise SystemExit(
                f"event log had {report['corrupt_lines']} corrupt line(s) "
                "after a clean shutdown"
            )
        print(
            f"smoke: insight report ok — {report['events']} events, "
            f"{len(report['cohorts'])} cohort(s) -> {report_path}"
        )
        check_billing(event_log, stats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
