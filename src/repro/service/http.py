"""Stdlib JSON endpoint in front of a :class:`QueryService`.

No framework, no dependency: ``http.server.ThreadingHTTPServer`` with
one handler.  Routes:

* ``POST /query``  — body ``{"algorithm": "LBC", "query_nodes":
  [12, 857], "timeout_s": 5.0}`` (or ``"query_points": [{"edge": 3,
  "offset": 1.5}, {"node": 12}]``).  Answers with the skyline, the
  per-query stats row and timing.
* ``POST /mutate`` — body ``{"op": "update_edge", "edge_id": 3,
  "length": 2.5}`` / ``{"op": "add_object", ...}`` / ``{"op":
  "remove_object", "object_id": 7}``.  Runs behind the workspace's
  write lock.
* ``GET /healthz`` — readiness: version, uptime, in-flight count,
  queue depth and worker saturation (one signal for load balancers
  and the stall watchdog alike).
* ``GET /statsz``  — the service's full stats block (queue depth, shed
  count, lifetime latency percentiles from the insight sketches, batch
  and engine/buffer counters, telemetry sink errors).
* ``GET /metricsz`` — the shared metric registry in Prometheus text
  exposition format (``text/plain; version=0.0.4``).
* ``GET /slowlogz`` — a view over the flight-recorder ring: threshold,
  total slow count and the retained completed records at or over the
  threshold, slowest first, as wide events.
* ``GET /sloz``    — every declared objective's multi-window burn-rate
  verdict (see :mod:`repro.obs.slo`).
* ``GET /debugz``  — live in-flight span trees, per-thread active
  spans, queue/worker state and diagnostics-plane accounting.
* ``GET /insightz`` — rolling per-cohort latency/settled/page-miss
  digests from the insight hub (:mod:`repro.insight.live`); the live
  counterpart of ``repro insight summarize`` over the event log.

Trace correlation: a client may send ``X-Repro-Trace-Id`` on
``POST /query``; the id is stamped onto the request's root span (and
therefore into its completion record: the wide event, the ring entry
``/slowlogz`` shows, and any flight record) and echoed back on the
response, success or failure.

Typed service failures map onto status codes: ``Overloaded`` → 503
(with ``Retry-After``), ``DeadlineExceeded`` → 504, ``BadRequest`` and
malformed input → 400, everything unexpected → 500.

``main()`` is the ``repro-serve`` console entry point (also reachable
as ``repro serve``).
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

from repro.core import Workspace
from repro.engine import BACKEND_NAMES, DEFAULT_BACKEND
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.objects import SpatialObject
from repro.obs import install_signal_dump
from repro.service.errors import (
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    ServiceClosed,
)
from repro.service.service import (
    DEFAULT_MAX_BATCH,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_SLOW_THRESHOLD_S,
    DEFAULT_TIMEOUT_S,
    DEFAULT_WORKERS,
    QueryService,
)

MAX_BODY_BYTES = 1 << 20  # requests are tiny; anything bigger is abuse

TRACE_ID_HEADER = "X-Repro-Trace-Id"
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


def parse_query_locations(body: dict, network: RoadNetwork) -> list[NetworkLocation]:
    """Locations from ``query_nodes`` ids and/or ``query_points`` specs."""
    locations: list[NetworkLocation] = []
    nodes = body.get("query_nodes", [])
    if not isinstance(nodes, list):
        raise BadRequest("query_nodes must be a list of junction ids")
    for node in nodes:
        if not isinstance(node, int) or isinstance(node, bool):
            raise BadRequest(f"junction id must be an integer, got {node!r}")
        if not network.has_node(node):
            raise BadRequest(f"unknown junction id {node}")
        locations.append(network.location_at_node(node))
    points = body.get("query_points", [])
    if not isinstance(points, list):
        raise BadRequest("query_points must be a list of location objects")
    for spec in points:
        if not isinstance(spec, dict):
            raise BadRequest(f"query point must be an object, got {spec!r}")
        if spec.get("node") is not None:
            node = spec["node"]
            if not isinstance(node, int) or not network.has_node(node):
                raise BadRequest(f"unknown junction id {node!r}")
            locations.append(network.location_at_node(node))
        elif spec.get("edge") is not None:
            try:
                locations.append(
                    network.location_on_edge(
                        spec["edge"], float(spec.get("offset", 0.0))
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise BadRequest(f"bad on-edge query point {spec!r}: {exc}")
        else:
            raise BadRequest(
                f"query point needs a 'node' or 'edge' field, got {spec!r}"
            )
    if not locations:
        raise BadRequest("provide query_nodes and/or query_points")
    return locations


def result_payload(result) -> dict:
    """The JSON body of a successful ``/query`` response."""
    return {
        "algorithm": result.stats.algorithm,
        "skyline": [
            {"object_id": p.object_id, "vector": list(p.vector)}
            for p in result
        ],
        "stats": result.stats.as_row(),
    }


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns the service it fronts."""

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default accept backlog (5) resets connections when
    # a burst of clients connects at once; admission control belongs to
    # the QueryService queue, not the kernel's SYN backlog.
    request_queue_size = 128

    def __init__(self, address, service: QueryService, quiet: bool = True):
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.quiet = quiet
        self.error_responses = 0  # 5xx count, asserted on by the CI smoke

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class ServiceRequestHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), format % args)
            )

    def _send_json(self, status: int, payload: dict, headers=()) -> None:
        if status >= 500:
            self.server.error_responses += 1
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_echo_trace_id", None)
        if trace_id:
            # Echo the client's correlation id on every outcome, so a
            # 503/504 is still joinable against server-side telemetry.
            self.send_header(TRACE_ID_HEADER, trace_id)
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _client_trace_id(self) -> str | None:
        """Validated ``X-Repro-Trace-Id`` header value, if present."""
        raw = self.headers.get(TRACE_ID_HEADER)
        if raw is None:
            return None
        if not _TRACE_ID_RE.match(raw):
            raise BadRequest(
                f"{TRACE_ID_HEADER} must match {_TRACE_ID_RE.pattern}"
            )
        return raw

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        if status >= 500:
            self.server.error_responses += 1
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}")
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        return body

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/healthz":
                self._send_json(200, self.server.service.health_dict())
            elif self.path == "/statsz":
                self._send_json(200, self.server.service.stats_dict())
            elif self.path == "/metricsz":
                self._send_text(
                    200,
                    self.server.service.metrics.render(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif self.path == "/slowlogz":
                self._send_json(200, self.server.service.slowlog_dict())
            elif self.path == "/sloz":
                self._send_json(200, self.server.service.slo_report())
            elif self.path == "/debugz":
                self._send_json(200, self.server.service.debug_dict())
            elif self.path == "/insightz":
                self._send_json(200, self.server.service.insight_report())
            else:
                self._send_json(404, {"error": f"no such path {self.path}"})
        except Exception as exc:
            self._send_json(500, {"error": f"internal error: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._echo_trace_id = None
        try:
            self._echo_trace_id = self._client_trace_id()
            body = self._read_body()
            if self.path == "/query":
                self._handle_query(body)
            elif self.path == "/mutate":
                self._handle_mutate(body)
            else:
                self._send_json(404, {"error": f"no such path {self.path}"})
        except BadRequest as exc:
            self._send_json(400, {"error": str(exc)})
        except Overloaded as exc:
            self._send_json(
                503,
                {
                    "error": str(exc),
                    "queue_depth": exc.queue_depth,
                    "queue_limit": exc.queue_limit,
                },
                headers=[("Retry-After", f"{exc.retry_after_s:.3f}")],
            )
        except DeadlineExceeded as exc:
            self._send_json(504, {"error": str(exc)})
        except ServiceClosed as exc:
            self._send_json(503, {"error": str(exc)})
        except (KeyError, ValueError, TypeError) as exc:
            self._send_json(400, {"error": f"{type(exc).__name__}: {exc}"})
        except Exception as exc:
            self._send_json(500, {"error": f"internal error: {exc}"})

    def _handle_query(self, body: dict) -> None:
        service = self.server.service
        algorithm = body.get("algorithm", "LBC")
        timeout_s = body.get("timeout_s")
        if timeout_s is not None:
            timeout_s = float(timeout_s)
        queries = parse_query_locations(body, service.workspace.network)
        result = service.query(
            algorithm,
            queries,
            timeout_s=timeout_s,
            trace_id=self._echo_trace_id,
        )
        payload = result_payload(result)
        payload["trace_id"] = result.stats.trace_id
        self._send_json(200, payload)

    def _handle_mutate(self, body: dict) -> None:
        service = self.server.service
        op = body.get("op")
        if op == "update_edge":
            service.update_edge_length(
                int(body["edge_id"]), float(body["length"])
            )
        elif op == "add_object":
            network = service.workspace.network
            if body.get("node") is not None:
                location = network.location_at_node(int(body["node"]))
            else:
                location = network.location_on_edge(
                    int(body["edge_id"]), float(body.get("offset", 0.0))
                )
            service.add_object(
                SpatialObject(
                    int(body["object_id"]),
                    location,
                    tuple(float(a) for a in body.get("attributes", [])),
                )
            )
        elif op == "remove_object":
            service.remove_object(int(body["object_id"]))
        else:
            raise BadRequest(
                f"unknown op {op!r}; choose update_edge, add_object "
                "or remove_object"
            )
        self._send_json(
            200, {"ok": True, "workspace_version": service.workspace.version}
        )


# ----------------------------------------------------------------------
# CLI entry point (repro-serve / repro serve)
# ----------------------------------------------------------------------
def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared between ``repro-serve`` and the ``repro serve`` subcommand."""
    parser.add_argument("network", help="network file (see `repro generate`)")
    parser.add_argument("objects", help="object file")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8314, help="0 picks a free port"
    )
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--queue-limit", type=int, default=DEFAULT_QUEUE_LIMIT)
    parser.add_argument("--max-batch", type=int, default=DEFAULT_MAX_BATCH)
    parser.add_argument(
        "--timeout-s", type=float, default=DEFAULT_TIMEOUT_S,
        help="default per-request deadline",
    )
    parser.add_argument(
        "--distance-backend",
        choices=list(BACKEND_NAMES),
        default=DEFAULT_BACKEND,
    )
    parser.add_argument(
        "--unpaged", action="store_true",
        help="skip disk-cost simulation (faster, no page accounting)",
    )
    parser.add_argument(
        "--trace-dir", default=None,
        help="on shutdown, export the flight ring's request traces as "
        "JSON here",
    )
    parser.add_argument(
        "--slow-threshold-s", type=float, default=DEFAULT_SLOW_THRESHOLD_S,
        help="completed requests at least this slow are listed at "
        "/slowlogz and trigger a slow_query flight dump",
    )
    parser.add_argument(
        "--event-log", default=None,
        help="append one wide JSONL event per query to this file",
    )
    parser.add_argument(
        "--flight-dir", default=None,
        help="write flight-record dumps (errors, slow queries, stalls, "
        "SIGUSR2) to this directory",
    )
    parser.add_argument(
        "--stall-deadline-s", type=float, default=None,
        help="flag in-flight queries with no counter progress for this "
        "long (off by default)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve multi-source skyline queries over HTTP",
    )
    add_serve_arguments(parser)
    return parser


def run_serve(args) -> int:
    """Build the workspace, start the service, block until a signal."""
    from repro.datasets import load_network, load_objects

    network = load_network(args.network)
    objects = load_objects(network, args.objects)
    workspace = Workspace.build(
        network,
        objects,
        paged=not args.unpaged,
        distance_backend=args.distance_backend,
    )
    service = QueryService(
        workspace,
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_timeout_s=args.timeout_s,
        max_batch=args.max_batch,
        slow_threshold_s=args.slow_threshold_s,
        event_log_path=args.event_log,
        flight_dir=args.flight_dir,
        stall_deadline_s=args.stall_deadline_s,
    )
    # Operator button: SIGUSR2 forces a flight-record dump (no-op when
    # --flight-dir is unset or the platform lacks the signal).
    install_signal_dump(service.recorder)
    server = ServiceHTTPServer(
        (args.host, args.port), service, quiet=not args.verbose
    )
    print(
        f"serving {args.network} ({network.node_count} junctions, "
        f"{len(objects)} objects) on {server.url}",
        flush=True,
    )

    def _shutdown(signum, frame):
        # serve_forever() must be unblocked from another thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _shutdown)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        service.close()
        if args.trace_dir:
            paths = service.recorder.export_traces(args.trace_dir)
            print(f"saved {len(paths)} traces to {args.trace_dir}", flush=True)
        report = service.slo_report()
        for objective in report["objectives"]:
            verdict = "VIOLATING" if objective["violating"] else "ok"
            print(
                f"slo {objective['name']}: {verdict} "
                f"target={objective['target']} "
                f"compliance={objective['compliance']} "
                f"({objective['good']:.0f}/{objective['total']:.0f} good)",
                flush=True,
            )
        if args.event_log and service.events is not None:
            stats = service.events.stats()
            print(
                f"wide events: {stats['written']} written, "
                f"{stats['dropped']} dropped -> {args.event_log}",
                flush=True,
            )
        print("shutdown complete", flush=True)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    return run_serve(build_serve_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
