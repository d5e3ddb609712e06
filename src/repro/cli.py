"""Command-line interface.

Installed as the ``repro`` console script (also runnable as
``python -m repro.cli``).  Subcommands:

* ``generate``   — build a synthetic road network (preset or custom) and
  write it, optionally with an extracted object set;
* ``info``       — structural statistics of a network file;
* ``query``      — run a multi-source skyline query over network/object
  files and print the answer table;
* ``trace``      — run one query with tracing on and print its span
  tree (per-phase timings, page reads, settled nodes); ``--last``
  renders the most recent exported trace or flight record from a
  ``--trace-dir`` instead of running anything;
* ``blackbox``   — render a flight-record dump (recent completed
  traces, in-flight span trees, thread stacks) written by the
  service's flight recorder (:mod:`repro.obs.recorder`);
* ``oracle``     — ``build`` a contraction-hierarchy / hub-label
  distance oracle for a network file, ``verify`` one against online
  Dijkstra on sampled pairs (:mod:`repro.oracle`);
* ``serve``      — long-running concurrent HTTP query server (also
  installed as the ``repro-serve`` console script);
* ``bench``      — run a versioned workload suite, emit/compare
  ``BENCH_<rev>.json`` artifacts; ``--suite paper`` regenerates the
  paper's figures and checks their shape claims (:mod:`repro.bench`;
  also ``python -m repro.bench``);
* ``insight``    — cohort digests, regression detection and slow-event
  listings over wide-event logs and bench artifacts
  (:mod:`repro.insight`; also ``python -m repro.insight``);
* ``lint``       — run the repo's own architecture & concurrency
  linter (:mod:`repro.analysis`; also ``python -m repro.analysis``).

Example session::

    repro generate --preset AU --out au.net --objects au.obj --omega 0.5
    repro info au.net
    repro query au.net au.obj --query-nodes 12 857 1411 --algorithm LBC
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core import ALGORITHMS, Workspace
from repro.datasets import (
    build_preset,
    delaunay_road_network,
    extract_objects,
    load_network,
    load_objects,
    network_density,
    save_network,
    save_objects,
    select_query_points,
)
from repro.engine import BACKEND_NAMES, DEFAULT_BACKEND


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-source skyline query processing in road networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic network")
    generate.add_argument("--preset", choices=["CA", "AU", "NA"])
    generate.add_argument("--nodes", type=int, help="custom generator size")
    generate.add_argument("--ratio", type=float, default=1.25, help="|E|/|V|")
    generate.add_argument("--scale", type=float, default=0.10)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True, help="network file to write")
    generate.add_argument("--objects", help="also write an object file here")
    generate.add_argument("--omega", type=float, default=0.5)

    info = sub.add_parser("info", help="statistics of a network file")
    info.add_argument("network")

    query = sub.add_parser("query", help="run a skyline query")
    query.add_argument("network")
    query.add_argument("objects")
    query.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="LBC"
    )
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--query-nodes", type=int, nargs="+", help="junction ids"
    )
    group.add_argument(
        "--random-queries", type=int, help="draw N query junctions"
    )
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--distance-backend",
        choices=list(BACKEND_NAMES),
        default=DEFAULT_BACKEND,
        help="distance engine backend (default: %(default)s)",
    )
    query.add_argument(
        "--oracle",
        help="attach a prebuilt distance-oracle index file "
        "(see `repro oracle build`)",
    )
    query.add_argument("--json", help="write the result as JSON here")
    query.add_argument(
        "--stats", action="store_true", help="print cost statistics"
    )

    trace = sub.add_parser(
        "trace", help="run one query and print its trace as a span tree"
    )
    trace.add_argument("network", nargs="?")
    trace.add_argument("objects", nargs="?")
    trace.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="LBC"
    )
    trace_group = trace.add_mutually_exclusive_group()
    trace_group.add_argument(
        "--query-nodes", type=int, nargs="+", help="junction ids"
    )
    trace_group.add_argument(
        "--random-queries", type=int, help="draw N query junctions"
    )
    trace.add_argument(
        "--last", action="store_true",
        help="render the most recent exported trace or flight record "
        "from --trace-dir instead of running a query",
    )
    trace.add_argument(
        "--trace-dir", default=None,
        help="directory of exported traces / flight records (with --last)",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--distance-backend",
        choices=list(BACKEND_NAMES),
        default=DEFAULT_BACKEND,
    )
    trace.add_argument(
        "--keys", nargs="+",
        help="counters to show per span (default: pages + settled nodes)",
    )
    trace.add_argument("--max-depth", type=int, default=8)
    trace.add_argument("--json", help="also write the trace as JSON here")

    blackbox = sub.add_parser(
        "blackbox",
        help="inspect a flight-record dump (ring, in-flight spans, stacks)",
    )
    blackbox.add_argument(
        "path", nargs="?",
        help="flight-record JSON (default: newest in --dir)",
    )
    blackbox.add_argument(
        "--dir", default=None,
        help="directory of flightrecord-*.json dumps",
    )
    blackbox.add_argument(
        "--keys", nargs="+",
        help="counters to show per span (default: pages + settled nodes)",
    )
    blackbox.add_argument("--max-depth", type=int, default=6)
    blackbox.add_argument(
        "--no-threads", action="store_true",
        help="omit the per-thread stack section",
    )

    oracle = sub.add_parser(
        "oracle", help="build / verify preprocessed distance oracles"
    )
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    oracle_build = oracle_sub.add_parser(
        "build", help="preprocess a network into an oracle index file"
    )
    oracle_build.add_argument("network")
    oracle_build.add_argument("--out", required=True, help="index file to write")
    oracle_build.add_argument(
        "--kind", choices=["ch", "hublabel"], default="hublabel"
    )
    oracle_build.add_argument(
        "--witness-limit",
        type=int,
        default=64,
        help="witness-search settle limit per contraction (default: 64)",
    )
    oracle_verify = oracle_sub.add_parser(
        "verify",
        help="sample random location pairs through the engine against "
        "online Dijkstra",
    )
    oracle_verify.add_argument("network")
    oracle_verify.add_argument("oracle")
    oracle_verify.add_argument("--samples", type=int, default=200)
    oracle_verify.add_argument("--seed", type=int, default=0)
    oracle_verify.add_argument(
        "--tolerance",
        type=float,
        default=1e-9,
        help="max relative error allowed (oracle sums may differ from "
        "online search by float association noise; default: %(default)s)",
    )

    serve = sub.add_parser(
        "serve", help="serve skyline queries over HTTP (repro-serve)"
    )
    from repro.service.http import add_serve_arguments

    add_serve_arguments(serve)

    bench = sub.add_parser(
        "bench",
        help="run a workload suite (the paper's figures included); "
        "emit/compare BENCH_<rev>.json",
        add_help=False,  # --help flows through to the bench parser
    )
    bench.add_argument("rest", nargs=argparse.REMAINDER)

    insight = sub.add_parser(
        "insight",
        help="summarize/compare/top over event logs and bench artifacts",
        add_help=False,  # --help flows through to the insight parser
    )
    insight.add_argument("rest", nargs=argparse.REMAINDER)

    lint = sub.add_parser(
        "lint",
        help="run the architecture & concurrency linter (repro.analysis)",
        add_help=False,  # --help flows through to the lint parser
    )
    lint.add_argument("rest", nargs=argparse.REMAINDER)

    return parser


def _cmd_generate(args) -> int:
    if args.preset:
        network = build_preset(args.preset, scale=args.scale, seed=args.seed)
    elif args.nodes:
        network = delaunay_road_network(
            args.nodes, edge_node_ratio=args.ratio, seed=args.seed
        )
    else:
        print("error: pass --preset or --nodes", file=sys.stderr)
        return 2
    save_network(network, args.out)
    print(
        f"wrote {args.out}: {network.node_count} junctions, "
        f"{network.edge_count} edges"
    )
    if args.objects:
        objects = extract_objects(network, omega=args.omega, seed=args.seed + 1)
        save_objects(objects, args.objects)
        print(f"wrote {args.objects}: {len(objects)} objects (ω={args.omega})")
    return 0


def _cmd_info(args) -> int:
    network = load_network(args.network)
    print(f"junctions:      {network.node_count}")
    print(f"edges:          {network.edge_count}")
    print(f"|E|/|V|:        {network.edge_count / max(1, network.node_count):.3f}")
    print(f"total length:   {network.total_length():.3f}")
    print(f"density:        {network_density(network):.2f}")
    print(f"connected:      {network.is_connected()}")
    return 0


def _cmd_query(args) -> int:
    network = load_network(args.network)
    objects = load_objects(network, args.objects)
    workspace = Workspace.build(
        network, objects, distance_backend=args.distance_backend
    )
    if args.oracle:
        from repro.oracle import OracleIndexError, load_oracle_index

        try:
            workspace.engine.attach_oracle(load_oracle_index(args.oracle))
        except OracleIndexError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.query_nodes:
        missing = [n for n in args.query_nodes if not network.has_node(n)]
        if missing:
            print(f"error: unknown junction ids {missing}", file=sys.stderr)
            return 2
        queries = [network.location_at_node(n) for n in args.query_nodes]
    else:
        queries = select_query_points(
            network, args.random_queries, seed=args.seed
        )
        print(
            "query junctions:",
            " ".join(str(q.node_id) for q in queries),
        )
    algorithm = ALGORITHMS[args.algorithm]()
    result = algorithm.run(workspace, queries)

    header = ["object"] + [f"d(q{i})" for i in range(len(queries))]
    if workspace.attribute_count:
        header += [f"attr{j}" for j in range(workspace.attribute_count)]
    print("  ".join(f"{h:>10s}" for h in header))
    for point in result:
        cells = [f"{point.obj.object_id:>10d}"]
        cells += [f"{v:>10.4f}" for v in point.vector]
        print("  ".join(cells))
    print(f"\n{len(result)} skyline points ({algorithm.name})")
    if args.stats:
        s = result.stats
        print(
            f"candidates={s.candidate_count} nodes={s.nodes_settled} "
            f"net_pages={s.network_pages} idx_pages={s.index_pages} "
            f"mid_pages={s.middle_pages} t={s.total_response_s:.4f}s "
            f"t_first={s.initial_response_s:.4f}s"
        )
        info = workspace.engine.cache_info()
        print(
            f"engine: backend={info['backend']} oracle={info['oracle']} "
            f"hits={info['hits']} misses={info['misses']} "
            f"evictions={info['evictions']} "
            f"pool={info['pool_entries']}/{info['pool_capacity']} "
            f"memo={info['memo_entries']}/{info['memo_capacity']}"
        )
        if s.oracle_pages or s.oracle_label_entries or s.oracle_nodes_settled:
            print(
                f"oracle: pages={s.oracle_pages} "
                f"nodes={s.oracle_nodes_settled} "
                f"label_entries={s.oracle_label_entries} "
                f"fallbacks={s.oracle_fallbacks}"
            )
    if args.json:
        import json

        payload = {
            "algorithm": algorithm.name,
            "query_points": [
                {"node": q.node_id, "edge": q.edge_id, "offset": q.offset,
                 "x": q.point.x, "y": q.point.y}
                for q in queries
            ],
            "skyline": [
                {"object_id": p.object_id, "vector": list(p.vector)}
                for p in result
            ],
            "stats": result.stats.as_row(),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import format_trace

    if args.last:
        return _render_last_trace(args)
    if not args.network or not args.objects:
        print(
            "error: network and objects are required unless --last is given",
            file=sys.stderr,
        )
        return 2
    if args.query_nodes is None and args.random_queries is None:
        print(
            "error: provide --query-nodes or --random-queries "
            "(or use --last)",
            file=sys.stderr,
        )
        return 2
    network = load_network(args.network)
    objects = load_objects(network, args.objects)
    workspace = Workspace.build(
        network, objects, distance_backend=args.distance_backend
    )
    if args.query_nodes:
        missing = [n for n in args.query_nodes if not network.has_node(n)]
        if missing:
            print(f"error: unknown junction ids {missing}", file=sys.stderr)
            return 2
        queries = [network.location_at_node(n) for n in args.query_nodes]
    else:
        queries = select_query_points(
            network, args.random_queries, seed=args.seed
        )
        print(
            "query junctions:",
            " ".join(str(q.node_id) for q in queries),
        )
    algorithm = ALGORITHMS[args.algorithm]()
    result = algorithm.run(workspace, queries)

    root = result.trace
    if args.keys:
        print(format_trace(root, keys=tuple(args.keys), max_depth=args.max_depth))
    else:
        print(format_trace(root, max_depth=args.max_depth))
    s = result.stats
    print(
        f"\n{len(result)} skyline points ({algorithm.name})  "
        f"nodes_settled={s.nodes_settled} net_pages={s.network_pages} "
        f"idx_pages={s.index_pages} mid_pages={s.middle_pages} "
        f"t={s.total_response_s:.4f}s"
    )
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(root.to_dict(), handle, indent=1)
        print(f"wrote {args.json}")
    return 0


def _render_last_trace(args) -> int:
    """``repro trace --last``: newest trace or flight record on disk."""
    import glob
    import json
    import os

    from repro.obs import Span, format_flight_record, format_trace

    if not args.trace_dir:
        print("error: --last requires --trace-dir", file=sys.stderr)
        return 2
    candidates = [
        path
        for pattern in ("trace-*.json", "flightrecord-*.json")
        for path in glob.glob(os.path.join(args.trace_dir, pattern))
    ]
    if not candidates:
        print(
            f"error: no trace-*.json or flightrecord-*.json under "
            f"{args.trace_dir}",
            file=sys.stderr,
        )
        return 2
    newest = max(candidates, key=os.path.getmtime)
    with open(newest) as handle:
        payload = json.load(handle)
    print(f"{newest}:")
    keys = tuple(args.keys) if args.keys else None
    if "flight_record" in payload:
        extra = {"keys": keys} if keys else {}
        print(
            format_flight_record(
                payload,
                max_depth=args.max_depth,
                include_threads=False,
                **extra,
            )
        )
    elif keys:
        print(
            format_trace(
                Span.from_dict(payload), keys=keys, max_depth=args.max_depth
            )
        )
    else:
        print(format_trace(Span.from_dict(payload), max_depth=args.max_depth))
    return 0


def _cmd_blackbox(args) -> int:
    """``repro blackbox``: render a flight-record dump."""
    from repro.obs import format_flight_record, latest_flight_record
    from repro.obs.recorder import load_flight_record

    path = args.path
    if path is None:
        if not args.dir:
            print(
                "error: give a flight-record path or --dir", file=sys.stderr
            )
            return 2
        path = latest_flight_record(args.dir)
        if path is None:
            print(
                f"error: no flightrecord-*.json under {args.dir}",
                file=sys.stderr,
            )
            return 2
    try:
        payload = load_flight_record(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{path}:")
    extra = {"keys": tuple(args.keys)} if args.keys else {}
    print(
        format_flight_record(
            payload,
            max_depth=args.max_depth,
            include_threads=not args.no_threads,
            **extra,
        )
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.service.http import run_serve

    return run_serve(args)


def _cmd_oracle(args) -> int:
    if args.oracle_command == "build":
        return _cmd_oracle_build(args)
    return _cmd_oracle_verify(args)


def _cmd_oracle_build(args) -> int:
    from repro.oracle import build_oracle_index, save_oracle_index

    network = load_network(args.network)
    index = build_oracle_index(
        network, kind=args.kind, witness_settle_limit=args.witness_limit
    )
    save_oracle_index(index, args.out)
    print(f"wrote {args.out} ({index.kind})")
    print(f"junctions:      {index.node_count}")
    print(f"shortcuts:      {index.shortcut_count}")
    if index.kind == "hublabel":
        print(f"label entries:  {index.label_entry_count}")
        print(f"avg label size: {index.average_label_size:.2f}")
    print(f"build time:     {index.build_seconds:.3f}s")
    return 0


def _cmd_oracle_verify(args) -> int:
    import random

    from repro.engine import DistanceEngine
    from repro.obs import tracing
    from repro.oracle import load_oracle_index, network_signature

    network = load_network(args.network)
    index = load_oracle_index(args.oracle)
    if index.signature != network_signature(network):
        print(
            "error: oracle index was built on a different network "
            "(signature mismatch)",
            file=sys.stderr,
        )
        return 1
    # Queries' path: the engine's memo, then the attached index through
    # each source's pooled label column.
    engine = DistanceEngine(network, backend="dijkstra")
    engine.attach_oracle(index)
    reference = DistanceEngine(network, backend="dijkstra")
    rng = random.Random(args.seed)
    nodes = sorted(network.node_ids())
    edges = sorted(network.edge_ids())

    def on_edge(edge_id: int):
        length = network.edge(edge_id).length
        return network.location_on_edge(edge_id, rng.uniform(0.0, length))

    worst = 0.0
    failures = 0
    with tracing.span("oracle.verify", samples=args.samples):
        for sample in range(args.samples):
            # Four targets per source around one edge: its two ends and
            # two points on it, so the source's column answers the
            # junctions the later targets share; the last point lies
            # on the source's own edge when the source lies on one (the
            # direct walk).  Every other source lies on an edge.
            group, slot = divmod(sample, 4)
            if slot == 0:
                source = (
                    on_edge(rng.choice(edges))
                    if group % 2
                    else network.location_at_node(rng.choice(nodes))
                )
                edge = network.edge(rng.choice(edges))
            if slot % 2 == 0:
                target = network.location_at_node(edge.v if slot else edge.u)
            elif slot == 3 and source.edge_id is not None:
                target = on_edge(source.edge_id)
            else:
                target = on_edge(edge.edge_id)
            expected = reference.distance(source, target)
            got = engine.distance(source, target)
            if got == expected:  # covers exact matches and inf == inf
                continue
            rel = abs(got - expected) / max(abs(expected), 1e-300)
            worst = max(worst, rel)
            if rel > args.tolerance:
                failures += 1
    print(f"verified {args.samples} sampled pairs ({index.kind})")
    print(f"max relative error: {worst:.3e} (tolerance {args.tolerance:.1e})")
    if failures:
        print(f"error: {failures} pair(s) exceeded tolerance", file=sys.stderr)
        return 1
    print("OK")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.cli import main as lint_main

    return lint_main(args.rest)


def _cmd_bench(args) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(args.rest)


def _cmd_insight(args) -> int:
    from repro.insight.cli import main as insight_main

    return insight_main(args.rest)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse.REMAINDER refuses a leading flag (`repro lint --list-rules`,
    # `repro bench --quick`), so those subcommands are dispatched before
    # parsing.
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.bench.__main__ import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "insight":
        from repro.insight.cli import main as insight_main

        return insight_main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "query": _cmd_query,
        "trace": _cmd_trace,
        "blackbox": _cmd_blackbox,
        "oracle": _cmd_oracle,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
        "insight": _cmd_insight,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
