"""``repro insight`` — turn telemetry exhaust into answers.

Subcommands:

* ``summarize <source>`` — cohort digests of one wide-event JSONL log,
  saved insight report, or ``BENCH_`` artifact;
* ``compare <baseline> <current>`` — diff two sources cohort-by-cohort
  with per-counter attribution; the CI gate;
* ``top <source>`` — the slowest events with trace ids, to look up in
  the ``--trace-dir`` exports or the ``--flight-dir`` records.

Exit codes follow ``repro bench``: 0 clean, 1 regression, 2 the
comparison itself could not run (missing file, foreign schema).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.insight.analyze import (
    DEFAULT_COUNTER_FLOOR,
    DEFAULT_COUNTER_THRESHOLD,
    DEFAULT_EXEMPLARS,
    DEFAULT_LATENCY_FLOOR_S,
    DEFAULT_LATENCY_THRESHOLD,
    DEFAULT_MIN_COUNT,
    compare_summaries,
    load_summary,
    top_events,
)
from repro.insight.gate import EXIT_ERROR, EXIT_OK, EXIT_REGRESSION
from repro.insight.report import format_diff, format_summary, format_top
from repro.obs.events import iter_events


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro insight",
        description="cohort digests and regression detection over "
        "wide-event logs and bench artifacts",
    )
    sub = parser.add_subparsers(dest="insight_command", required=True)

    summarize = sub.add_parser(
        "summarize", help="cohort digests of one event log or artifact"
    )
    summarize.add_argument(
        "source", help="events.jsonl, insight report, or BENCH artifact"
    )
    summarize.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    summarize.add_argument(
        "--out", help="also write the JSON report here (for later compare)"
    )
    summarize.add_argument(
        "--exemplars",
        type=int,
        default=DEFAULT_EXEMPLARS,
        help="slow exemplars kept per cohort (default: %(default)s)",
    )

    compare = sub.add_parser(
        "compare", help="diff two sources; exit 1 on regression"
    )
    compare.add_argument("baseline")
    compare.add_argument("current")
    compare.add_argument(
        "--json", action="store_true", help="print the diff as JSON"
    )
    compare.add_argument(
        "--out", help="also write the JSON diff here"
    )
    compare.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_COUNTER_THRESHOLD,
        help="relative counter growth that fails (default: %(default)s)",
    )
    compare.add_argument(
        "--counter-floor",
        type=float,
        default=DEFAULT_COUNTER_FLOOR,
        help="absolute counter growth below which noise wins "
        "(default: %(default)s)",
    )
    compare.add_argument(
        "--latency-threshold",
        type=float,
        default=DEFAULT_LATENCY_THRESHOLD,
        help="relative latency growth that fails (default: %(default)s)",
    )
    compare.add_argument(
        "--latency-floor",
        type=float,
        default=DEFAULT_LATENCY_FLOOR_S,
        help="absolute latency growth (seconds) below which noise wins "
        "(default: %(default)s)",
    )
    compare.add_argument(
        "--min-count",
        type=int,
        default=DEFAULT_MIN_COUNT,
        help="events both sides need before a cohort is gated "
        "(default: %(default)s)",
    )
    compare.add_argument(
        "--advisory-latency",
        action="store_true",
        help="latency regressions warn instead of fail (use when the "
        "two sources ran on different machines, e.g. CI vs a "
        "committed baseline — wall clocks do not compare, counters do)",
    )

    top = sub.add_parser(
        "top", help="the slowest events, with trace ids"
    )
    top.add_argument("source", help="events.jsonl (rotations included)")
    top.add_argument(
        "-k", type=int, default=10, help="events listed (default: %(default)s)"
    )
    top.add_argument(
        "--cohort",
        help="only events whose cohort key contains this substring "
        "(e.g. 'EDC' or '|Q|[4,8)')",
    )
    top.add_argument(
        "--json", action="store_true", help="print the events as JSON"
    )

    return parser


def _cmd_summarize(args) -> int:
    try:
        summary = load_summary(args.source, exemplars=args.exemplars)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    payload = summary.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(format_summary(summary))
        if args.out:
            print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    try:
        baseline = load_summary(args.baseline)
        current = load_summary(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    diff = compare_summaries(
        baseline,
        current,
        counter_threshold=args.threshold,
        counter_floor=args.counter_floor,
        latency_threshold=args.latency_threshold,
        latency_floor_s=args.latency_floor,
        min_count=args.min_count,
        advisory_latency=args.advisory_latency,
    )
    payload = diff.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(format_diff(diff))
        if args.out:
            print(f"wrote {args.out}")
    return EXIT_OK if diff.ok else EXIT_REGRESSION


def _cmd_top(args) -> int:
    import os

    if not os.path.exists(args.source):
        print(f"error: no such file: {args.source}", file=sys.stderr)
        return EXIT_ERROR
    reader = iter_events(args.source)
    events = top_events(reader, k=args.k, cohort=args.cohort)
    if args.json:
        print(json.dumps(events, indent=1, sort_keys=True))
    else:
        print(format_top(events))
        if reader.corrupt_lines:
            print(
                f"(skipped {reader.corrupt_lines} corrupt/partial line(s))"
            )
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "summarize": _cmd_summarize,
        "compare": _cmd_compare,
        "top": _cmd_top,
    }
    return handlers[args.insight_command](args)


if __name__ == "__main__":
    raise SystemExit(main())
