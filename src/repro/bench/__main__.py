"""``python -m repro.bench`` / ``repro bench`` entry point.

Runs one suite, writes its ``BENCH_<rev>.json``, then prints the
suite's views: the paper's figure tables and shape verdicts
(``paper``, ``paper-quick``) or the ablation tables (``ablations``).

Exit codes: 0 = ran, every shape claim held (and compared clean, if
asked); 1 = a shape claim failed, answers or counters disagreed, or a
deterministic counter regressed against the baseline; 2 = usage error
or unreadable baseline/artifact.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.compare import (
    DEFAULT_COUNTER_TOLERANCE,
    DEFAULT_TIMING_TOLERANCE,
    compare_artifacts,
    format_report,
    load_artifact,
)
from repro.bench.figures import format_series, suite_figures
from repro.bench.runner import (
    AnswerMismatch,
    CounterDrift,
    current_revision,
    default_artifact_name,
    run_suite,
    write_artifact,
)
from repro.bench.shapes import verify_all
from repro.bench.suite import SUITES, suite_workloads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Run a versioned workload suite; emit a BENCH_<rev>.json "
            "artifact and print the suite's figure tables and shape "
            "verdicts; optionally gate it against a baseline artifact."
        ),
    )
    parser.add_argument(
        "--suite",
        default="quick",
        choices=sorted(SUITES),
        help="workload suite to run (default: quick)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --suite quick --repeats 1 (the CI gate)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override timing repeats per workload "
        "(counters are verified identical across repeats)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="artifact path (default: BENCH_<revision>.json)",
    )
    parser.add_argument(
        "--revision",
        default=None,
        help="revision stamp (default: $REPRO_BENCH_REV, else git HEAD)",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        default=None,
        help="gate the fresh artifact against this baseline JSON",
    )
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=DEFAULT_COUNTER_TOLERANCE,
        help="relative slack on deterministic counters (default: 0.0)",
    )
    parser.add_argument(
        "--timing-tolerance",
        type=float,
        default=DEFAULT_TIMING_TOLERANCE,
        help="relative slack before a (non-fatal) timing warning "
        "(default: 0.5)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the suite's workloads and exit",
    )
    return parser


def _print_views(artifact: dict) -> bool:
    """Print the artifact's views; False when a shape claim fails."""
    figures = suite_figures(artifact)
    for series in figures.values():
        print(format_series(series), end="\n\n")
    checks = verify_all(figures)
    if not checks:
        return True
    print("shape verification:")
    for check in checks:
        print(f"  {check}")
    held = sum(check.passed for check in checks)
    print(f"{held}/{len(checks)} claims hold")
    return held == len(checks)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    suite = "quick" if args.quick else args.suite
    repeats = 1 if (args.quick and args.repeats is None) else args.repeats
    if repeats is not None and repeats < 1:
        parser.error(f"--repeats must be >= 1, got {repeats}")

    if args.list:
        for workload in suite_workloads(suite):
            print(f"{workload.workload_id}  [{workload.kind}]")
        return 0

    revision = args.revision or current_revision()
    print(f"bench: suite={suite} revision={revision}")
    try:
        artifact = run_suite(
            suite, repeats=repeats, revision=revision, progress=print
        )
    except (CounterDrift, AnswerMismatch) as failure:
        print(f"FAIL  {failure}", file=sys.stderr)
        return 1

    out_path = args.out or default_artifact_name(revision)
    write_artifact(artifact, out_path)
    print(f"bench: wrote {out_path} ({len(artifact['benchmarks'])} records)")
    status = 0 if _print_views(artifact) else 1

    if args.compare is None:
        return status
    try:
        baseline = load_artifact(args.compare)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench: cannot read baseline: {exc}", file=sys.stderr)
        return 2
    report = compare_artifacts(
        baseline,
        artifact,
        counter_tolerance=args.counter_tolerance,
        timing_tolerance=args.timing_tolerance,
    )
    print(format_report(report))
    return status if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
