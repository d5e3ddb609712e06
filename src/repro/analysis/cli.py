"""Command-line entry point: ``repro lint`` / ``python -m repro.analysis``.

Exit codes: 0 clean, 1 findings, 2 operational errors (unparseable
file).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.analysis import all_rules, run_lint
from repro.analysis.reporters import render_json, render_text


def _default_paths() -> list[str]:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [here]  # the installed/source repro package itself


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Architecture & concurrency linter for the repro codebase "
            "(import layering, page accounting, lock discipline, lock "
            "ordering, telemetry vocabulary)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help=(
            "only run matching rules (exact id, prefix like REPRO-LOCK, "
            "or glob); repeatable"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report here as well as stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:>14}  [{rule.scope:>7}]  {rule.summary}")
        return 0

    paths = args.paths or _default_paths()
    result = run_lint(paths, select=args.select)
    report = (
        render_json(result) if args.format == "json" else render_text(result)
    )
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
            handle.write("\n")
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
