"""End-to-end benchmark of the skyline library and its query service.

Run from the repository root (``src/`` is put on the path here)::

    python3 benchmarks/e2e/run.py                    # each workload: run + traced run
    python3 benchmarks/e2e/run.py --runs 5 --seed 1  # median, IQR of 5 fresh runs
    python3 benchmarks/e2e/run.py --workload serve-fanout-au --seed 2 --trace 0

With ``--workload`` and no ``--runs`` the command measures one run and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``; the line before it holds the
run's ``details`` (raw end-to-end figures, sample counts, exact
counters).  The run re-executes itself with ``PYTHONHASHSEED=0`` first,
so set iteration order is the same in every run, and pins itself to
one CPU (see ``hostspeed.py``).  A wrong answer exits 1 and names the
workload and the op; a failed request exits 1 after a result with
``correct: false``.

Without ``--workload``, or with ``--runs N``, the command is the
repeatability harness: every (workload, run) goes to a fresh
subprocess, each workload gets ``N`` untraced runs and one traced run,
and the median and IQR of each metric are printed and written to
``summary.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD_TIMEOUT_S = 900


def load_catalog() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(argv: list[str], catalog: dict) -> argparse.Namespace:
    names = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, help="harness: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tests)")
    parser.add_argument("--out", default=str(HERE / "out"), help="trace/summary dir")
    parser.add_argument("--summary", help="harness: summary file (OUT/summary.json)")
    args = parser.parse_args(argv)
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def single_run(args: argparse.Namespace, catalog: dict) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    os.makedirs(args.out, exist_ok=True)
    trace_path = (
        os.path.join(args.out, f"{args.workload}.trace.json") if args.trace else None
    )
    try:
        report = workloads.run(
            args.workload, args.seed, args.seconds, trace_path, args.smoke
        )
    except workloads.AnswerMismatch as exc:
        print(f"answer check failed: {exc}", file=sys.stderr)
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        spec["name"]: {"value": report.metrics[spec["name"]], "unit": spec["unit"]}
        for spec in catalog[section]
    }
    for name, metric in metrics.items():
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}")
    # A failed request has no answer to check, so the run is not correct.
    correct = report.failed == 0
    if not correct:
        print(f"{args.workload}: {report.failed} of {report.attempted} requests "
              "failed", file=sys.stderr)
    print(json.dumps({"details": report.details}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def reexec_fresh(argv: list[str]) -> None:
    """Replace this process with one whose string hashing is fixed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable, [sys.executable, str(Path(__file__)), *argv], env)


# ----------------------------------------------------------------------
# Repeatability harness
# ----------------------------------------------------------------------


def child_run(args: argparse.Namespace, workload: str, trace: int) -> dict:
    """One run in a fresh process: its result line, plus its ``details``."""
    command = [
        sys.executable, str(Path(__file__)),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", args.out,
    ] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(done.returncode)
    *_, details, result = done.stdout.splitlines()
    report = json.loads(result)
    report["details"] = json.loads(details)["details"]
    report["metrics"] = {
        name: metric["value"] for name, metric in report["metrics"].items()
    }
    return report


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def harness(args: argparse.Namespace, catalog: dict) -> int:
    os.makedirs(args.out, exist_ok=True)
    runs = args.runs or 1
    chosen = [args.workload] if args.workload else [
        w["name"] for w in catalog["workloads"]
    ]
    summary = {
        "revision": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "runs": runs,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    status = 0
    for workload in chosen:
        reports = [child_run(args, workload, 0) for _ in range(runs)]
        traced = child_run(args, workload, 1)
        block = {"end_to_end": {}, "per_layer": {}, "runs": []}
        for report in reports:
            block["runs"].append(
                {"attempted": report["attempted"], "failed": report["failed"],
                 **report["details"]}
            )
        print(f"== {workload}: {runs} run(s), seed {args.seed}")
        for spec in catalog["end_to_end"]:
            name = spec["name"]
            values = [report["metrics"][name] for report in reports]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            unresolved = spread > spec["bound"]
            block["end_to_end"][name] = {
                "unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
                "iqr_over_median": spread, "bound": spec["bound"],
                "unresolved": unresolved, "values": values,
            }
            flag = "  unresolved" if unresolved else ""
            print(
                f"  {name:<24} {median:12.5g} {spec['unit']:<10} "
                f"IQR/median {spread:6.2%} (bound {spec['bound']:.0%}){flag}"
            )
        samples = [run["latency_samples"] for run in block["runs"]]
        print(f"  latency samples per run: {samples}")
        counters = [report["details"]["counters"] for report in reports]
        if workload == "paper-cold-na" and any(c != counters[0] for c in counters):
            print(f"  counter drift between runs: {counters}", file=sys.stderr)
            status = 1
        block["counters"] = counters
        for spec in catalog["per_layer"]:
            name = spec["name"]
            value = traced["metrics"][name]
            block["per_layer"][name] = {"unit": spec["unit"], "value": value}
            print(f"  {name:<40} {value:12.5g} {spec['unit']}")
        block["trace"] = traced["details"]
        summary["workloads"][workload] = block
    path = args.summary or os.path.join(args.out, "summary.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"summary written to {path}")
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    catalog = load_catalog()
    args = parse_args(argv, catalog)
    if args.workload and args.runs is None:
        return single_run(args, catalog)
    return harness(args, catalog)


if __name__ == "__main__":
    arguments = sys.argv[1:]
    if os.environ.get("PYTHONHASHSEED") != "0":
        reexec_fresh(arguments)
    sys.path.insert(0, str(HERE))
    from hostspeed import pin_to_one_cpu

    pin_to_one_cpu()
    sys.exit(main(arguments))
