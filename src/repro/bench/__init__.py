"""``repro.bench`` — the one workload runner.

The paper's whole evaluation is a cost trajectory: pages read and nodes
settled for CE/EDC/LBC as network size, |Q| and density vary.  This
package measures it — and every other workload the repo tracks — one
way, into one artifact format:

* :mod:`repro.bench.suite` — a named, versioned catalogue of workloads:
  the CI gates (``quick``, ``full``), the paper's figure grid
  (``paper``, ``paper-quick``) and the ``ablations``;
* :mod:`repro.bench.runner` — executes a suite and emits a
  schema-versioned ``BENCH_<rev>.json`` holding **deterministic cost
  counters** (read off the tracing span tree, bit-identical run to
  run) and **advisory wall-time percentiles** (environment-dependent,
  never gated); records of one query point must return one skyline;
* :mod:`repro.bench.figures` — the paper's figure panels and the
  ablation tables, declared as views over a suite's records, with the
  shape claims of :mod:`repro.bench.shapes` checked on top;
* :mod:`repro.bench.compare` — compares two artifacts: hard failures
  on deterministic-counter regressions, noise-tolerant warnings on
  timings.  CI runs every push against the committed
  ``benchmarks/baseline.json``.

Run it as ``repro bench`` or ``python -m repro.bench``.
"""

from repro.bench.compare import ComparisonReport, compare_artifacts, format_report
from repro.bench.figures import FigureSeries, format_series, suite_figures
from repro.bench.runner import (
    ARTIFACT_SCHEMA,
    ARTIFACT_SCHEMA_VERSION,
    AnswerMismatch,
    CounterDrift,
    WorkloadCache,
    default_artifact_name,
    run_suite,
    run_workload,
    write_artifact,
)
from repro.bench.shapes import ShapeCheck, verify_all
from repro.bench.suite import SUITE_VERSION, SUITES, suite_workloads

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_SCHEMA_VERSION",
    "AnswerMismatch",
    "ComparisonReport",
    "CounterDrift",
    "FigureSeries",
    "SUITES",
    "SUITE_VERSION",
    "ShapeCheck",
    "WorkloadCache",
    "compare_artifacts",
    "default_artifact_name",
    "format_report",
    "format_series",
    "run_suite",
    "run_workload",
    "suite_figures",
    "suite_workloads",
    "verify_all",
    "write_artifact",
]
