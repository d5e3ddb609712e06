"""The ``xl`` scaling tier: columnar out-of-core skyline benchmarks.

The regular suites stop where a road network still fits comfortably in
memory.  This tier measures the columnar data plane on its own terms —
object counts up to 10⁶, streamed to disk as binary column files and
processed chunk-by-chunk without ever materialising per-object Python
tuples:

1. ``xl.generate`` — :func:`repro.datasets.generators.stream_object_columns`
   writes the object columns in bounded chunks;
2. ``xl.load`` — :class:`repro.datasets.io.ColumnFile` memory-maps them;
3. ``xl.distances`` + ``xl.skyline`` — per chunk, one
   :func:`~repro.columnar.kernels.batch_euclidean` sweep per query point
   fills a distance block and :func:`~repro.columnar.kernels.block_skyline`
   keeps the chunk's survivors; the survivor union gets one final
   block-skyline pass (sound by transitivity of dominance: any point
   dominated in its chunk is also dominated in the union);
4. ``xl.index`` — :meth:`repro.index.rtree.RTree.bulk_load_columns`,
   the Hilbert column bulk load of the R-tree over the loaded
   coordinates, on workloads small enough that the per-entry index
   cost is worth reporting.

The ladders are the ``xl`` and ``xl-smoke`` suites of
:mod:`repro.bench.suite`; their records (kind ``"xl"``) sit in the one
``BENCH_*.json`` schema, so :func:`repro.bench.compare.compare_artifacts`
gates them unchanged.  Counters (rows, chunks, survivor rows, skyline
size, bulk dominance checks from the span totals) are deterministic;
wall timings per phase are advisory, exactly like the other suites.
:func:`format_scaling_report` renders the counter/timing curves versus
|D|, |Q| and dimensionality.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from repro.bench.suite import XLWorkload
from repro.columnar.kernels import batch_euclidean, block_skyline, fill_column
from repro.columnar.store import CoordinateColumns, VectorTable
from repro.datasets.generators import REGION_SIDE, stream_object_columns
from repro.datasets.io import ColumnFile
from repro.index.rtree import RTree
from repro.obs import tracing

#: Object-count ceiling for also timing the R-tree column bulk load
#: (index build is O(n log n) in sort work and dwarfs the kernels at
#: the top of the ladder without telling us anything new).
INDEX_PHASE_MAX_OBJECTS = 100_000


class _PhaseClock:
    """Wall time per phase; advisory, like every suite timing."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def measure(self, phase: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[phase] = round(
                self.seconds.get(phase, 0.0) + (time.perf_counter() - start),
                6,
            )


def _query_grid(count: int) -> list[tuple[float, float]]:
    """Deterministic query points spread over the unit region.

    A fixed low-discrepancy-ish diagonal lattice: reproducible without
    drawing from the dataset RNG stream.
    """
    points = []
    for i in range(count):
        frac = (i + 1) / (count + 1)
        points.append(
            (frac * REGION_SIDE, ((i * 7 + 3) % (count + 1) + 1)
             / (count + 2) * REGION_SIDE)
        )
    return points


def run_xl_workload(workload: XLWorkload, directory: str | Path) -> dict:
    """Execute one scaling point; returns its artifact record."""
    clock = _PhaseClock()
    queries = _query_grid(workload.queries)
    width = workload.queries + workload.attributes
    path = Path(directory) / f"{workload.objects}-{workload.seed}.cols"

    with tracing.span(
        "xl.run", objects=workload.objects, queries=workload.queries
    ) as root:
        with clock.measure("generate"), tracing.span("xl.generate"):
            stream_object_columns(
                path,
                workload.objects,
                attribute_count=workload.attributes,
                seed=workload.seed,
                chunk_size=min(workload.chunk_size, 65_536),
            )

        with clock.measure("load"), tracing.span("xl.load"):
            column_file = ColumnFile(path)
        xs = column_file.column("x")
        ys = column_file.column("y")
        attr_columns = [
            column_file.column(f"a{j}") for j in range(workload.attributes)
        ]

        try:
            # Distance + per-chunk skyline, streamed: one reused block
            # buffer holds a chunk's vectors, survivors accumulate in a
            # single flat table.
            survivors = VectorTable(width)
            chunk_size = workload.chunk_size
            block = array("d", bytes(8 * chunk_size * width))
            chunks = 0
            start = 0
            count = workload.objects
            while start < count:
                size = min(chunk_size, count - start)
                cx = xs[start : start + size]
                cy = ys[start : start + size]
                with clock.measure("distances"), tracing.span(
                    "xl.distances", rows=size
                ):
                    for column, (qx, qy) in enumerate(queries):
                        batch_euclidean(cx, cy, size, qx, qy, block, column, width)
                    for j, attr in enumerate(attr_columns):
                        view = attr[start : start + size]
                        fill_column(
                            block, width, workload.queries + j, view, size
                        )
                        view.release()
                cx.release()
                cy.release()
                with clock.measure("skyline"), tracing.span(
                    "xl.skyline", rows=size
                ):
                    for row in block_skyline(block, size, width):
                        base = row * width
                        survivors.data.extend(block[base : base + width])
                chunks += 1
                start += size

            with clock.measure("skyline"), tracing.span("xl.skyline"):
                final = block_skyline(
                    survivors.data, len(survivors), survivors.width
                )

            if workload.objects <= INDEX_PHASE_MAX_OBJECTS:
                with clock.measure("index"), tracing.span("xl.index"):
                    coords = CoordinateColumns(array("d", xs), array("d", ys))
                    RTree.bulk_load_columns(coords, range(len(coords)))
        finally:
            for attr in attr_columns:
                attr.release()
            xs.release()
            ys.release()
            column_file.close()
            path.unlink(missing_ok=True)

    totals = root.totals()
    counters = {
        "rows": workload.objects,
        "chunks": chunks,
        "survivor_rows": len(survivors),
        "skyline_count": len(final),
        "dominance_checks": int(totals.get("dominance_checks", 0)),
    }
    total_s = round(sum(clock.seconds.values()), 6)
    return {
        "id": workload.workload_id,
        "kind": "xl",
        "params": workload.params(),
        "counters": counters,
        "timing_s": {
            "repeats": 1,
            "min": total_s,
            "mean": total_s,
            "p50": total_s,
            "max": total_s,
        },
        "phases_s": dict(sorted(clock.seconds.items())),
    }


def format_scaling_report(artifact: dict) -> str:
    """The scaling curves as an aligned text table, grouped by sweep."""
    lines = [
        f"xl scaling report — suite={artifact.get('suite')} "
        f"revision={artifact.get('revision')}"
    ]
    by_group: dict[str, list[dict]] = {}
    for record in artifact.get("benchmarks", []):
        group = record.get("params", {}).get("group", "objects")
        by_group.setdefault(group, []).append(record)
    header = (
        f"{'workload':<28} {'|D|':>9} {'|Q|':>4} {'k':>3} "
        f"{'skyline':>8} {'survivors':>10} {'checks':>12} {'total_s':>9}"
    )
    for group in sorted(by_group):
        lines.append(f"-- sweep: {group}")
        lines.append(header)
        for record in by_group[group]:
            params = record["params"]
            counters = record["counters"]
            lines.append(
                f"{record['id']:<28} {params['objects']:>9} "
                f"{params['queries']:>4} {params['attributes']:>3} "
                f"{counters['skyline_count']:>8} "
                f"{counters['survivor_rows']:>10} "
                f"{counters['dominance_checks']:>12} "
                f"{record['timing_s']['p50']:>9.3f}"
            )
            phases = record.get("phases_s", {})
            if phases:
                detail = " ".join(
                    f"{name}={seconds:.3f}s"
                    for name, seconds in phases.items()
                )
                lines.append(f"{'':<28}   {detail}")
    return "\n".join(lines)
