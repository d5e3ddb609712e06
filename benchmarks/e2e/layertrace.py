"""Outside-in layer timing for the end-to-end benchmark.

The benchmark's traced run wraps the public entry points of every
layer (named after the package that owns it) with a timing shim and
replays a pass of the workload's op stream.  Nothing inside the
program changes: the shims sit on the class attribute, or on every
module binding a caller resolves (``from x import f`` copies ``f`` into
the importing module, so each copy is patched), and :meth:`LayerTrace.
restore` puts every original object back.

Each call becomes one span: entry-point name, thread, start, end, the
enclosing span on the same thread and the client op that was running.
Generator entry points (``RTree.best_first`` and friends) are timed on
every ``next()``, because that is when their body runs.  A span's self
time is its duration minus the time its child spans on the same thread
cover; a layer's self time is the sum over its spans.  Callbacks a
layer makes into its caller (an R-tree ``prune`` closure, say) are not
entry points, so their time stays with the layer that called them.

Entry points are named by dotted path and resolved at install time.
One that no longer exists is skipped and listed under ``missing`` in
the trace file, so the benchmark keeps measuring code that moved on.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from array import array

#: layer -> entry points, as ``module:Class.method`` or ``module:function``.
#: A function entry point is patched on every ``repro`` module binding it.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "service": (
        "repro.service.service:QueryService.submit",
        "repro.service.service:QueryService.mutate",
        "repro.service.service:QueryService._process",
    ),
    "batching": (
        "repro.service.batching:BatchPlanner.plan",
        "repro.service.batching:execute_plan",
    ),
    "core": (
        "repro.core.base:SkylineAlgorithm.run",
        "repro.core.query:Workspace.add_object",
        "repro.core.query:Workspace.remove_object",
        "repro.core.query:Workspace.update_edge_length",
    ),
    "engine": tuple(
        f"repro.engine.engine:DistanceEngine.{name}"
        for name in (
            "distance",
            "distance_via",
            "record",
            "distances",
            "matrix",
            "matrix_block",
            "vector",
            "vectors",
            "vectors_block",
            "astar_expander",
            "ine_expander",
            "oracle_distance",
            "ensure_oracle",
            "invalidate",
            "invalidate_network",
            "clear",
        )
    ),
    # Only what other layers call: the expanders' internal steps would
    # add spans, not information.
    "network": (
        "repro.network.dijkstra:DijkstraExpander.distance_to",
        "repro.network.dijkstra:DijkstraExpander.next_nearest_object",
        "repro.network.astar:AStarExpander.search_toward",
        "repro.network.astar:AStarExpander.distance_to",
        "repro.network.astar:LowerBoundSearch.expand_step",
    ),
    "oracle": (
        "repro.oracle.runtime:DistanceOracle.distance",
        "repro.oracle.runtime:DistanceOracle.node_distance",
    ),
    "storage": ("repro.storage.buffer:BufferPool.fetch",),
    "index": (
        "repro.index.rtree:RTree.search",
        "repro.index.rtree:RTree.traverse",
        "repro.index.rtree:RTree.all_entries",
        "repro.index.rtree:RTree.best_first",
        "repro.index.rtree:RTree.insert_point",
        "repro.index.rtree:RTree.delete_point",
        "repro.index.bptree:BPlusTree.search",
        "repro.index.bptree:BPlusTree.insert",
        "repro.index.bptree:BPlusTree.delete",
    ),
    "columnar": ("repro.columnar.kernels:*",),
    "obs": (
        "repro.obs.tracing:Tracer.finish",
        "repro.insight.live:InsightHub.observe",
        "repro.service.metrics:LatencyRecorder.record",
        "repro.obs.metrics:Histogram.observe",
        "repro.obs.slowlog:SlowQueryLog.offer",
        "repro.obs.recorder:FlightRecorder.record",
        "repro.obs.recorder:InFlightTable.register",
        "repro.obs.recorder:InFlightTable.deregister",
    ),
}

LAYERS = tuple(ENTRY_POINTS)

#: Calls that block on another worker rather than work.  Two workers
#: serving one fan-out op queue on each other's query-point keys; were
#: that wait counted as service self time, the same wall-clock interval
#: would be attributed twice.  Kept out of every layer, reported alone.
WAIT_POINTS = ("repro.service.service:QueryService._acquire_keys",)
WAIT = "wait"


def _resolve(spec: str) -> list[tuple[str, object, str, object]]:
    """``(span name, owner, attribute, original)`` for one entry point.

    Raises ``ImportError``/``AttributeError`` when the target is gone.
    """
    module_name, _, path = spec.partition(":")
    module = importlib.import_module(module_name)
    if path == "*":
        names = [
            name
            for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module_name and not name.startswith("_")
        ]
        return [
            target for name in names for target in _function_bindings(module, name)
        ]
    if "." in path:
        class_name, attr = path.split(".")
        owner = getattr(module, class_name)
        if attr not in owner.__dict__:
            raise AttributeError(f"{class_name} defines no {attr}")
        return [(f"{class_name}.{attr}", owner, attr, owner.__dict__[attr])]
    return _function_bindings(module, path)


def _function_bindings(module, name: str) -> list[tuple[str, object, str, object]]:
    fn = getattr(module, name)
    span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
    return [
        (span_name, mod, attr, fn)
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name.split(".")[0] == "repro" and mod is not None
        for attr, value in list(vars(mod).items())
        if value is fn
    ]


class _ThreadSpans:
    """One thread's spans in entry order, so parents precede children.

    ``meta`` holds (name id, parent index, op) and ``times`` holds
    (start, end) per span; flat arrays keep a span at 40 bytes.
    """

    __slots__ = ("index", "meta", "times", "stack")

    def __init__(self, index: int) -> None:
        self.index = index
        self.meta = array("l")
        self.times = array("d")
        self.stack: list[int] = []

    def __len__(self) -> int:
        return len(self.times) // 2


class LayerTrace:
    """Installs the timing shims, collects spans, computes self time.

    Set :attr:`op` to the index of the client op in progress (``-1``
    between ops); spans opened meanwhile are kept in the file but left
    out of the per-layer sums.
    """

    def __init__(self) -> None:
        self.op = -1
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._names: list[str] = []
        self._layer_of: list[str] = []
        # (owner, attribute, original, shim), resolved on first install
        self._targets: list[tuple[object, str, object, object]] | None = None
        self.missing: list[str] = []

    # -- install / restore ---------------------------------------------

    def install(self) -> "LayerTrace":
        """Patch every entry point; cheap to repeat after :meth:`restore`."""
        if self._targets is None:
            self._targets = []
            groups = [(layer, ENTRY_POINTS[layer]) for layer in LAYERS]
            for layer, specs in groups + [(WAIT, WAIT_POINTS)]:
                for spec in specs:
                    try:
                        resolved = _resolve(spec)
                    except (ImportError, AttributeError):
                        self.missing.append(spec)
                        continue
                    for span_name, owner, attr, original in resolved:
                        shim = self._wrap(original, self._name_id(span_name, layer))
                        self._targets.append((owner, attr, original, shim))
        for owner, attr, _, shim in self._targets:
            setattr(owner, attr, shim)
        return self

    def restore(self) -> None:
        for owner, attr, original, _ in reversed(self._targets or ()):
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _name_id(self, span_name: str, layer: str) -> int:
        if span_name not in self._names:
            self._names.append(span_name)
            self._layer_of.append(layer)
        return self._names.index(span_name)

    def _new_thread(self) -> _ThreadSpans:
        with self._lock:
            spans = _ThreadSpans(len(self._threads))
            self._threads.append(spans)
        self._local.spans = spans
        return spans

    def _wrap(self, fn, name_id: int):
        perf = time.perf_counter
        local = self._local
        this = self

        # Runs on every call into a layer (tens of thousands per NA
        # query), hence the flat bookkeeping.
        def timed(callee, *args, **kwargs):
            try:
                spans = local.spans
            except AttributeError:
                spans = this._new_thread()
            stack = spans.stack
            times = spans.times
            index = len(times)
            spans.meta.extend((name_id, stack[-1] if stack else -1, this.op))
            stack.append(index)
            times.append(perf())
            times.append(0.0)
            try:
                return callee(*args, **kwargs)
            finally:
                times[index + 1] = perf()
                stack.pop()

        def wrapper(*args, **kwargs):
            return timed(fn, *args, **kwargs)

        def generator_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = timed(next, inner)
                except StopIteration:
                    return
                yield item

        shim = generator_wrapper if inspect.isgeneratorfunction(fn) else wrapper
        shim.__wrapped__ = fn
        return shim

    # -- analysis --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], int]:
        """Per-name self seconds and call counts over spans inside ops."""
        self_s = [0.0] * len(self._names)
        calls = [0] * len(self._names)
        spans_total = 0
        for spans in self._threads:
            count = len(spans)
            spans_total += count
            meta, times = spans.meta, spans.times
            child = array("d", bytes(8 * count))
            for i in range(count - 1, -1, -1):
                duration = times[2 * i + 1] - times[2 * i]
                name_id, parent, op = meta[3 * i], meta[3 * i + 1], meta[3 * i + 2]
                if parent >= 0:
                    child[parent // 2] += duration
                if op >= 0:
                    self_s[name_id] += duration - child[i]
                    calls[name_id] += 1
        names = self._names
        return dict(zip(names, self_s)), dict(zip(names, calls)), spans_total

    def summary(self, op_wall_s: float) -> dict:
        """Per-layer self time, call counts and the unattributed share."""
        by_name, calls, spans_total = self.self_times()
        by_layer = {layer: 0.0 for layer in LAYERS + (WAIT,)}
        for name, seconds in by_name.items():
            by_layer[self._layer_of[self._names.index(name)]] += seconds
        wait = by_layer.pop(WAIT)
        attributed = sum(by_layer.values())
        return {
            "op_wall_s": op_wall_s,
            "self_s_by_layer": by_layer,
            "wait_s": wait,
            "self_s_by_name": by_name,
            "calls_by_name": calls,
            "unattributed_s": op_wall_s - attributed,
            "unattributed_frac": (
                1.0 - attributed / op_wall_s if op_wall_s > 0 else 0.0
            ),
            "spans": spans_total,
        }

    def write(self, path: str, meta: dict, ops: list[dict], summary: dict,
              max_spans: int = 250_000) -> None:
        """Write the spans once, as parallel columns (see README).

        Spans of whole ops are written in op order until ``max_spans``;
        the summary always covers every span.
        """
        per_op: dict[int, int] = {}
        for spans in self._threads:
            for i in range(len(spans)):
                op = spans.meta[3 * i + 2]
                per_op[op] = per_op.get(op, 0) + 1
        written, last_op = 0, -1
        for op in sorted(per_op):
            if op >= 0 and written + per_op[op] > max_spans:
                break
            written += per_op[op]
            last_op = op
        keys = ("name", "thread", "start", "end", "parent", "op")
        columns: dict[str, list] = {key: [] for key in keys}
        for spans in self._threads:
            renumber: dict[int, int] = {}
            for i in range(len(spans)):
                name_id, parent, op = spans.meta[3 * i:3 * i + 3]
                if op > last_op:
                    continue
                renumber[2 * i] = len(columns["name"])
                columns["name"].append(name_id)
                columns["thread"].append(spans.index)
                columns["start"].append(round(spans.times[2 * i] - self.origin, 7))
                columns["end"].append(round(spans.times[2 * i + 1] - self.origin, 7))
                columns["parent"].append(renumber.get(parent, -1))
                columns["op"].append(op)
        document = {
            "schema": "repro-e2e-trace",
            "version": 1,
            **meta,
            "layers": list(LAYERS),
            "names": list(self._names),
            "name_layer": list(self._layer_of),
            "missing": list(self.missing),
            "spans_written": len(columns["name"]),
            "spans_dropped": summary["spans"] - len(columns["name"]),
            "ops": [op for op in ops if op["op"] <= last_op],
            "summary": summary,
            "spans": columns,
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
