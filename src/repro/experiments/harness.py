"""The experiment harness: configuration, workload cache, trial runner.

One :class:`ExperimentConfig` pins every knob of a measurement point
(network preset, scale, ω, |Q|, trials, buffer size); the harness
builds/caches the workspace, draws ``trials`` independent query-point
sets, runs each algorithm cold-buffered, and averages the stats —
mirroring Section 6.1 ("the performance data reported ... are the
average of ten tests").

Defaults follow the paper where they can and document the substitution
where they cannot:

* page size 4 KiB, query region 10 %, ω = 50 %, |Q| = 4, network NA;
* ``scale`` defaults to 0.1 of the paper's node counts (pure-Python
  substrate), and ``buffer_bytes`` defaults to 256 KiB — the paper's
  1 MiB buffer holds roughly a third of its NA adjacency pages, and
  64 frames against our ~160-page NA store reproduces that pressure
  ratio (a full 1 MiB would cache the scaled-down networks entirely
  and hide the eviction behaviour Figures 5-6 measure).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.core.base import SkylineAlgorithm
from repro.core.query import Workspace
from repro.core.stats import QueryStats
from repro.datasets.objects import extract_objects
from repro.datasets.presets import DEFAULT_SCALE, build_preset
from repro.datasets.queries import select_query_points

DEFAULT_BUFFER_BYTES = 256 * 1024
DEFAULT_TRIALS = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one measurement point."""

    network: str = "NA"
    scale: float = DEFAULT_SCALE
    omega: float = 0.50
    query_count: int = 4
    trials: int = DEFAULT_TRIALS
    region_fraction: float = 0.10
    buffer_bytes: int = DEFAULT_BUFFER_BYTES
    network_seed: int = 7
    workload_seed: int = 1
    query_seed: int = 100
    distance_backend: str = "dijkstra"

    def with_(self, **changes) -> "ExperimentConfig":
        """A copy with some knobs changed (sweep convenience)."""
        return replace(self, **changes)


@dataclass
class AggregateStats:
    """Per-algorithm averages over an experiment's trials."""

    algorithm: str
    trials: int
    candidate_ratio: float
    candidate_count: float
    skyline_count: float
    nodes_settled: float
    network_pages: float
    index_pages: float
    middle_pages: float
    distance_computations: float
    initial_response_s: float
    total_response_s: float
    modeled_initial_s: float
    modeled_total_s: float
    engine_hits: float = 0.0
    engine_misses: float = 0.0
    engine_evictions: float = 0.0

    @classmethod
    def from_stats(cls, runs: Sequence[QueryStats]) -> "AggregateStats":
        if not runs:
            raise ValueError("cannot aggregate zero runs")

        def mean(values: Iterable[float]) -> float:
            values = list(values)
            return sum(values) / len(values)

        return cls(
            algorithm=runs[0].algorithm,
            trials=len(runs),
            candidate_ratio=mean(r.candidate_ratio for r in runs),
            candidate_count=mean(r.candidate_count for r in runs),
            skyline_count=mean(r.skyline_count for r in runs),
            nodes_settled=mean(r.nodes_settled for r in runs),
            network_pages=mean(r.network_pages for r in runs),
            index_pages=mean(r.index_pages for r in runs),
            middle_pages=mean(r.middle_pages for r in runs),
            distance_computations=mean(r.distance_computations for r in runs),
            initial_response_s=mean(r.initial_response_s for r in runs),
            total_response_s=mean(r.total_response_s for r in runs),
            modeled_initial_s=mean(r.modeled_initial_s for r in runs),
            modeled_total_s=mean(r.modeled_total_s for r in runs),
            engine_hits=mean(r.engine_hits for r in runs),
            engine_misses=mean(r.engine_misses for r in runs),
            engine_evictions=mean(r.engine_evictions for r in runs),
        )

    def metric(self, name: str) -> float:
        """Look up a metric by the figure runner's name for it."""
        return getattr(self, name)


class WorkloadCache:
    """Caches built workspaces across the points of a parameter sweep.

    Building NA and extracting thousands of objects takes longer than a
    query; sweeps over |Q| or trials reuse the same workspace, exactly
    as the paper's experiments reuse their datasets.
    """

    def __init__(self) -> None:
        self._networks: dict[tuple, object] = {}
        self._workspaces: dict[tuple, Workspace] = {}

    def network(self, config: ExperimentConfig):
        key = (config.network, config.scale, config.network_seed)
        if key not in self._networks:
            self._networks[key] = build_preset(
                config.network, scale=config.scale, seed=config.network_seed
            )
        return self._networks[key]

    def workspace(self, config: ExperimentConfig) -> Workspace:
        key = (
            config.network,
            config.scale,
            config.network_seed,
            config.omega,
            config.workload_seed,
            config.buffer_bytes,
            config.distance_backend,
        )
        if key not in self._workspaces:
            network = self.network(config)
            objects = extract_objects(
                network, config.omega, seed=config.workload_seed
            )
            self._workspaces[key] = Workspace.build(
                network,
                objects,
                paged=True,
                buffer_bytes=config.buffer_bytes,
                distance_backend=config.distance_backend,
            )
        return self._workspaces[key]

    def clear(self) -> None:
        self._networks.clear()
        self._workspaces.clear()


_shared_cache = WorkloadCache()


def shared_cache() -> WorkloadCache:
    """The process-wide cache used by figure runners and benchmarks."""
    return _shared_cache


def run_experiment(
    config: ExperimentConfig,
    algorithms: Sequence[SkylineAlgorithm],
    cache: WorkloadCache | None = None,
) -> dict[str, AggregateStats]:
    """Run every algorithm over ``config.trials`` query draws.

    Each (trial, algorithm) run starts with a cold buffer; all
    algorithms of a trial see the same query points.  Returns averages
    keyed by algorithm name.
    """
    if cache is None:
        cache = shared_cache()
    workspace = cache.workspace(config)
    network = workspace.network

    collected: dict[str, list[QueryStats]] = {a.name: [] for a in algorithms}
    for trial in range(config.trials):
        queries = select_query_points(
            network,
            config.query_count,
            region_fraction=config.region_fraction,
            seed=config.query_seed + trial,
        )
        reference_ids: list[int] | None = None
        for algorithm in algorithms:
            workspace.reset_io(cold=True)
            result = algorithm.run(workspace, queries)
            collected[algorithm.name].append(result.stats)
            # All algorithms must agree — a free correctness check on
            # every measured point.
            ids = result.object_ids()
            if reference_ids is None:
                reference_ids = ids
            elif ids != reference_ids:
                raise AssertionError(
                    f"algorithm disagreement on {config}: "
                    f"{algorithm.name} returned {len(ids)} points, "
                    f"expected {len(reference_ids)}"
                )
    return {
        name: AggregateStats.from_stats(runs) for name, runs in collected.items()
    }
