"""The named, versioned workload catalogue.

A workload is a frozen recipe: everything that determines its cost
counters (preset, scale, ω, |Q|, seeds, draws, buffer, warm/cold,
backend) is pinned in the dataclass, so two runs of the same suite
produce bit-identical counter sections.  ``SUITE_VERSION`` changes
whenever a workload's recipe changes meaning — the comparator refuses
to gate across suite versions, which is how a deliberate workload
change and a performance regression stay distinguishable.

Suites:

* ``quick`` — the CI gate: AU at 5 % scale, CE/EDC/LBC at |Q| ∈ {2,4},
  one warm-engine point, one closed-loop serving point.  Seconds, not
  minutes.  The committed ``benchmarks/baseline.json`` is its artifact.
* ``full`` — adds the density sweep (CA/NA), |Q| = 8 and a warm EDC
  point.
* ``paper`` / ``paper-quick`` — the grid behind every figure of the
  paper's evaluation (Section 6): a |Q| sweep and an ω sweep on NA plus
  the CA/AU/NA density sweep, CE/EDC/LBC at 10 % scale, five query
  draws per point.  Each distinct point is measured once; the figure
  panels (:mod:`repro.bench.figures`) are views over these records.
* ``ablations`` — the design-choice comparisons: LBC with/without path
  lower bounds, LBC vs LBC-lazy, CE under shrinking buffers, and LBC
  over the Euclidean vs landmark (ALT) engine backends; three draws per
  point.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.datasets.objects import OMEGA_LEVELS
from repro.datasets.presets import DENSITY_ORDER

SUITE_VERSION = 2
"""Bump when any workload recipe below changes meaning.

Version history:

* 1 — cold/warm query grids plus the closed-loop serving point.
* 2 — adds the ``preprocessed`` engine state (oracle backends with the
  index built before the measured repeats) and the ``oracle_*``
  counters to every workload's counter section.
"""

#: Timing repeats per workload (counters must agree across repeats).
DEFAULT_REPEATS = 3

DEFAULT_BUFFER_BYTES = 256 * 1024
"""LRU buffer per paged workspace.

The paper's 1 MiB buffer holds roughly a third of its NA adjacency
pages; 64 frames against our ~160-page NA store (10 % scale) reproduce
that pressure ratio.  A full 1 MiB would cache the scaled-down networks
entirely and hide the eviction behaviour Figures 5-6 measure."""

#: Area of the window query points are drawn from, as a fraction of
#: the network's bounding box (Section 6.1: a 10 % region).
REGION_FRACTION = 0.10
#: Seed of every preset road network the suites build.
NETWORK_SEED = 7
#: Seed of every object extraction the suites make.
OBJECT_SEED = 1


@dataclass(frozen=True)
class QueryWorkload:
    """One single-query measurement point."""

    workload_id: str
    algorithm: str
    network: str
    scale: float
    omega: float
    query_count: int
    warm: bool = False
    query_seed: int = 100
    repeats: int = DEFAULT_REPEATS
    distance_backend: str = "dijkstra"
    preprocessed: bool = False
    """Build the engine's distance oracle before the measured repeats
    (meaningful only with an oracle ``distance_backend``); the repeats
    then measure pure query-time cost of the preprocessed state."""
    trials: int = 1
    """Query draws per repeat, seeded ``query_seed + t``; the record's
    counters and timings are sums over the draws."""
    buffer_bytes: int = DEFAULT_BUFFER_BYTES

    @property
    def kind(self) -> str:
        return "query"

    def params(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class ServiceWorkload:
    """A closed-loop serving run: sequential requests, one worker.

    One worker and batches of one make the request schedule — and
    therefore the counters — deterministic while still exercising the
    full admission/planning/execution path.
    """

    workload_id: str
    algorithm: str
    network: str
    scale: float
    omega: float
    query_count: int
    requests: int = 8
    query_seed: int = 100
    repeats: int = 1
    distance_backend: str = "dijkstra"

    @property
    def kind(self) -> str:
        return "service"

    def params(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


Workload = QueryWorkload | ServiceWorkload


def _query_grid(
    network: str,
    scale: float,
    algorithms: tuple[str, ...],
    query_counts: tuple[int, ...],
    omega: float = 0.5,
) -> list[QueryWorkload]:
    out = []
    for algorithm in algorithms:
        for q in query_counts:
            out.append(
                QueryWorkload(
                    workload_id=(
                        f"query/{algorithm}/{network.lower()}/q{q}/cold"
                    ),
                    algorithm=algorithm,
                    network=network,
                    scale=scale,
                    omega=omega,
                    query_count=q,
                )
            )
    return out


_QUICK: list[Workload] = [
    *_query_grid("AU", 0.05, ("CE", "EDC", "LBC"), (2, 4)),
    QueryWorkload(
        workload_id="query/LBC/au/q4/warm",
        algorithm="LBC",
        network="AU",
        scale=0.05,
        omega=0.5,
        query_count=4,
        warm=True,
    ),
    # The preprocessed engine state: same query point as the cold/warm
    # LBC rows, distances answered from a prebuilt oracle index.
    QueryWorkload(
        workload_id="query/LBC/au/q4/preprocessed",
        algorithm="LBC",
        network="AU",
        scale=0.05,
        omega=0.5,
        query_count=4,
        distance_backend="hublabel",
        preprocessed=True,
    ),
    QueryWorkload(
        workload_id="query/LBC/au/q4/preprocessed-ch",
        algorithm="LBC",
        network="AU",
        scale=0.05,
        omega=0.5,
        query_count=4,
        distance_backend="ch",
        preprocessed=True,
    ),
    ServiceWorkload(
        workload_id="service/LBC/au/q4/closed-loop",
        algorithm="LBC",
        network="AU",
        scale=0.05,
        omega=0.5,
        query_count=4,
        requests=8,
    ),
]

_FULL: list[Workload] = [
    *_QUICK,
    *_query_grid("CA", 0.10, ("CE", "EDC", "LBC"), (4,)),
    *_query_grid("NA", 0.05, ("CE", "EDC", "LBC"), (4,)),
    QueryWorkload(
        workload_id="query/LBC/au/q8/cold",
        algorithm="LBC",
        network="AU",
        scale=0.05,
        omega=0.5,
        query_count=8,
    ),
    QueryWorkload(
        workload_id="query/EDC/au/q4/warm",
        algorithm="EDC",
        network="AU",
        scale=0.05,
        omega=0.5,
        query_count=4,
        warm=True,
    ),
    QueryWorkload(
        workload_id="query/EDC/au/q4/preprocessed",
        algorithm="EDC",
        network="AU",
        scale=0.05,
        omega=0.5,
        query_count=4,
        distance_backend="hublabel",
        preprocessed=True,
    ),
]


# ----------------------------------------------------------------------
# The paper's figure grid and the ablations: cold points at 10 % scale,
# one repeat (the draws are the averaging), deduplicated by recipe.
# ----------------------------------------------------------------------
PAPER_ALGORITHMS = ("CE", "EDC", "LBC")
PAPER_Q_SWEEP = (2, 4, 6, 8, 10, 15)
"""Subsample of the paper's |Q| = 1..15 sweep."""


def _point(
    algorithm: str,
    network: str,
    trials: int,
    query_count: int = 4,
    omega: float = 0.5,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    distance_backend: str = "dijkstra",
) -> QueryWorkload:
    parts = ["query", algorithm, network.lower(), f"q{query_count}", f"w{omega:g}"]
    if buffer_bytes != DEFAULT_BUFFER_BYTES:
        parts.append(f"buf{buffer_bytes // 1024}k")
    if distance_backend != "dijkstra":
        parts.append(distance_backend)
    parts.append("cold")
    return QueryWorkload(
        workload_id="/".join(parts),
        algorithm=algorithm,
        network=network,
        scale=0.10,
        omega=omega,
        query_count=query_count,
        repeats=1,
        trials=trials,
        buffer_bytes=buffer_bytes,
        distance_backend=distance_backend,
    )


def _recipe(workload: Workload) -> tuple:
    """A workload's parameters minus its id: what makes it a point."""
    params = workload.params()
    params.pop("workload_id", None)
    return tuple(sorted(params.items()))


def _unique(workloads) -> list[Workload]:
    """Drop repeated recipes, keeping each point's first occurrence."""
    seen: dict[tuple, Workload] = {}
    for workload in workloads:
        seen.setdefault(_recipe(workload), workload)
    return list(seen.values())


def _paper(
    q_values: tuple[int, ...], omegas: tuple[float, ...], trials: int = 5
) -> list[Workload]:
    sweeps = (
        [("NA", q, 0.5) for q in q_values]
        + [("NA", 4, omega) for omega in omegas]
        + [(network, 4, 0.5) for network in DENSITY_ORDER]
    )
    return _unique(
        _point(algorithm, network, trials, query_count=q, omega=omega)
        for network, q, omega in sweeps
        for algorithm in PAPER_ALGORITHMS
    )


def _ablations(trials: int = 3) -> list[Workload]:
    variants = ("LBC", "LBC-noplb", "LBC-lazy", "CE")
    return _unique(
        [
            *(
                _point(algorithm, network, trials)
                for network in DENSITY_ORDER
                for algorithm in variants
            ),
            *(
                _point("CE", "NA", trials, buffer_bytes=kib * 1024)
                for kib in (64, 128, 256, 1024)
            ),
            *(
                _point(
                    "LBC", network, trials, distance_backend="astar+landmarks"
                )
                for network in DENSITY_ORDER
            ),
        ]
    )


SUITES: dict[str, list[Workload]] = {
    "quick": _QUICK,
    "full": _FULL,
    "paper": _paper(PAPER_Q_SWEEP, OMEGA_LEVELS),
    "paper-quick": _paper((2, 4, 8), (0.05, 0.5, 2.0)),
    "ablations": _ablations(),
}


def suite_workloads(name: str) -> list[Workload]:
    """The workloads of a named suite (``KeyError``-free lookup)."""
    try:
        return list(SUITES[name])
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
