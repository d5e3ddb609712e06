"""Pluggable distance backends behind one small protocol.

A backend knows how to build a resumable single-source expander for the
engine's pool.  Three ship with the engine:

* ``"dijkstra"`` — plain Dijkstra wavefronts
  (:class:`~repro.network.dijkstra.DijkstraExpander`); the default, and
  the only backend whose expanders also support incremental
  nearest-object enumeration;
* ``"astar"`` — goal-directed A* with the Euclidean heuristic
  (:class:`~repro.network.astar.AStarExpander`);
* ``"astar+landmarks"`` — A* guided by a lazily built
  :class:`~repro.network.landmarks.LandmarkHeuristic` (ALT bounds),
  typically the fewest settled nodes on high-detour networks at the
  cost of ``count`` full Dijkstra runs of precomputation;
* ``"ch"`` / ``"hublabel"`` — preprocessed distance oracles
  (:mod:`repro.oracle`): a contraction hierarchy queried by
  bidirectional upward search, or hub labels answering in one merge
  scan.  These backends own a lazily built
  :class:`~repro.oracle.runtime.DistanceOracle` the engine consults
  *before* any expander; their ``make_expander`` returns a plain
  Dijkstra wavefront, which is the online fallback when no usable
  index exists (e.g. right after a network mutation).

Every backend returns *exact* distances; they differ only in how much
network they touch to settle them, which is why the engine's memo can
share entries across backends.  (Oracle answers may differ from online
search in the last floating-point bit on irrational edge lengths —
shortcut weights are pre-summed, so addition associates differently;
see ``docs/preprocessing.md``.)
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.network.astar import AStarExpander
from repro.network.dijkstra import DijkstraExpander
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.landmarks import LandmarkHeuristic
from repro.network.storage import NetworkStore
from repro.obs import tracing
from repro.oracle import build_oracle_index
from repro.oracle.runtime import DistanceOracle
from repro.oracle.store import OracleStore

DEFAULT_BACKEND = "dijkstra"
DEFAULT_LANDMARK_COUNT = 8

ORACLE_BACKEND_NAMES = ("ch", "hublabel")
"""Backends whose distances come from a preprocessed oracle index."""


def mirror_oracle_store(
    index, network: RoadNetwork, store: NetworkStore | None
) -> OracleStore | None:
    """An :class:`OracleStore` sized like the workspace's network store.

    An unstored network means the caller opted out of page accounting
    entirely; the oracle follows suit and returns ``None``.
    """
    if store is None:
        return None
    page_size = store.disk.page_size
    return OracleStore(
        index,
        network,
        page_size=page_size,
        buffer_bytes=store.pool.frame_count * page_size,
    )


@runtime_checkable
class DistanceBackend(Protocol):
    """What the engine needs from a backend: named expander factories."""

    name: str

    def make_expander(self, source: NetworkLocation):
        """A fresh resumable expander rooted at ``source``.

        The returned object must expose ``distance_to(location)`` and a
        monotone ``nodes_settled`` counter.
        """
        ...

    def reset(self) -> None:
        """Drop any derived data invalidated by a network mutation."""
        ...


class DijkstraBackend:
    """Plain Dijkstra wavefronts — the paper's CE substrate."""

    name = "dijkstra"

    def __init__(self, network: RoadNetwork, store: NetworkStore | None = None):
        self.network = network
        self.store = store

    def make_expander(self, source: NetworkLocation) -> DijkstraExpander:
        return DijkstraExpander(self.network, source, store=self.store)

    def reset(self) -> None:  # no derived state
        return None


class AStarBackend:
    """Euclidean-guided A* — the paper's EDC/LBC substrate."""

    name = "astar"

    def __init__(self, network: RoadNetwork, store: NetworkStore | None = None):
        self.network = network
        self.store = store

    def heuristic(self):
        """The consistent heuristic shared by this backend's expanders."""
        return None

    def make_expander(self, source: NetworkLocation) -> AStarExpander:
        return AStarExpander(
            self.network, source, store=self.store, heuristic=self.heuristic()
        )

    def reset(self) -> None:
        return None


class AStarLandmarksBackend(AStarBackend):
    """A* with ALT (landmark) lower bounds, built on first use.

    The landmark tables are precomputation (``count`` full Dijkstra
    runs), so they are shared across every expander the backend makes
    and rebuilt only after a network mutation invalidates them.
    """

    name = "astar+landmarks"

    def __init__(
        self,
        network: RoadNetwork,
        store: NetworkStore | None = None,
        landmark_count: int = DEFAULT_LANDMARK_COUNT,
        landmark_seed: int = 0,
    ):
        super().__init__(network, store)
        self.landmark_count = landmark_count
        self.landmark_seed = landmark_seed
        self._landmarks: LandmarkHeuristic | None = None

    def heuristic(self) -> LandmarkHeuristic:
        if self._landmarks is None:
            # Amortised precomputation shared by every later query; the
            # suppression keeps its Dijkstra runs off whichever query's
            # trace span happened to trigger the build.
            with tracing.suppressed():
                self._landmarks = LandmarkHeuristic(
                    self.network,
                    count=max(1, min(self.landmark_count, self.network.node_count)),
                    seed=self.landmark_seed,
                )
        return self._landmarks

    def reset(self) -> None:
        self._landmarks = None


class ChBackend:
    """Contraction-hierarchy oracle with a Dijkstra online fallback.

    The backend owns a lazily built :class:`DistanceOracle`; the engine
    asks for it via :meth:`oracle` before falling back to the expander
    this backend makes.  The build runs under
    :func:`~repro.obs.tracing.suppressed` so preprocessing cost never
    lands on the query span that happened to trigger it — the same
    amortisation contract as the landmark backend.  A network mutation
    resets the handle; the next query rebuilds against the new graph.
    """

    name = "ch"
    kind = "ch"

    def __init__(self, network: RoadNetwork, store: NetworkStore | None = None):
        self.network = network
        self.store = store
        self._oracle: DistanceOracle | None = None

    def oracle(self) -> DistanceOracle:
        if self._oracle is None:
            with tracing.suppressed():
                index = build_oracle_index(self.network, kind=self.kind)
            self._oracle = DistanceOracle(
                index,
                self.network,
                store=mirror_oracle_store(index, self.network, self.store),
            )
        return self._oracle

    def oracle_if_built(self) -> DistanceOracle | None:
        """The handle without triggering a build (engine peek path)."""
        return self._oracle

    def make_expander(self, source: NetworkLocation) -> DijkstraExpander:
        # Online fallback: when the engine cannot (or must not) answer
        # from the index, distances resolve from a plain wavefront.
        return DijkstraExpander(self.network, source, store=self.store)

    def reset(self) -> None:
        self._oracle = None


class HubLabelBackend(ChBackend):
    """Hub labels on top of the CH: per node pair, one scan of the
    target's label probing the source's cached hub map."""

    name = "hublabel"
    kind = "hublabel"


BACKENDS: dict[str, type] = {
    DijkstraBackend.name: DijkstraBackend,
    AStarBackend.name: AStarBackend,
    AStarLandmarksBackend.name: AStarLandmarksBackend,
    ChBackend.name: ChBackend,
    HubLabelBackend.name: HubLabelBackend,
}

BACKEND_NAMES = tuple(sorted(BACKENDS))


def make_backend(
    name: str,
    network: RoadNetwork,
    store: NetworkStore | None = None,
    landmark_count: int = DEFAULT_LANDMARK_COUNT,
    landmark_seed: int = 0,
) -> DistanceBackend:
    """Instantiate a backend by name (ValueError for unknown names)."""
    cls = BACKENDS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown distance backend {name!r}; choose from {BACKEND_NAMES}"
        )
    if cls is AStarLandmarksBackend:
        return cls(
            network,
            store=store,
            landmark_count=landmark_count,
            landmark_seed=landmark_seed,
        )
    return cls(network, store=store)
