"""Live insight hub: rolling per-cohort digests inside the service.

The offline analyzer answers questions about logs that already exist;
the :class:`InsightHub` answers the same questions about the queries
finishing *right now*.  :meth:`QueryService._finish
<repro.service.service.QueryService>` hands every finished query's
:class:`~repro.obs.events.Completion` to :meth:`InsightHub.observe`;
``GET /insightz`` serves :meth:`InsightHub.report`, and the service
bridges headline numbers into ``/metricsz`` gauges.  The hub's
``completed`` latency sketches are also the service's only latency
aggregator: ``/statsz`` percentiles and the latency SLO read their
merge (:meth:`InsightHub.merged_latency`).

Memory is fixed by construction: one :class:`~repro.insight.sketch.
QuantileSketch` per (cohort × tracked signal), and cohort cardinality
is bounded by the |Q| bucketing (see :mod:`repro.insight.cohort`).
The hot-path cost of one ``observe`` is a few dict lookups and sketch
inserts under one lock — the overhead benchmark in
``benchmarks/test_bench_obs.py`` holds the whole plane under 5 %.

Agreement with the offline plane is a tested contract: digests here
use the same cohort keys and the same nearest-rank quantile definition
as :func:`repro.insight.analyze.summarize_events`, so live quantiles
match exact offline aggregation within the sketch's ``alpha``.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.insight.cohort import cohort_key
from repro.insight.sketch import DEFAULT_ALPHA, QuantileSketch
from repro.obs.events import Completion

LIVE_SCHEMA = "repro-insight-live"
LIVE_SCHEMA_VERSION = 1

#: Counter signals the hub digests per cohort, beyond latency.
#: ``page_misses`` is derived: the sum of every ``*_pages`` counter
#: (network/index/middle/oracle buffer pools), i.e. physical reads the
#: query charged anywhere in the storage stack.
TRACKED_COUNTERS = ("nodes_settled", "page_misses")

_PAGES_SUFFIX = "_pages"


class _CohortDigests:
    """The rolling sketches of one cohort (guarded by the hub lock)."""

    __slots__ = ("outcome", "count", "latency", "counters")

    def __init__(self, alpha: float, outcome: str) -> None:
        self.outcome = outcome
        self.count = 0
        self.latency = QuantileSketch(alpha)
        self.counters = {name: QuantileSketch(alpha) for name in TRACKED_COUNTERS}


class InsightHub:
    """Thread-safe rolling cohort digests for the serving hot path."""

    def __init__(
        self,
        *,
        alpha: float = DEFAULT_ALPHA,
        on_new_cohort: Callable[[str], None] | None = None,
    ) -> None:
        self.alpha = alpha
        self._lock = threading.Lock()
        self._cohorts: dict[str, _CohortDigests] = {}
        self._observed = 0
        self._on_new_cohort = on_new_cohort

    # -- hot path ------------------------------------------------------

    def observe(self, record: Completion) -> str:
        """Fold one finished query into its cohort's digests.

        Returns the cohort key (callers bridge it into metric labels).
        """
        key = cohort_key(
            record.algorithm,
            record.engine_backend,
            record.query_count,
            record.outcome,
        )
        counters = record.counters
        settled = float(counters.get("nodes_settled", 0) or 0)
        pages = 0.0
        for name, value in counters.items():
            if name.endswith(_PAGES_SUFFIX) and isinstance(value, (int, float)):
                pages += float(value)
        created = False
        with self._lock:
            digests = self._cohorts.get(key)
            if digests is None:
                digests = _CohortDigests(self.alpha, record.outcome)
                self._cohorts[key] = digests
                created = True
            digests.count += 1
            self._observed += 1
            digests.latency.insert(max(0.0, float(record.latency_s)))
            digests.counters["nodes_settled"].insert(max(0.0, settled))
            digests.counters["page_misses"].insert(max(0.0, pages))
        if created and self._on_new_cohort is not None:
            # Outside the lock: metric registration takes its own locks.
            self._on_new_cohort(key)
        return key

    # -- read side -----------------------------------------------------

    @property
    def observed(self) -> int:
        with self._lock:
            return self._observed

    def cohort_keys(self) -> list[str]:
        with self._lock:
            return sorted(self._cohorts)

    def cohort_count_of(self, key: str) -> int:
        with self._lock:
            digests = self._cohorts.get(key)
            return digests.count if digests else 0

    def latency_quantile(self, key: str, q: float) -> float:
        """One cohort's latency quantile (0.0 for unknown cohorts)."""
        with self._lock:
            digests = self._cohorts.get(key)
            if digests is None:
                return 0.0
            return digests.latency.quantile(q)

    def merged_latency(self, outcome: str | None = None) -> QuantileSketch:
        """The latency digests of every cohort (or of every cohort with
        ``outcome``) merged into one sketch.

        Merging is exact (bucket-wise), so this equals the sketch of
        every latency those cohorts observed — the service-wide rollup.
        """
        merged = QuantileSketch(self.alpha)
        with self._lock:
            for digests in self._cohorts.values():
                if outcome is None or digests.outcome == outcome:
                    merged.merge(digests.latency)
        return merged

    def report(self) -> dict:
        """The ``/insightz`` payload: one digest block per cohort.

        The per-cohort shape mirrors the offline analyzer's
        ``latency_s`` / ``counters`` blocks so the two planes read the
        same; ``alpha`` documents the quantile error bound and
        ``collapsed`` flags any cohort whose low quantiles degraded.
        """
        with self._lock:
            cohorts = {
                key: {
                    "count": digests.count,
                    "latency_s": {
                        **digests.latency.quantiles(),
                        "mean": digests.latency.mean,
                        "max": digests.latency.max if digests.count else 0.0,
                    },
                    "counters": {
                        name: {
                            **sketch.quantiles(),
                            "mean": sketch.mean,
                            "max": sketch.max if sketch.count else 0.0,
                        }
                        for name, sketch in digests.counters.items()
                    },
                    "collapsed": digests.latency.collapsed
                    or any(s.collapsed for s in digests.counters.values()),
                }
                for key, digests in sorted(self._cohorts.items())
            }
            observed = self._observed
        return {
            "schema": LIVE_SCHEMA,
            "schema_version": LIVE_SCHEMA_VERSION,
            "alpha": self.alpha,
            "observed": observed,
            "cohorts": cohorts,
        }
