"""A small, mergeable, fixed-memory quantile sketch.

The live insight plane (:mod:`repro.insight.live`) keeps one rolling
latency/settled/page digest per cohort inside the serving hot path, so
the estimator must satisfy three constraints at once:

* **fixed memory** — a cohort that sees ten million queries must not
  hold ten million floats;
* **mergeable** — per-worker or per-shard digests have to combine into
  one without losing the error guarantee (the P² estimator that
  usually fills this niche keeps five markers but two P² sketches
  cannot be merged, so we keep the fixed-memory spirit of P² and trade
  its marker parabola for logarithmic buckets);
* **a documented error bound** — the acceptance test for the whole
  plane checks live sketch quantiles against exact offline aggregation
  over the same events, so the bound is part of the contract.

The design is the standard log-bucketed ("DDSketch-style") scheme:
a value ``v > 0`` lands in bucket ``ceil(log_gamma(v))`` where
``gamma = (1 + alpha) / (1 - alpha)``; the bucket is answered back as
the log-midpoint ``2 * gamma**i / (gamma + 1)``.  Every value in
bucket ``i`` is within relative ``alpha`` of that midpoint, giving the
guarantee:

    For any quantile ``q``, :meth:`QuantileSketch.quantile` returns
    ``x̂`` with ``|x̂ - x| <= alpha * x``, where ``x`` is the exact
    nearest-rank ``q``-quantile of everything inserted — as long as no
    bucket collapse has occurred (``collapsed`` stays ``False``).

Merging adds bucket counts index-by-index, so a merged sketch is
*bit-identical* to the sketch of the concatenated stream — merging
introduces no additional error, which is what makes per-thread or
per-shard digests safe to combine.

Collapse only happens when the dynamic range of inserted values
exceeds ``gamma ** max_buckets`` (about ``e**40`` ≈ 2.4e17 at the
defaults), in which case the *smallest* buckets fold together and only
low quantiles degrade; tail quantiles keep the bound.  Values in
``[0, zero_threshold]`` are counted exactly in a dedicated zero
bucket, so integer counters that are frequently zero stay exact.

Everything here is stdlib-only (``obs``-grade layering) and
JSON-serialisable via :meth:`to_dict` / :meth:`from_dict`.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

DEFAULT_ALPHA = 0.01
DEFAULT_MAX_BUCKETS = 2048
DEFAULT_ZERO_THRESHOLD = 1e-12

#: The quantiles a digest reports by default, everywhere (live hub,
#: offline analyzer, reporters) — one vocabulary so digests line up.
DIGEST_QUANTILES = (0.5, 0.9, 0.99)


def exact_quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile over a sorted list — the offline reference.

    Uses ``rank = ceil(q * n)`` (clamped to ``[1, n]``), the same rank
    definition :meth:`QuantileSketch.quantile` resolves, so sketch and
    exact aggregation are comparable value-for-value.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    rank = min(len(values), max(1, math.ceil(q * len(values))))
    return values[rank - 1]


class QuantileSketch:
    """Mergeable log-bucketed quantile sketch with relative error
    ``alpha`` (see the module docstring for the exact guarantee)."""

    __slots__ = (
        "alpha",
        "_gamma",
        "_log_gamma",
        "zero_threshold",
        "max_buckets",
        "_buckets",
        "_zero_count",
        "count",
        "sum",
        "min",
        "max",
        "collapsed",
    )

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        *,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
        zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if max_buckets < 2:
            raise ValueError(f"max_buckets must be >= 2, got {max_buckets}")
        if zero_threshold < 0.0:
            raise ValueError(
                f"zero_threshold must be >= 0, got {zero_threshold}"
            )
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self.zero_threshold = zero_threshold
        self.max_buckets = max_buckets
        self._buckets: dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.collapsed = False

    # -- inserts -------------------------------------------------------

    def insert(self, value: float, weight: int = 1) -> None:
        """Add one observation (or ``weight`` identical ones)."""
        value = float(value)
        if value < 0.0 or math.isnan(value) or math.isinf(value):
            raise ValueError(
                f"sketch values must be finite and >= 0, got {value}"
            )
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        self.count += weight
        self.sum += value * weight
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.zero_threshold:
            self._zero_count += weight
            return
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + weight
        if len(self._buckets) > self.max_buckets:
            self._collapse()

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.insert(value)

    def _collapse(self) -> None:
        """Fold the lowest buckets together until back under budget.

        Collapsing from the bottom keeps the tail (the quantiles
        operators actually alert on) exact; :attr:`collapsed` records
        that low quantiles are now best-effort.
        """
        while len(self._buckets) > self.max_buckets:
            low, second = sorted(self._buckets)[:2]
            self._buckets[second] += self._buckets.pop(low)
        self.collapsed = True

    # -- queries -------------------------------------------------------

    def _index(self, value: float) -> int:
        """The bucket holding ``value > 0``: ``(gamma**(i-1), gamma**i]``."""
        return math.ceil(math.log(value) / self._log_gamma)

    def _bucket_value(self, index: int) -> float:
        return 2.0 * self._gamma**index / (self._gamma + 1.0)

    def count_at_most(self, threshold: float) -> int:
        """How many values are at or below ``threshold`` snapped up to
        the upper bound of its bucket.

        The bound is less than ``gamma = (1 + alpha) / (1 - alpha)``
        times the threshold (about 1.02x at the default alpha), and the
        count is exact when the threshold sits on a bucket bound.  The
        zero bucket always counts.  After a collapse, thresholds inside
        the folded low range undercount.
        """
        if threshold < 0.0:
            return 0
        count = self._zero_count
        if threshold > self.zero_threshold:
            top = self._index(threshold)
            count += sum(n for i, n in self._buckets.items() if i <= top)
        return count

    def quantile(self, q: float) -> float:
        """The nearest-rank ``q``-quantile, within relative ``alpha``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        if rank <= self._zero_count:
            return 0.0
        seen = self._zero_count
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self._bucket_value(index)
        return self._bucket_value(max(self._buckets))  # pragma: no cover

    def quantiles(
        self, qs: Iterable[float] = DIGEST_QUANTILES
    ) -> dict[str, float]:
        """``{"p50": ..., "p90": ..., "p99": ...}`` in one pass-friendly
        shape for reports."""
        return {_q_label(q): self.quantile(q) for q in qs}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- merging -------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into ``self`` (returns ``self``).

        Bucket-wise addition: the merged sketch equals the sketch of
        the concatenated streams exactly, so the ``alpha`` bound is
        preserved.  Sketches with different ``alpha`` resolve values to
        different bucket boundaries and refuse to merge.
        """
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with alpha {self.alpha} and "
                f"{other.alpha}"
            )
        for index, bucket_count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + bucket_count
        self._zero_count += other._zero_count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.collapsed = self.collapsed or other.collapsed
        if len(self._buckets) > self.max_buckets:
            self._collapse()
        return self

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready snapshot (insight reports embed these)."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "zero_count": self._zero_count,
            "collapsed": self.collapsed,
            "buckets": {str(i): c for i, c in sorted(self._buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QuantileSketch":
        sketch = cls(alpha=float(payload["alpha"]))
        sketch.count = int(payload["count"])
        sketch.sum = float(payload["sum"])
        if sketch.count:
            sketch.min = float(payload["min"])
            sketch.max = float(payload["max"])
        sketch._zero_count = int(payload.get("zero_count", 0))
        sketch.collapsed = bool(payload.get("collapsed", False))
        sketch._buckets = {
            int(index): int(bucket_count)
            for index, bucket_count in payload.get("buckets", {}).items()
        }
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.count == other.count
            and self._zero_count == other._zero_count
            and self._buckets == other._buckets
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
            f"buckets={len(self._buckets)})"
        )


def _q_label(q: float) -> str:
    """``0.5 -> "p50"``, ``0.99 -> "p99"``, ``0.999 -> "p99.9"``."""
    scaled = q * 100.0
    if scaled == int(scaled):
        return f"p{int(scaled)}"
    return f"p{scaled:g}"
