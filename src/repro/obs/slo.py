"""Declarative SLOs evaluated as multi-window burn rates.

An :class:`Objective` states a promise ("99% of queries finish within
250ms", "99.9% of queries succeed").  The :class:`SLOMonitor` samples
cumulative ``(good, total)`` pairs from caller-supplied sources — the
service reads latency straight from its latency sketch
(``QuantileSketch.count_at_most``) — and evaluates each objective with
the standard SRE *multi-window burn rate* test:

    burn = bad_fraction / error_budget,   error_budget = 1 - target

A burn of 1.0 spends the budget exactly at the end of the SLO period;
14.4 spends a 30-day budget in 2 days.  An objective is *violating*
when **both** a long window and its short companion exceed the
window's burn threshold — the long window gives significance, the
short one proves the problem is still happening (so alerts reset
quickly once a regression is fixed).

Everything is cumulative-counter arithmetic over an in-memory history,
so the monitor is cheap enough to observe every few seconds and is
fully deterministic under an injected clock, which is how the tests
drive it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, NamedTuple

# (long window, short window, burn threshold) — the classic pairing of
# a significance window with a still-happening window.  Thresholds
# follow the SRE-workbook scaling for a 30-day budget: page fast when
# burning ~2 days' budget per hour, slower when burning ~5x budget.
DEFAULT_WINDOWS: tuple["BurnWindow", ...]


class BurnWindow(NamedTuple):
    """One (long, short) window pair with its burn-rate threshold."""

    long_s: float
    short_s: float
    max_burn: float


DEFAULT_WINDOWS = (
    BurnWindow(long_s=3600.0, short_s=300.0, max_burn=14.4),
    BurnWindow(long_s=21600.0, short_s=1800.0, max_burn=6.0),
)


class Objective:
    """One declarative service-level objective."""

    def __init__(
        self,
        name: str,
        *,
        target: float,
        threshold_s: float | None = None,
        description: str = "",
    ) -> None:
        if not 0.0 < target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {target}")
        self.name = name
        self.target = target
        self.threshold_s = threshold_s
        self.description = description

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "target": self.target,
            "description": self.description,
        }
        if self.threshold_s is not None:
            payload["threshold_s"] = self.threshold_s
        return payload


class _Sample(NamedTuple):
    at: float
    good: float
    total: float


class _Tracked:
    __slots__ = ("objective", "source", "history")

    def __init__(
        self,
        objective: Objective,
        source: Callable[[], tuple[float, float]],
    ) -> None:
        self.objective = objective
        self.source = source
        self.history: list[_Sample] = []


class SLOMonitor:
    """Evaluates objectives as multi-window burn rates over samples.

    ``observe()`` appends one cumulative ``(good, total)`` sample per
    objective; ``report()`` takes a fresh sample implicitly and
    computes, for each window, the burn rate over that window's span
    of history.  History is trimmed to one sample older than the
    longest window, so memory is bounded by the observe cadence.
    """

    def __init__(
        self,
        *,
        windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not windows:
            raise ValueError("at least one burn window is required")
        for window in windows:
            if window.short_s <= 0 or window.long_s < window.short_s:
                raise ValueError(f"malformed window {window}")
        self.windows = tuple(windows)
        self._clock = clock
        self._tracked: dict[str, _Tracked] = {}
        self._lock = threading.Lock()

    def add_objective(
        self,
        objective: Objective,
        source: Callable[[], tuple[float, float]],
    ) -> None:
        """Track ``objective`` against a cumulative ``(good, total)``
        source, sampling it once immediately as the baseline."""
        with self._lock:
            if objective.name in self._tracked:
                raise ValueError(f"objective {objective.name!r} already added")
            tracked = _Tracked(objective, source)
            self._tracked[objective.name] = tracked
        self._sample(tracked)

    def objectives(self) -> list[Objective]:
        with self._lock:
            return [t.objective for t in self._tracked.values()]

    def _sample(self, tracked: _Tracked) -> _Sample:
        good, total = tracked.source()
        sample = _Sample(self._clock(), float(good), float(total))
        horizon = max(w.long_s for w in self.windows)
        with self._lock:
            history = tracked.history
            history.append(sample)
            # Keep exactly one sample older than the horizon so every
            # window always has a baseline to difference against.
            cutoff = sample.at - horizon
            keep = 0
            while keep + 1 < len(history) and history[keep + 1].at <= cutoff:
                keep += 1
            del history[:keep]
        return sample

    def observe(self) -> None:
        """Sample every tracked objective's source once."""
        with self._lock:
            tracked = list(self._tracked.values())
        for entry in tracked:
            self._sample(entry)

    @staticmethod
    def _baseline(history: list[_Sample], since: float) -> _Sample:
        """Newest sample at or before ``since`` (else the oldest)."""
        chosen = history[0]
        for sample in history:
            if sample.at <= since:
                chosen = sample
            else:
                break
        return chosen

    @classmethod
    def _burn(
        cls,
        tracked: _Tracked,
        history: list[_Sample],
        now: _Sample,
        window_s: float,
    ) -> float:
        """Burn rate over the ``window_s`` of history ending at ``now``.

        0.0 when no traffic arrived in the window (no data is not an
        outage; availability burn needs failures, not silence).
        """
        base = cls._baseline(history, now.at - window_s)
        total = now.total - base.total
        if total <= 0:
            return 0.0
        bad_fraction = max(0.0, (total - (now.good - base.good)) / total)
        return bad_fraction / tracked.objective.error_budget

    def burn_rate(
        self, name: str, window_s: float, *, now: _Sample | None = None
    ) -> float:
        """Burn rate for one objective over the trailing ``window_s``."""
        with self._lock:
            tracked = self._tracked[name]
            history = list(tracked.history)
        if now is None:
            now = self._sample(tracked)
            history.append(now)
        return self._burn(tracked, history, now, window_s)

    def report(self) -> dict[str, Any]:
        """Full evaluation of every objective (fresh samples taken)."""
        with self._lock:
            tracked = list(self._tracked.values())
        objectives: list[dict[str, Any]] = []
        for entry in tracked:
            now = self._sample(entry)
            with self._lock:
                history = list(entry.history)
            window_reports: list[dict[str, Any]] = []
            for window in self.windows:
                long_burn = self._burn(entry, history, now, window.long_s)
                short_burn = self._burn(entry, history, now, window.short_s)
                window_violating = (
                    long_burn >= window.max_burn
                    and short_burn >= window.max_burn
                )
                window_reports.append(
                    {
                        "long_s": window.long_s,
                        "short_s": window.short_s,
                        "max_burn": window.max_burn,
                        "long_burn": round(long_burn, 4),
                        "short_burn": round(short_burn, 4),
                        "violating": window_violating,
                    }
                )
            violating = any(w["violating"] for w in window_reports)
            payload = entry.objective.to_dict()
            payload.update(
                {
                    "good": now.good,
                    "total": now.total,
                    "compliance": (
                        round(now.good / now.total, 6) if now.total else 1.0
                    ),
                    "windows": window_reports,
                    "violating": violating,
                }
            )
            objectives.append(payload)
        return {
            "objectives": objectives,
            "violating": any(o["violating"] for o in objectives),
        }
