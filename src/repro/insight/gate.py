"""Shared diff/gate arithmetic for regression detection.

Both gates in the tree — ``repro bench --compare`` over BENCH_
artifacts (:mod:`repro.bench.compare`) and ``repro insight compare``
over telemetry digests (:mod:`repro.insight.analyze`) — answer the
same question ("did this number get worse, beyond what noise
explains?") and must answer it identically, so the arithmetic lives
here once and both import it.  ``insight`` ranks low in the layer DAG
(stdlib + obs only), so ``bench`` reaching down into it is legal;
the reverse would not be.

Exit-code convention, shared by ``repro bench`` and ``repro insight``:

* ``EXIT_OK`` (0)         — no deterministic regressions;
* ``EXIT_REGRESSION`` (1) — at least one gated number regressed;
* ``EXIT_ERROR`` (2)      — the comparison itself could not run
  (missing file, foreign schema, bad flags).
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2


def relative_increase(base: float, current: float) -> float:
    """Relative growth of ``current`` over ``base``; ``inf`` when a
    zero baseline becomes non-zero."""
    if base == 0:
        return float("inf") if current > 0 else 0.0
    return (current - base) / base


def is_regression(
    base: float,
    current: float,
    *,
    threshold: float,
    absolute_floor: float = 0.0,
) -> bool:
    """Noise-aware verdict on one number pair.

    A regression needs **both** legs: relative growth beyond
    ``threshold`` *and* absolute growth beyond ``absolute_floor``.
    The floor is what keeps tiny denominators honest — a latency p50
    moving 0.8 ms → 1.3 ms is +62 % and pure scheduler noise; the same
    ratio on 80 ms → 130 ms is a finding.
    """
    if current - base <= absolute_floor:
        return False
    return relative_increase(base, current) > threshold


def format_growth(base: float, current: float) -> str:
    """``"120 -> 380 (+3.2x)"`` / ``"(+12.5%)"`` / ``"(-100.0%)"`` — the
    attribution suffix both comparators print."""
    growth = relative_increase(base, current)
    if growth == float("inf"):
        factor = "0 -> >0"
    elif growth >= 1.0:
        factor = f"+{1.0 + growth:.1f}x"
    else:
        factor = f"{growth * 100:+.1f}%"
    base_text = _compact(base)
    current_text = _compact(current)
    return f"{base_text} -> {current_text} ({factor})"


def _compact(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"
