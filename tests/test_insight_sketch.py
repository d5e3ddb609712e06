"""QuantileSketch: the documented error bound, exact merging, threshold
counts, bounded memory under collapse, and JSON round-trips."""

from __future__ import annotations

import json
import random

import pytest

from repro.insight.sketch import (
    DEFAULT_ALPHA,
    QuantileSketch,
    exact_quantile,
)

QUANTILES = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


def _assert_within_alpha(sketch, values, alpha):
    ordered = sorted(values)
    for q in QUANTILES:
        exact = exact_quantile(ordered, q)
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) <= alpha * exact + 1e-12, (
            f"q={q}: |{estimate} - {exact}| > {alpha} * {exact}"
        )


class TestErrorBound:
    """|estimate - exact| <= alpha * exact — the module's contract."""

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_uniform_values(self, alpha):
        rng = random.Random(42)
        values = [rng.uniform(0.0005, 2.0) for _ in range(5000)]
        sketch = QuantileSketch(alpha)
        sketch.extend(values)
        _assert_within_alpha(sketch, values, alpha)

    def test_heavy_tailed_values(self):
        # Latency-like: most tiny, a few enormous — the regime the
        # log-bucketed scheme is built for.
        rng = random.Random(7)
        values = [rng.lognormvariate(-5.0, 2.0) for _ in range(5000)]
        sketch = QuantileSketch()
        sketch.extend(values)
        _assert_within_alpha(sketch, values, DEFAULT_ALPHA)

    def test_integer_counter_values(self):
        rng = random.Random(3)
        values = [float(rng.randint(0, 500)) for _ in range(2000)]
        sketch = QuantileSketch()
        sketch.extend(values)
        _assert_within_alpha(sketch, values, DEFAULT_ALPHA)

    def test_zeros_are_exact(self):
        sketch = QuantileSketch()
        sketch.extend([0.0] * 90 + [1.0] * 10)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(0.9) == 0.0
        assert abs(sketch.quantile(0.95) - 1.0) <= DEFAULT_ALPHA

    def test_mean_min_max_are_exact(self):
        values = [0.25, 0.5, 1.0, 4.0]
        sketch = QuantileSketch()
        sketch.extend(values)
        assert sketch.mean == pytest.approx(sum(values) / len(values))
        assert sketch.min == 0.25
        assert sketch.max == 4.0
        assert sketch.count == 4

    def test_empty_sketch_answers_zero(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0


class TestMerge:
    def test_merge_equals_sketch_of_concatenated_stream(self):
        # The stronger property behind the bound: bucket-wise merge is
        # *exact*, so shard digests combine with zero added error.
        rng = random.Random(11)
        a_values = [rng.lognormvariate(-4.0, 1.5) for _ in range(1200)]
        b_values = [rng.uniform(0.0, 0.5) for _ in range(800)]
        a = QuantileSketch()
        a.extend(a_values)
        b = QuantileSketch()
        b.extend(b_values)
        combined = QuantileSketch()
        combined.extend(a_values + b_values)
        assert a.merge(b) == combined
        for q in QUANTILES:
            assert a.quantile(q) == combined.quantile(q)

    def test_merged_sketch_keeps_the_bound(self):
        rng = random.Random(13)
        shards, everything = [], []
        for _ in range(4):
            values = [rng.uniform(0.001, 1.0) for _ in range(500)]
            sketch = QuantileSketch()
            sketch.extend(values)
            shards.append(sketch)
            everything.extend(values)
        merged = shards[0]
        for other in shards[1:]:
            merged.merge(other)
        _assert_within_alpha(merged, everything, DEFAULT_ALPHA)

    def test_alpha_mismatch_refuses_to_merge(self):
        with pytest.raises(ValueError, match="alpha"):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))


class TestCountAtMost:
    """The latency SLO's good count: values at or under the threshold
    snapped up to its bucket's bound.  The bucket holding 1.0 is
    ``(1/gamma, 1.0]`` exactly, since ``log(1.0) == 0``."""

    def test_exact_at_a_bucket_bound(self):
        sketch = QuantileSketch()
        sketch.extend([0.5, 0.99, 1.0, 1.005, 1.5, 3.0])
        assert sketch.count_at_most(1.0) == 3

    def test_threshold_snaps_up_to_its_bucket_bound(self):
        # 0.995 shares 1.0's bucket, so 1.0 counts as good; the bound it
        # snaps to stays under gamma times the threshold.
        sketch = QuantileSketch()
        sketch.extend([0.5, 0.99, 1.0, 1.005])
        assert sketch.count_at_most(0.995) == 3
        gamma = (1.0 + DEFAULT_ALPHA) / (1.0 - DEFAULT_ALPHA)
        assert 1.0 < 0.995 * gamma

    def test_threshold_beyond_every_value_counts_everything(self):
        sketch = QuantileSketch()
        sketch.extend([0.001, 0.2, 5.0])
        assert sketch.count_at_most(99.0) == 3
        assert sketch.count_at_most(-1.0) == 0

    def test_zero_bucket_is_exact(self):
        sketch = QuantileSketch()
        sketch.extend([0.0] * 4 + [0.5] * 2)
        assert sketch.count_at_most(0.0) == 4
        assert sketch.count_at_most(0.1) == 4
        assert sketch.count_at_most(0.5) == 6

    def test_empty_sketch_counts_nothing(self):
        assert QuantileSketch().count_at_most(1.0) == 0

    def test_merge_equals_concatenation(self):
        rng = random.Random(17)
        a_values = [rng.lognormvariate(-4.0, 1.5) for _ in range(600)]
        b_values = [rng.uniform(0.0, 0.5) for _ in range(400)]
        a, b, combined = QuantileSketch(), QuantileSketch(), QuantileSketch()
        a.extend(a_values)
        b.extend(b_values)
        combined.extend(a_values + b_values)
        a.merge(b)
        for threshold in (0.0, 0.001, 0.01, 0.1, 0.25, 1.0, 10.0):
            assert a.count_at_most(threshold) == combined.count_at_most(
                threshold
            )


class TestBoundedMemory:
    def test_collapse_keeps_buckets_bounded_and_tail_exactish(self):
        sketch = QuantileSketch(0.01, max_buckets=64)
        # A geometric ramp spanning ~700 distinct buckets at alpha=0.01.
        values = [1.05**i for i in range(300)]
        sketch.extend(values)
        assert len(sketch._buckets) <= 64
        assert sketch.collapsed
        # Collapse folds the *lowest* buckets: the tail stays in-bound.
        exact_p99 = exact_quantile(sorted(values), 0.99)
        assert abs(sketch.quantile(0.99) - exact_p99) <= 0.01 * exact_p99

    def test_no_collapse_within_range(self):
        sketch = QuantileSketch()
        sketch.extend([0.001 * i for i in range(1, 2000)])
        assert not sketch.collapsed


class TestValidation:
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_unsketchable_values(self, bad):
        with pytest.raises(ValueError):
            QuantileSketch().insert(bad)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            QuantileSketch(alpha)

    def test_rejects_bad_quantile(self):
        sketch = QuantileSketch()
        sketch.insert(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            QuantileSketch().insert(1.0, weight=0)


class TestSerialisation:
    def test_json_round_trip_preserves_every_answer(self):
        rng = random.Random(5)
        sketch = QuantileSketch()
        sketch.extend(rng.uniform(0.0, 3.0) for _ in range(700))
        payload = json.loads(json.dumps(sketch.to_dict()))
        revived = QuantileSketch.from_dict(payload)
        assert revived == sketch
        for q in QUANTILES:
            assert revived.quantile(q) == sketch.quantile(q)
        assert revived.mean == sketch.mean
        assert revived.min == sketch.min
        assert revived.max == sketch.max

    def test_empty_round_trip(self):
        revived = QuantileSketch.from_dict(QuantileSketch().to_dict())
        assert revived.count == 0
        assert revived.quantile(0.9) == 0.0


class TestExactQuantileReference:
    def test_nearest_rank_definition(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert exact_quantile(values, 0.0) == 1.0
        assert exact_quantile(values, 0.25) == 1.0
        assert exact_quantile(values, 0.5) == 2.0
        assert exact_quantile(values, 0.75) == 3.0
        assert exact_quantile(values, 1.0) == 4.0
        assert exact_quantile([], 0.5) == 0.0
