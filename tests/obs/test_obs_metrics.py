"""Metric primitives: counters, gauges, histograms, registry, exposition."""

import math
import pickle

import pytest

from repro.obs import DEFAULT_BUCKETS, Counter, Gauge, Histogram, Registry, render_prometheus


class TestCounter:
    def test_increments_and_rejects_decrease(self):
        counter = Counter("c_total", {})
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_registry_get_or_create_is_idempotent(self):
        registry = Registry()
        assert registry.counter("c_total", engine="batch") is registry.counter(
            "c_total", engine="batch"
        )
        assert registry.counter("c_total", engine="batch") is not registry.counter(
            "c_total", engine="scalar"
        )

    def test_kind_mismatch_raises(self):
        registry = Registry()
        registry.counter("metric")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("metric")


class TestGauge:
    def test_set_and_set_max(self):
        gauge = Gauge("g", {})
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        gauge.set_max(1.0)
        assert gauge.value == 2.0
        gauge.set_max(9.0)
        assert gauge.value == 9.0


class TestHistogram:
    def test_default_buckets_are_fixed_and_sorted(self):
        assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-5)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(100.0)

    def test_observe_counts_and_overflow(self):
        histogram = Histogram("h", {}, bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.total == pytest.approx(55.5)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", {}, bounds=(2.0, 1.0))

    def test_quantile_is_bucket_upper_bound(self):
        histogram = Histogram("h", {}, bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(0.75) == 10.0
        assert histogram.quantile(1.0) == 100.0

    def test_quantile_edge_cases(self):
        empty = Histogram("h", {}, bounds=(1.0,))
        assert math.isnan(empty.quantile(0.5))
        with pytest.raises(ValueError):
            empty.quantile(0.0)
        overflow = Histogram("h", {}, bounds=(1.0,))
        overflow.observe(99.0)
        assert overflow.quantile(0.5) == math.inf


class TestMerge:
    def test_merge_is_exact_however_observations_shard(self):
        values = [10.0 ** (i % 7 - 3) for i in range(40)]
        whole = Registry()
        for value in values:
            whole.histogram("h").observe(value)
            whole.counter("c_total").inc()
        sharded = Registry()
        for start in range(0, 40, 10):
            shard = Registry()
            for value in values[start : start + 10]:
                shard.histogram("h").observe(value)
                shard.counter("c_total").inc()
            sharded.merge(shard.snapshot())
        merged, direct = sharded.snapshot(), whole.snapshot()
        # Integer state (bucket/observation/counter counts) is exactly equal;
        # only the float `sum` is association-order sensitive.
        merged_sum = merged["histograms"][0].pop("sum")
        direct_sum = direct["histograms"][0].pop("sum")
        assert merged == direct
        assert merged_sum == pytest.approx(direct_sum, rel=1e-12)

    def test_merge_gauges_keep_high_water_mark(self):
        left, right = Registry(), Registry()
        left.gauge("g").set(3.0)
        right.gauge("g").set(7.0)
        left.merge(right.snapshot())
        assert left.gauge("g").value == 7.0

    def test_mismatched_bounds_refuse_to_merge(self):
        left, right = Registry(), Registry()
        left.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        right.histogram("h", buckets=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError, match="bounds differ"):
            left.merge(right.snapshot())

    def test_snapshot_is_picklable(self):
        registry = Registry()
        registry.counter("c_total", engine="batch").inc(3)
        registry.histogram("h").observe(0.1)
        snapshot = registry.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot


class TestPrometheusExposition:
    def test_counter_gauge_histogram_render(self):
        registry = Registry()
        registry.counter("repro_requests_total", route="run").inc(3)
        registry.gauge("repro_inflight").set(2)
        histogram = registry.histogram("repro_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE repro_requests_total counter" in lines
        assert 'repro_requests_total{route="run"} 3' in lines
        assert "# TYPE repro_inflight gauge" in lines
        assert "repro_inflight 2" in lines
        assert "# TYPE repro_seconds histogram" in lines
        # Buckets are cumulative and end at +Inf == _count.
        assert 'repro_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_seconds_bucket{le="1"} 2' in lines
        assert 'repro_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_seconds_count 3" in lines
        assert text.endswith("\n")

    def test_multiple_registries_merge_in_render(self):
        left, right = Registry(), Registry()
        left.counter("c_total").inc(1)
        right.counter("c_total").inc(2)
        assert "c_total 3" in render_prometheus(left, right).splitlines()

    def test_label_values_are_escaped(self):
        registry = Registry()
        registry.counter("c_total", path='a"b\\c').inc()
        assert 'path="a\\"b\\\\c"' in render_prometheus(registry)
