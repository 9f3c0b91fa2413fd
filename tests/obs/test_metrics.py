"""Tests for counters, gauges, histograms, and the registry."""

import json
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_inc(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_monotone(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_last_value_and_extrema(self):
        g = Gauge("g")
        for v in (3, -1, 7, 2):
            g.set(v)
        assert g.value == 2
        assert g.min == -1 and g.max == 7

    def test_samples_with_timestamps(self):
        g = Gauge("g")
        g.set(1, t=0.0)
        g.set(4, t=0.5)
        g.set(2)  # no timestamp: not sampled
        assert g.samples == [(0.0, 1.0), (0.5, 4.0)]

    def test_samples_disabled(self):
        g = Gauge("g", keep_samples=False)
        g.set(1, t=0.0)
        assert g.samples == []


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("h", buckets=(1, 10, 100))
        for v in (0.5, 1.0, 5, 50, 500, 5000):
            h.observe(v)
        assert h.counts == [2, 1, 1, 2]  # <=1, <=10, <=100, overflow
        assert h.count == 6
        assert h.min == 0.5 and h.max == 5000
        assert h.mean == pytest.approx(sum((0.5, 1, 5, 50, 500, 5000)) / 6)

    def test_unsorted_buckets_are_sorted(self):
        h = Histogram("h", buckets=(10, 1))
        assert h.buckets == (1.0, 10.0)

    def test_empty_mean(self):
        assert Histogram("h", buckets=(1,)).mean == 0.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h", buckets=(1, 2)) is r.histogram("h")

    def test_type_clash_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")

    def test_names_and_contains(self):
        r = MetricsRegistry()
        r.counter("b")
        r.gauge("a")
        assert r.names() == ["a", "b"]
        assert "a" in r and "zz" not in r
        assert len(r) == 2

    def test_to_dict_and_json_roundtrip(self):
        r = MetricsRegistry()
        r.counter("c").inc(2)
        r.gauge("g").set(5, t=1.0)
        r.histogram("h", buckets=(1, 10)).observe(3)
        d = json.loads(r.to_json())
        assert d["c"] == {"type": "counter", "value": 2}
        assert d["g"]["value"] == 5
        assert d["h"]["count"] == 1
        assert d["h"]["buckets"] == [[1.0, 0], [10.0, 1]]

    def test_render_mentions_every_metric(self):
        r = MetricsRegistry()
        r.counter("tasks.retired.GEQRT").inc(7)
        r.histogram("kernel.seconds.GEQRT", buckets=(1,)).observe(0.5)
        text = r.render()
        assert "tasks.retired.GEQRT" in text
        assert "kernel.seconds.GEQRT" in text
        assert "n=1" in text

    def test_json_is_deterministic_under_insertion_order(self):
        def build(order):
            r = MetricsRegistry()
            for name in order:
                r.counter(name).inc()
            return r.to_json()

        names = ["z.last", "a.first", "m.middle"]
        assert build(names) == build(list(reversed(names)))

    def test_json_keys_are_sorted(self):
        r = MetricsRegistry()
        r.counter("zz").inc()
        r.gauge("aa").set(1)
        d = json.loads(r.to_json())
        assert list(d) == sorted(d)
        # nested key order is sorted too, so byte-level diffs are stable
        assert r.to_json() == json.dumps(json.loads(r.to_json()),
                                         indent=1, sort_keys=True)

    def test_histogram_dict_exposes_bucket_edges(self):
        h = Histogram("h", buckets=(10, 1))
        h.observe(5)
        d = h.to_dict()
        assert d["bucket_edges"] == [1.0, 10.0]
        assert d["buckets"] == [[1.0, 0], [10.0, 1]]

    def test_concurrent_counting(self):
        r = MetricsRegistry()
        barrier = threading.Barrier(4)

        def work():
            barrier.wait()
            for _ in range(1000):
                r.counter("n").inc()
                r.histogram("h", buckets=(0.5, 1.0)).observe(0.1)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # get-or-create races must never produce two objects
        assert r.histogram("h").count == 4000
