"""Property test: ``SimStats`` serialization round trips losslessly.

``SimStats.to_dict`` is the persistence boundary — experiment results,
golden fixtures and ``RunResult`` files all flow through it — so the
round trip must be exact for *every* reachable shape, including the
three-way ``faults`` distinction (absent vs attached-but-zero vs
populated) and the optional ``metrics`` registry.  200 seeded random
instances exercise the space; a handful of directed cases pin the
edge shapes explicitly.
"""

import json
import random

import pytest

from repro.observability.metrics import (
    DEFAULT_BOUNDS,
    Histogram,
    MetricsRegistry,
)
from repro.sim.stats import FaultStats, SimStats, WindowedBandwidth

FAULT_FIELDS = [field for field in FaultStats.__dataclass_fields__
                if field != "degraded_mode"]

METRIC_NAMES = ["gc.collections", "parity.writes", "qos.admitted",
                "fault.recovered", "blocks.retired"]
LABEL_NAMES = ["chip", "tenant", "ftl", "phase"]


def random_labels(rng):
    return {name: rng.choice(["0", "3", "rps", "warmup", "tenant-a"])
            for name in rng.sample(LABEL_NAMES, rng.randint(0, 2))}


def random_metrics(rng):
    registry = MetricsRegistry()
    for _ in range(rng.randint(1, 6)):
        registry.counter(rng.choice(METRIC_NAMES),
                         **random_labels(rng)).inc(rng.randrange(1000))
    for _ in range(rng.randint(0, 3)):
        registry.gauge(rng.choice(METRIC_NAMES),
                       **random_labels(rng)).set(rng.uniform(-10, 1e6))
    for _ in range(rng.randint(0, 3)):
        bounds = DEFAULT_BOUNDS if rng.random() < 0.5 \
            else tuple(sorted(rng.sample(range(1, 200), 3)))
        histogram = registry.histogram(rng.choice(METRIC_NAMES),
                                       bounds=bounds,
                                       **random_labels(rng))
        for _ in range(rng.randrange(20)):
            histogram.observe(rng.uniform(0, 256))
    return registry


def random_faults(rng):
    faults = FaultStats()
    for field in rng.sample(FAULT_FIELDS, rng.randint(0, 5)):
        setattr(faults, field, rng.randrange(100))
    faults.degraded_mode = rng.random() < 0.2
    return faults


def random_stats(seed):
    rng = random.Random(seed)
    stats = SimStats(
        page_size=rng.choice([512, 2048, 4096, 16384]),
        bandwidth_window=rng.choice([0.01, 0.05, 0.5]),
        completed_reads=rng.randrange(10_000),
        completed_writes=rng.randrange(10_000),
        read_pages=rng.randrange(50_000),
        written_pages=rng.randrange(50_000),
        buffer_read_hits=rng.randrange(5_000),
        first_arrival=None if rng.random() < 0.1 else rng.uniform(0, 1),
        last_completion=rng.uniform(0, 100),
        read_latencies=[rng.uniform(0, 0.01)
                        for _ in range(rng.randrange(20))],
        write_latencies=[rng.uniform(0, 0.01)
                         for _ in range(rng.randrange(20))],
    )
    for _ in range(rng.randrange(50)):
        stats.write_bandwidth.record(rng.uniform(0, 10),
                                     rng.randrange(1, 1 << 20))
    shape = rng.random()
    if shape < 0.25:
        pass  # faults absent — the fault-free historical shape
    elif shape < 0.4:
        stats.faults = FaultStats()  # attached but all zero
    else:
        stats.faults = random_faults(rng)
    if rng.random() < 0.5:
        stats.metrics = random_metrics(rng)
    return stats


@pytest.mark.parametrize("seed", range(200))
def test_roundtrip_is_lossless(seed):
    stats = random_stats(seed)
    data = stats.to_dict()

    # the snapshot is genuinely JSON-safe and deterministic
    encoded = json.dumps(data, sort_keys=True)
    restored = SimStats.from_dict(json.loads(encoded))

    assert restored.to_dict() == data
    assert json.dumps(restored.to_dict(), sort_keys=True) == encoded

    # structural equality beyond the dict projection
    assert restored.write_bandwidth == stats.write_bandwidth
    assert (restored.faults is None) == (stats.faults is None)
    if stats.faults is not None:
        assert restored.faults.to_dict() == stats.faults.to_dict()
    assert (restored.metrics is None) == (stats.metrics is None)
    if stats.metrics is not None:
        assert restored.metrics == stats.metrics

    # derived quantities survive the trip
    assert restored.completed_requests == stats.completed_requests
    assert restored.elapsed == stats.elapsed
    assert restored.iops() == stats.iops()


def test_absent_faults_key_stays_absent():
    stats = SimStats()
    data = stats.to_dict()
    assert "faults" not in data and "metrics" not in data
    assert SimStats.from_dict(data).faults is None


def test_zeroed_faults_stay_attached():
    stats = SimStats(faults=FaultStats())
    restored = SimStats.from_dict(stats.to_dict())
    assert restored.faults is not None
    assert restored.faults.to_dict() == FaultStats().to_dict()


def test_reserved_label_characters_rejected():
    registry = MetricsRegistry()
    for bad in ["a,b", "x=y", "br{ce", "cl}se"]:
        with pytest.raises(ValueError):
            registry.counter("name", label=bad)
        with pytest.raises(ValueError):
            registry.counter("name", **{bad: "v"})


def test_memoized_label_keys_render_like_before():
    """The registry memoizes each validated label key per call
    signature; equal values of different types still render (and
    count) apart, and unhashable values are validated on every call."""
    registry = MetricsRegistry()
    one = registry.counter("c", chip=1)
    assert registry.counter("c", chip=1) is one
    assert registry.counter("c", chip="1") is one  # same rendering
    assert registry.counter("c", chip=True) is not one
    assert registry.counter("c", chip=1.0) is not one
    both = registry.counter("c", chip=1, tenant="a")
    assert registry.counter("c", tenant="a", chip=1) is both
    listed = registry.counter("c", chip=[1])
    assert registry.counter("c", chip=[1]) is listed
    for _ in range(2):
        with pytest.raises(ValueError):
            registry.counter("c", chip=[1, 2])  # renders with a ","
    assert sorted(registry.to_dict()["counters"]) == [
        "c{chip=1,tenant=a}", "c{chip=1.0}", "c{chip=1}", "c{chip=True}",
        "c{chip=[1]}"]


def test_histogram_buckets_match_the_linear_scan():
    """``observe`` bisects; each value lands in the first bucket whose
    bound is >= it, and NaN in the overflow bucket, as the original
    linear scan placed them."""
    def scan(bounds, value):
        for index, bound in enumerate(bounds):
            if value <= bound:
                return index
        return len(bounds)

    rng = random.Random(11)
    values = [float("nan"), float("inf"), -float("inf"), 0, -1, 0.0]
    values += [bound + delta for bound in DEFAULT_BOUNDS
               for delta in (-1e-9, 0, 1e-9)]
    values += [rng.uniform(-5, 300) for _ in range(300)]
    values += [rng.randint(-5, 300) for _ in range(300)]
    for bounds in (DEFAULT_BOUNDS, (0.5, 2.5), (1, 1, 2)):
        for value in values:
            histogram = Histogram(bounds)
            histogram.observe(value)
            assert histogram.counts.index(1) \
                == scan(histogram.bounds, value), (bounds, value)


def test_metrics_label_rendering_roundtrips():
    registry = MetricsRegistry()
    registry.counter("gc.collections", chip=3).inc(7)
    registry.counter("gc.collections", chip=11).inc(2)
    registry.gauge("queue.depth", tenant="t0").set(4.5)
    registry.histogram("lat", bounds=(1, 10, 100)).observe(42.0)
    stats = SimStats(metrics=registry)
    restored = SimStats.from_dict(
        json.loads(json.dumps(stats.to_dict())))
    assert restored.metrics == registry
    assert restored.metrics.counter_total("gc.collections") == 9


def test_windowed_bandwidth_roundtrip_preserves_cdf():
    rng = random.Random(7)
    tracker = WindowedBandwidth(window=0.05)
    for _ in range(200):
        tracker.record(rng.uniform(0, 5), rng.randrange(1, 1 << 16))
    restored = WindowedBandwidth.from_dict(
        json.loads(json.dumps(tracker.to_dict())))
    assert restored == tracker
    assert restored.cdf() == tracker.cdf()
    assert restored.percentile(0.99) == tracker.percentile(0.99)
