"""The metrics registry: thread safety, percentile edges, snapshot isolation."""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.database.sqlite_backend import SQLiteReadPool
from repro.learning.coverage import QueryCoverageEngine, SubsumptionCoverageEngine
from repro.learning.evaluation import evaluate_definition
from repro.learning.examples import ExampleSet
from repro.logic.clauses import HornDefinition
from repro.logic.parser import parse_clause
from repro.obs import registry as process_registry
from repro.obs.metrics import Counter, Gauge, Histogram, Registry


# --------------------------------------------------------------------- #
# Counters and gauges
# --------------------------------------------------------------------- #
def test_counter_basics():
    counter = Counter()
    assert counter.value == 0
    counter.inc()
    counter.inc(5)
    assert counter.value == 6


def test_child_counter_feeds_its_parent():
    parent = Counter()
    first, second = Counter(parent=parent), Counter(parent=parent)
    first.inc(2)
    second.inc(3)
    assert (first.value, second.value, parent.value) == (2, 3, 5)


def test_counter_rejects_negative_increments():
    counter = Counter()
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_concurrent_counter_increments_are_lossless():
    """8 threads x 10k increments: the total must be exact, not approximate."""
    counter = Counter()
    threads_count, per_thread = 8, 10_000

    def worker():
        for _ in range(per_thread):
            counter.inc()

    threads = [threading.Thread(target=worker) for _ in range(threads_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == threads_count * per_thread


def test_gauge_goes_both_ways():
    gauge = Gauge()
    gauge.inc(3)
    gauge.dec(1)
    assert gauge.value == 2
    gauge.set(-7.5)
    assert gauge.value == -7.5


# --------------------------------------------------------------------- #
# Histogram percentiles
# --------------------------------------------------------------------- #
def test_histogram_empty_percentiles_are_none():
    histogram = Histogram()
    assert histogram.percentile(0) is None
    assert histogram.percentile(50) is None
    assert histogram.percentile(100) is None
    summary = histogram.summary()
    assert summary["count"] == 0
    assert summary["min"] is None and summary["max"] is None
    assert summary["p50"] is None and summary["p99"] is None


def test_histogram_percentile_range_is_validated():
    histogram = Histogram()
    with pytest.raises(ValueError):
        histogram.percentile(-0.1)
    with pytest.raises(ValueError):
        histogram.percentile(100.1)


def test_histogram_single_observation_is_every_percentile():
    histogram = Histogram()
    histogram.observe(3.25)
    for p in (0, 1, 50, 99, 100):
        assert histogram.percentile(p) == 3.25


def test_histogram_percentile_edges():
    histogram = Histogram()
    for value in range(1, 101):  # 1..100
        histogram.observe(value)
    assert histogram.percentile(0) == 1
    assert histogram.percentile(100) == 100
    # Nearest rank: p50 of 1..100 is the 50th ordered sample.
    assert histogram.percentile(50) == 50
    assert histogram.percentile(99) == 99
    assert histogram.count == 100
    assert histogram.sum == sum(range(1, 101))
    summary = histogram.summary()
    assert summary["min"] == 1 and summary["max"] == 100
    assert summary["p90"] == 90


def test_histogram_ring_buffer_keeps_exact_count_and_sum():
    """Beyond the sample capacity, percentiles window but count/sum stay exact."""
    from repro.obs.metrics import _HISTOGRAM_SAMPLES

    histogram = Histogram()
    total = _HISTOGRAM_SAMPLES + 500
    for value in range(total):
        histogram.observe(value)
    assert histogram.count == total
    assert histogram.sum == sum(range(total))
    # The oldest 500 samples were overwritten: the retained minimum is 500.
    assert histogram.percentile(0) == 500
    assert histogram.percentile(100) == total - 1


def test_histogram_timer_observes_elapsed_seconds():
    histogram = Histogram()
    with histogram.time():
        pass
    assert histogram.count == 1
    assert 0 <= histogram.summary()["max"] < 5.0


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
def test_registry_get_or_create_is_stable_per_name_and_labels():
    registry = Registry()
    a = registry.counter("x.hits", engine="0")
    b = registry.counter("x.hits", engine="0")
    c = registry.counter("x.hits", engine="1")
    assert a is b
    assert a is not c


def test_registry_total_sums_across_label_sets():
    registry = Registry()
    registry.counter("x.hits", engine="0").inc(2)
    registry.counter("x.hits", engine="1").inc(3)
    registry.counter("y.other").inc(10)
    assert registry.total("x.hits") == 5


def test_snapshot_is_isolated_from_later_updates():
    registry = Registry()
    counter = registry.counter("x.hits")
    counter.inc(4)
    snapshot = registry.snapshot()
    counter.inc(100)
    assert snapshot["counters"]["x.hits"] == 4
    assert registry.snapshot()["counters"]["x.hits"] == 104


def test_snapshot_series_names_render_labels():
    registry = Registry()
    registry.counter("server.batches", handle="ab12", gen="1").inc()
    registry.gauge("server.inflight").set(2)
    registry.histogram("server.request_seconds", server="1").observe(0.5)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {'server.batches{gen="1",handle="ab12"}': 1}
    assert snapshot["gauges"] == {"server.inflight": 2}
    (series_name,) = snapshot["histograms"]
    assert series_name == 'server.request_seconds{server="1"}'
    assert snapshot["histograms"][series_name]["count"] == 1


def test_reset_drops_every_series():
    registry = Registry()
    registry.counter("x.hits").inc()
    registry.reset()
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_concurrent_get_or_create_yields_one_series():
    """Racing threads asking for the same (name, labels) must share one
    counter — a lost increment here would silently corrupt every stat."""
    registry = Registry()
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        for _ in range(1000):
            registry.counter("race.hits", worker="shared").inc()

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.total("race.hits") == 8000


def test_engines_and_pools_add_no_series():
    """Coverage engines, evaluations and read pools share one series per
    name: making 50 of each leaves the number of series unchanged, while a
    fresh object still reads zero and the totals count process-wide."""
    schema = Schema(
        [RelationSchema("publication", ["title", "person"])], name="coauthors"
    )
    instance = DatabaseInstance(schema)
    instance.add_tuples("publication", [("t1", "s1"), ("t1", "p1"), ("t2", "s2")])
    clause = parse_clause("advisedBy(x, y) :- publication(t, x), publication(t, y).")
    test_set = ExampleSet("advisedBy", [("s1", "p1")], [("s2", "p1")])
    examples = test_set.all_examples()
    definition = HornDefinition("advisedBy", [clause])
    source = sqlite3.connect(":memory:", check_same_thread=False)
    totals = ("coverage.query.tests", "coverage.subsumption.tests",
              "sqlite.pool.snapshots")

    def one_of_each():
        query = QueryCoverageEngine(instance)
        subsumption = SubsumptionCoverageEngine(instance)
        pool = SQLiteReadPool(source, lambda: 0)
        fresh = (query.coverage_tests_performed, subsumption.coverage_tests_performed,
                 subsumption.cache_hits, subsumption.compiled_statements,
                 pool.snapshots_taken)
        assert fresh == (0, 0, 0, 0, 0)
        query.covered_examples(clause, examples)
        subsumption.covered_examples(clause, examples)
        with pool.lease():
            pass
        pool.close()
        evaluate_definition(definition, instance, test_set)

    def series_count():
        return sum(len(kind) for kind in process_registry().snapshot().values())

    one_of_each()
    before = series_count()
    start = [process_registry().total(name) for name in totals]
    for _ in range(50):
        one_of_each()
    assert series_count() == before
    grown = [process_registry().total(name) - s for name, s in zip(totals, start)]
    # Per round: 2 query tests in the engine plus 2 in the evaluation's
    # engine, 2 subsumption tests, 1 snapshot.
    assert grown == [50 * 4, 50 * 2, 50]
    source.close()
