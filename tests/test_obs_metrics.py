"""Tests for the hierarchical metrics registry."""

import pytest

from repro.core.system import DataScalarSystem
from repro.experiments.config import datascalar_config
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, Series, \
    format_metrics, registry_from_result
from repro.workloads import build_program


def test_counter_gauge_histogram_series_basics():
    registry = MetricsRegistry()
    registry.counter("a.b").inc()
    registry.counter("a.b").inc(4)
    registry.gauge("a.g").set(2.5)
    registry.histogram("a.h").record(3)
    registry.histogram("a.h").record(5)
    registry.series("a.s").append(1)
    assert registry.counter("a.b").value == 5
    assert registry.gauge("a.g").value == 2.5
    assert registry.histogram("a.h").mean == 4.0
    assert len(registry.series("a.s")) == 1


def test_same_name_same_object():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")


def test_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_contains_and_names_sorted():
    registry = MetricsRegistry()
    registry.counter("b")
    registry.counter("a")
    assert "a" in registry and "missing" not in registry
    assert registry.names() == ["a", "b"]


def test_as_dict_digests():
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.histogram("h").record(10)
    registry.series("s").append(1)
    snapshot = registry.as_dict()
    assert snapshot["c"] == 2
    assert snapshot["h"]["count"] == 1 and snapshot["h"]["max"] == 10
    assert snapshot["s"] == [1]


def test_histogram_summary_percentiles():
    histogram = Histogram()
    for value in (10, 20, 30, 40, 50):
        histogram.add(value)  # the alias the fault layer records with
    summary = histogram.summary()
    assert summary == {"count": 5, "mean": 30.0, "p50": 30.0,
                       "p95": 50.0, "max": 50}


def test_format_metrics_aligned_and_sorted():
    registry = MetricsRegistry()
    registry.counter("zzz.long.metric.name").inc(7)
    registry.gauge("aaa").set(1.5)
    text = format_metrics(registry)
    lines = text.splitlines()
    assert lines[0].startswith("aaa")
    assert lines[1].startswith("zzz.long.metric.name")
    assert "7" in lines[1] and "1.5000" in lines[0]


def test_format_metrics_empty():
    assert format_metrics(MetricsRegistry()) == "(no metrics)"


def test_metric_classes_exported():
    for cls in (Counter, Gauge, Histogram, Series):
        assert cls.__name__ in repr(cls)


def test_registry_from_result_matches_result():
    program = build_program("compress")
    result = DataScalarSystem(datascalar_config(2)).run(program, limit=1500)
    registry = registry_from_result(result)
    assert registry.counter("run.cycles").value == result.cycles
    assert registry.counter("run.instructions").value == result.instructions
    assert registry.gauge("run.ipc").value == pytest.approx(result.ipc)
    for node in result.nodes:
        prefix = f"node.{node.node_id}"
        assert registry.counter(f"{prefix}.pipeline.committed").value \
            == node.pipeline.committed
        assert registry.counter(f"{prefix}.broadcast.sent").value \
            == node.broadcasts_sent
        assert registry.counter(f"{prefix}.bshr.waits").value \
            == node.bshr_waits
