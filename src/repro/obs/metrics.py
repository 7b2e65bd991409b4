"""A hierarchical counter/gauge/histogram/series registry.

One :class:`MetricsRegistry` holds every metric of a run under dotted
names (``node.0.bshr.waits``, ``faults.recovery.latency``), so reports,
exporters, and compatibility shims all read the same numbers — the
registry is the single source of truth the ad-hoc stat dicts used to
approximate.

Naming scheme (see ``docs/observability.md``):

* ``run.*`` — whole-run scalars (cycles, instructions, bus totals);
* ``node.<id>.*`` — per-node counters, grouped by subsystem
  (``pipeline``, ``bshr``, ``dcub``, ``cache``, ``broadcast``);
* ``faults.injected.*`` / ``faults.recovery.*`` — the fault ledger;
* ``trace.events.<kind>`` — events emitted per :class:`EventKind`;
* ``runner.*`` — the sweep runner's counters and series.
"""

from __future__ import annotations

import math


def nearest_rank_percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100])."""
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


class Counter:
    """A monotonically-growing (by convention) integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A recorded sample set with mean/extrema/percentile queries."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: "list[float]" = []

    def record(self, value: float) -> None:
        self.values.append(value)

    #: Alias whose one remaining caller is the fault layer's recovery
    #: latency (:meth:`repro.faults.FaultyMedium._recover`).
    add = record

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0

    def percentile(self, q: float) -> float:
        return nearest_rank_percentile(self.values, q)

    def summary(self) -> dict:
        """Scalar digest: count, mean, p50, p95, max."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.maximum,
        }


class Series:
    """An append-only sequence of sampled values (e.g. the sweep
    runner's ``runner.completed_at``)."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: "list[float]" = []

    def append(self, value: float) -> None:
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]


class MetricsRegistry:
    """Dotted-name registry of counters, gauges, histograms, and series.

    Metrics are created on first access and type-checked on every
    access, so two call sites can never register the same name with
    different kinds (the drift the ad-hoc dicts allowed).
    """

    def __init__(self) -> None:
        self._metrics: "dict[str, object]" = {}

    def _get(self, name: str, kind: type) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._get(name, Counter)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get(name, Gauge)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._get(name, Histogram)
        assert isinstance(metric, Histogram)
        return metric

    def series(self, name: str) -> Series:
        metric = self._get(name, Series)
        assert isinstance(metric, Series)
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> "list[str]":
        return sorted(self._metrics)

    def as_dict(self) -> dict:
        """Flat JSON-serializable snapshot (histograms as digests,
        series as value lists)."""
        snapshot: "dict[str, object]" = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, (Counter, Gauge)):
                snapshot[name] = metric.value
            elif isinstance(metric, Histogram):
                snapshot[name] = metric.summary()
            elif isinstance(metric, Series):
                snapshot[name] = list(metric.values)
        return snapshot


def format_metrics(registry: MetricsRegistry) -> str:
    """Render a registry as an aligned, name-sorted text report."""
    rows: "list[tuple[str, str]]" = []
    for name, value in registry.as_dict().items():
        if isinstance(value, dict):
            digest = (
                f"count={value['count']} mean={value['mean']:.2f} "
                f"p50={value['p50']:g} p95={value['p95']:g} "
                f"max={value['max']:g}"
            )
            rows.append((name, digest))
        elif isinstance(value, list):
            rows.append((name, f"series[{len(value)}]"))
        elif isinstance(value, float):
            rows.append((name, f"{value:.4f}"))
        else:
            rows.append((name, str(value)))
    if not rows:
        return "(no metrics)"
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {text}" for name, text in rows)


def registry_from_result(result) -> MetricsRegistry:
    """Build the canonical metrics snapshot of a
    :class:`repro.core.system.DataScalarResult`."""
    registry = MetricsRegistry()
    registry.counter("run.cycles").inc(result.cycles)
    registry.counter("run.instructions").inc(result.instructions)
    registry.counter("run.bus.transactions").inc(result.bus_transactions)
    registry.counter("run.bus.payload_bytes").inc(result.bus_payload_bytes)
    registry.gauge("run.bus.utilization").set(result.bus_utilization)
    registry.gauge("run.ipc").set(result.ipc)
    for node in result.nodes:
        prefix = f"node.{node.node_id}"
        pipeline = node.pipeline
        registry.counter(f"{prefix}.pipeline.committed").inc(pipeline.committed)
        registry.counter(f"{prefix}.pipeline.loads").inc(pipeline.loads)
        registry.counter(f"{prefix}.pipeline.stores").inc(pipeline.stores)
        registry.counter(f"{prefix}.pipeline.fetch_stalls").inc(pipeline.fetch_stalls)
        registry.counter(f"{prefix}.pipeline.window_stalls").inc(
            pipeline.window_stalls
        )
        registry.counter(f"{prefix}.pipeline.lsq_stalls").inc(pipeline.lsq_stalls)
        registry.counter(f"{prefix}.broadcast.sent").inc(node.broadcasts_sent)
        registry.counter(f"{prefix}.broadcast.late").inc(node.late_broadcasts)
        registry.counter(f"{prefix}.bshr.waits").inc(node.bshr_waits)
        registry.counter(f"{prefix}.bshr.found").inc(node.bshr_found)
        registry.counter(f"{prefix}.bshr.squashes").inc(node.bshr_squashes)
        registry.counter(f"{prefix}.bshr.arrivals").inc(node.bshr_arrivals)
        registry.counter(f"{prefix}.cache.false_hits").inc(node.false_hits)
        registry.counter(f"{prefix}.cache.false_misses").inc(node.false_misses)
        registry.gauge(f"{prefix}.cache.miss_rate").set(node.dcache_miss_rate)
        registry.counter(f"{prefix}.loads.remote").inc(node.remote_loads)
        registry.counter(f"{prefix}.loads.local").inc(node.local_loads)
        registry.counter(f"{prefix}.stores.dropped").inc(node.dropped_stores)
    return registry
