"""Structured observability for the DataScalar simulator.

This package is the simulator's instrumentation layer:

* :mod:`repro.obs.events` — the typed event vocabulary
  (:class:`EventKind`, :class:`TraceEvent`);
* :mod:`repro.obs.tracer` — the narrow :class:`Tracer` protocol the
  simulator emits through (``None`` by default: zero overhead when
  disabled) and the in-memory :class:`EventTracer`;
* :mod:`repro.obs.metrics` — the hierarchical :class:`MetricsRegistry`
  (counters, gauges, histograms, series) behind every stat report;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto) and
  JSONL exporters;
* :mod:`repro.obs.spans` — hierarchical wall/CPU phase spans (the
  per-point phase breakdown behind sweep telemetry and run manifests).

The simulator's own speed is measured in one place,
``benchmarks/perf/run.py``, not here.

Entry points: ``DataScalarSystem.run(..., tracer=EventTracer())`` and
``python -m repro.experiments traced-run --trace-out trace.json
--metrics-out metrics.txt``.  See ``docs/observability.md``.
"""

from .events import EventKind, TraceEvent
from .export import (
    from_jsonl,
    spans_to_chrome_trace,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_spans_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    format_metrics,
    registry_from_result,
)
from .spans import SpanRecord, SpanRecorder, recording, span
from .tracer import EventTracer, Tracer

__all__ = [
    "Counter",
    "EventKind",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "SpanRecord",
    "SpanRecorder",
    "TraceEvent",
    "Tracer",
    "format_metrics",
    "from_jsonl",
    "recording",
    "registry_from_result",
    "span",
    "spans_to_chrome_trace",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_spans_chrome_trace",
]
