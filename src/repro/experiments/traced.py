"""Fully-instrumented reference run: events and metrics.

No paper analogue — this scenario exercises the observability layer
(:mod:`repro.obs`) end to end: a multi-node run with an
:class:`~repro.obs.EventTracer` attached and the canonical metrics
snapshot.  With ``--trace-out`` the events are exported as Chrome
``trace_event`` JSON (open in https://ui.perfetto.dev — per-node tracks,
broadcast flow arrows); with ``--metrics-out`` the metrics report is
written as text.

Tracing is purely observational, so this run's cycles/IPC are
bit-identical to the same configuration untraced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.system import DataScalarSystem
from ..obs import (
    EventTracer,
    MetricsRegistry,
    format_metrics,
    registry_from_result,
    write_chrome_trace,
    write_jsonl,
)
from ..workloads import build_program
from .config import datascalar_config


@dataclass
class TracedRun:
    """The traced run's artifacts."""

    workload: str
    num_nodes: int
    result: object
    events: list = field(default_factory=list)
    registry: "MetricsRegistry | None" = None


def run_traced(limit=2500, workload: str = "compress",
               num_nodes: int = 4, trace_out=None,
               metrics_out=None) -> TracedRun:
    """Run ``workload`` with full event tracing and metrics capture."""
    program = build_program(workload)
    config = datascalar_config(num_nodes)
    tracer = EventTracer()
    result = DataScalarSystem(config).run(program, limit=limit,
                                          tracer=tracer)
    registry = registry_from_result(result)
    for kind, count in tracer.counts.items():
        registry.counter(f"trace.events.{kind.value}").inc(count)
    if trace_out:
        if str(trace_out).endswith(".jsonl"):
            write_jsonl(trace_out, tracer.events)
        else:
            write_chrome_trace(trace_out, tracer.events)
    if metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as handle:
            handle.write(format_metrics(registry))
            handle.write("\n")
    return TracedRun(workload=workload, num_nodes=num_nodes, result=result,
                     events=tracer.events, registry=registry)


def format_traced(run: TracedRun) -> str:
    result = run.result
    lines = [
        f"traced-run: {run.workload} on {run.num_nodes} nodes",
        f"  cycles={result.cycles} instructions={result.instructions} "
        f"ipc={result.ipc:.3f}",
        f"  events recorded: {len(run.events)}",
    ]
    registry = run.registry
    if registry is not None:
        kinds = sorted(name for name in registry.names()
                       if name.startswith("trace.events."))
        for name in kinds:
            lines.append(f"    {name.removeprefix('trace.events.'):<18}"
                         f"{registry.counter(name).value}")
    return "\n".join(lines)
