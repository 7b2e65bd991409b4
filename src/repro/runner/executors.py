"""Executor registry: how each kind of sweep point actually runs.

:func:`execute_point` is the single entry point every point runs
through, via :func:`repro.runner.telemetry.execute_point_task` — in
process at ``jobs=1``, and in ``ProcessPoolExecutor`` workers at
``jobs>1``.  Executors are pure functions of their point: same point,
same result, whichever process runs it — the property the bit-identity
tests pin down and the content cache relies on.

Experiment modules are imported lazily inside each executor so the
runner package stays importable on its own (``repro.experiments``
imports ``repro.runner``, not the other way around at module scope).
"""

from __future__ import annotations

from ..errors import ReproError
from ..obs.spans import span
from .point import SweepPoint

#: kind -> callable(point) -> result.
EXECUTORS: "dict[str, object]" = {}


def executor(kind: str):
    """Register a point executor under ``kind``."""

    def register(fn):
        EXECUTORS[kind] = fn
        return fn

    return register


def execute_point(point: SweepPoint) -> object:
    """Run one point to completion and return its (picklable) result.

    When a :class:`repro.obs.spans.SpanRecorder` is active (sweep
    telemetry), the whole execution runs under a root ``point`` span so
    the per-point phase breakdown — program build, codegen compile,
    functional front end, timing loop, fault recovery, analysis — hangs
    off one well-known root.  Disabled, the span is a shared no-op.
    """
    fn = EXECUTORS.get(point.kind)
    if fn is None:
        known = ", ".join(sorted(EXECUTORS))
        raise ReproError(
            f"unknown sweep-point kind {point.kind!r}; known: {known}"
        )
    with span("point"):
        return fn(point)


def _program(point: SweepPoint):
    from ..workloads import build_program

    return build_program(point.workload, point.scale)


@executor("datascalar")
def _run_datascalar(point: SweepPoint):
    """A full DataScalar timing run (``config``:
    :class:`~repro.params.SystemConfig` — fault injection included when
    the config carries a :class:`~repro.params.FaultConfig`)."""
    from ..core.system import DataScalarSystem

    return DataScalarSystem(point.config).run(_program(point),
                                              limit=point.limit)


@executor("traditional")
def _run_traditional(point: SweepPoint):
    """The matched traditional baseline (``config``:
    :class:`~repro.params.TraditionalConfig`)."""
    from ..baseline.traditional import TraditionalSystem

    return TraditionalSystem(point.config).run(_program(point),
                                               limit=point.limit)


@executor("perfect")
def _run_perfect(point: SweepPoint):
    """The perfect-data-cache upper bound (``config``:
    :class:`~repro.params.CPUConfig`)."""
    from ..baseline.perfect import PerfectSystem

    return PerfectSystem(point.config).run(_program(point),
                                           limit=point.limit)


@executor("esp-traffic")
def _run_esp_traffic(point: SweepPoint):
    """Table 1's trace-level traffic filter (``config``: the
    measurement :class:`~repro.params.CacheConfig`)."""
    from ..analysis.traffic import measure_esp_traffic

    return measure_esp_traffic(_program(point), cache_config=point.config,
                               limit=point.limit)


@executor("datathread")
def _run_datathread(point: SweepPoint):
    """Table 2's replication-plan + datathread measurement (knobs:
    ``num_nodes``, ``budget_pages``, ``page_size``)."""
    from ..experiments.table2 import measure_datathreads

    return measure_datathreads(
        point.workload,
        scale=point.scale,
        num_nodes=point.knob("num_nodes", 4),
        budget_pages=point.knob("budget_pages", 6),
        page_size=point.knob("page_size", 1024),
        limit=point.limit,
    )


@executor("figure3")
def _run_figure3(point: SweepPoint):
    """Figure 3's pointer-chase microbenchmark on either system —
    dispatched on the config's type (knob: ``hops``)."""
    from ..baseline.traditional import TraditionalSystem
    from ..core.system import DataScalarSystem
    from ..experiments.figure3 import _chain_program
    from ..params import TraditionalConfig

    program = _chain_program(hops=point.knob("hops", 64))
    if isinstance(point.config, TraditionalConfig):
        system = TraditionalSystem(point.config)
    else:
        system = DataScalarSystem(point.config)
    return system.run(program, limit=point.limit)


@executor("esp-schedule")
def _run_esp_schedule(point: SweepPoint):
    """Figure 1's analytic ESP schedules (knobs:
    ``broadcast_latency``, ``lead_change_penalty``)."""
    from ..experiments.figure1 import compute_figure1

    return compute_figure1(
        broadcast_latency=point.knob("broadcast_latency", 1),
        lead_change_penalty=point.knob("lead_change_penalty", 3),
    )
