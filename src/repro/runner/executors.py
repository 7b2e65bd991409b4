"""Executor registry: how each kind of sweep point actually runs.

:func:`execute_point` is the single entry point every point runs
through, via :func:`repro.runner.telemetry.execute_point_task` — in
process at ``jobs=1``, and in ``ProcessPoolExecutor`` workers at
``jobs>1``.  Executors are pure functions of their point: same point,
same result, whichever process runs it — the property the bit-identity
tests pin down and the content cache relies on.

The timing points (``datascalar``, ``traditional``, ``perfect`` and
``figure3``) of one key — (workload, scale, limit, knobs) — commit one
dynamic instruction stream, so they share its records as a run's nodes
do: each process holds at most one materialized stream
(:func:`_records`), tagged with the (I-cache, D-cache) pair whose
canonical outcomes it carries, and hands it to every point with that
key through the systems' ``records=``.
Only :func:`~repro.isa.annotate` and
:func:`~repro.memory.canonical_outcomes` write to a record, and each
list has its outcomes written at most once, so a point's result does
not depend on which point built its stream.
:class:`~repro.runner.engine.SweepRunner` empties the holder at the
start and end of every batch (:func:`release_records`).

Experiment modules are imported lazily inside each executor so the
runner package stays importable on its own (``repro.experiments``
imports ``repro.runner``, not the other way around at module scope).
"""

from __future__ import annotations

from collections import deque

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
    the per-point phase breakdown — program build, functional front
    end, timing loop, analysis — hangs off one well-known root.
    Disabled, the span is a shared no-op.
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


#: The one materialized record stream this process holds:
#: ``(key, caches, records)``, where ``key`` is the building point's
#: (workload, scale, limit, knobs), whose knobs pick a synthetic
#: program (Figure 3's ``hops``), and ``caches`` the (I-cache, D-cache)
#: pair whose canonical outcomes the records carry (``None``: none yet).
#: Module state because a pool worker keeps it between the tasks of a
#: batch, and each task receives only its point.
_held: "tuple | None" = None


def release_records() -> None:
    """Drop the held record stream (the sweep engine's batch edges)."""
    global _held
    _held = None


def _records(point: SweepPoint, program, caches=None) -> list:
    """The materialized record stream of ``point``'s key, with the
    canonical outcomes of ``caches`` (an (I-cache, D-cache) pair) set,
    or with whatever outcomes it holds when ``caches`` is ``None`` (a
    perfect point reads none).

    The held list is reused when its key matches and its outcomes
    either match ``caches`` or are absent, in which case they are
    applied in place (under an ``outcomes`` span).  Any other request
    builds a new list under a ``stream`` span: outcomes are never
    overwritten, since :func:`~repro.memory.canonical_outcomes` only
    sets ``imiss_line`` on a miss.  The holder is emptied first and
    assigned only once the work completes, so a build that raises
    leaves nothing held.
    """
    global _held
    from ..isa import make_trace_source
    from ..memory.cache import canonical_outcomes

    key = (point.workload, point.scale, point.limit, point.knobs)
    if _held is not None and _held[0] == key:
        _, held_caches, records = _held
        if caches is None or held_caches == caches:
            return records
        if held_caches is None:
            _held = None
            with span("outcomes"):
                deque(canonical_outcomes(records, *caches), maxlen=0)
            _held = (key, caches, records)
            return records
        del records  # the held list is replaced, not kept alongside
    _held = None
    with span("stream"):
        stream = make_trace_source(program, limit=point.limit)
        if caches is not None:
            stream = canonical_outcomes(stream, *caches)
        records = list(stream)
    _held = (key, caches, records)
    return records


@executor("datascalar")
def _run_datascalar(point: SweepPoint):
    """A full DataScalar timing run (``config``:
    :class:`~repro.params.SystemConfig` — fault injection included when
    the config carries a :class:`~repro.params.FaultConfig`)."""
    from ..core.system import DataScalarSystem

    program = _program(point)
    node = point.config.node
    records = _records(point, program, (node.icache, node.dcache))
    return DataScalarSystem(point.config).run(program, limit=point.limit,
                                              records=records)


@executor("traditional")
def _run_traditional(point: SweepPoint):
    """The matched traditional baseline (``config``:
    :class:`~repro.params.TraditionalConfig`)."""
    from ..baseline.traditional import TraditionalSystem

    program = _program(point)
    node = point.config.node
    records = _records(point, program, (node.icache, node.dcache))
    return TraditionalSystem(point.config).run(program, limit=point.limit,
                                               records=records)


@executor("perfect")
def _run_perfect(point: SweepPoint):
    """The perfect-data-cache upper bound (``config``:
    :class:`~repro.params.CPUConfig`)."""
    from ..baseline.perfect import PerfectSystem

    program = _program(point)
    return PerfectSystem(point.config).run(program, limit=point.limit,
                                           records=_records(point, program))


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
    node = point.config.node
    records = _records(point, program, (node.icache, node.dcache))
    return system.run(program, limit=point.limit, records=records)


@executor("esp-schedule")
def _run_esp_schedule(point: SweepPoint):
    """Figure 1's analytic ESP schedules (knobs:
    ``broadcast_latency``, ``lead_change_penalty``)."""
    from ..experiments.figure1 import compute_figure1

    return compute_figure1(
        broadcast_latency=point.knob("broadcast_latency", 1),
        lead_change_penalty=point.knob("lead_change_penalty", 3),
    )
