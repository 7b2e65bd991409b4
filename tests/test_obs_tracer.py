"""Tests for the tracer protocol and its implementation."""

from repro.core.system import DataScalarSystem
from repro.experiments.config import datascalar_config
from repro.obs import EventKind, EventTracer, Tracer
from repro.workloads import build_program


def test_event_tracer_records_in_order():
    tracer = EventTracer()
    tracer.emit(EventKind.COMMIT, 5, 0, seq=1, op="alu")
    tracer.emit(EventKind.COMMIT, 7, 1, seq=1, op="alu")
    assert len(tracer) == 2
    assert [event.cycle for event in tracer.events] == [5, 7]
    assert tracer.events[0].args == {"seq": 1, "op": "alu"}
    assert tracer.counts[EventKind.COMMIT] == 2


def test_event_tracer_kind_filter_counts_everything():
    tracer = EventTracer(kinds={EventKind.BCAST_SEND})
    tracer.emit(EventKind.COMMIT, 1, 0, seq=1, op="alu")
    tracer.emit(EventKind.BCAST_SEND, 2, 0, line=0x40, late=False, seq=1)
    assert len(tracer) == 1
    assert tracer.events[0].kind is EventKind.BCAST_SEND
    assert tracer.counts[EventKind.COMMIT] == 1


def test_of_kind_selects_and_preserves_order():
    tracer = EventTracer()
    tracer.emit(EventKind.COMMIT, 1, 0, seq=1, op="alu")
    tracer.emit(EventKind.BCAST_SEND, 2, 0, line=0x40)
    tracer.emit(EventKind.COMMIT, 3, 0, seq=2, op="load")
    commits = tracer.of_kind(EventKind.COMMIT)
    assert [event.args["seq"] for event in commits] == [1, 2]


def test_implementations_satisfy_protocol():
    assert isinstance(EventTracer(), Tracer)


def test_traced_run_emits_every_core_kind():
    program = build_program("compress")
    tracer = EventTracer()
    DataScalarSystem(datascalar_config(4)).run(program, limit=2000,
                                               tracer=tracer)
    for kind in (EventKind.COMMIT, EventKind.ISSUE_STALL,
                 EventKind.BCAST_SEND, EventKind.BCAST_ARRIVE,
                 EventKind.BCAST_CONSUME, EventKind.BSHR_ALLOC,
                 EventKind.DCUB_STAGE, EventKind.DCUB_APPLY,
                 EventKind.CACHE_COMMIT, EventKind.MEDIUM_XFER):
        assert tracer.counts.get(kind, 0) > 0, kind
