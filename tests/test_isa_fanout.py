"""Tests for the shared dynamic-trace fan-out (`repro.isa.fanout`)."""

import itertools

import pytest

from repro.errors import SimulationError
from repro.isa import Interpreter, TraceFanout, fan_out
from repro.workloads import build_program


def test_views_see_identical_records_by_reference():
    fanout = TraceFanout(iter(range(100)), 3)
    a, b, c = fanout.views()
    assert list(a) == list(b) == list(c) == list(range(100))


def test_interleaved_consumption_preserves_order():
    fanout = TraceFanout(iter(range(50)), 2)
    a, b = fanout.views()
    got_a, got_b = [], []
    # a sprints ahead in bursts of 5 while b trails one at a time.
    for _ in range(10):
        got_a.extend(itertools.islice(a, 5))
        got_b.append(next(b))
    got_b.extend(b)
    assert got_a == list(range(50))
    assert got_b == list(range(50))


def test_laggard_queue_tracks_fastest_slowest_gap():
    fanout = TraceFanout(iter(range(1000)), 2)
    a, b = fanout.views()
    for _ in range(10):
        next(a)
    assert fanout.lags() == [0, 10]
    for _ in range(9):
        next(b)
    # The laggard advanced: consumed records leave its queue.
    assert fanout.lags() == [0, 1]
    assert fanout.high_water == 10


def test_capacity_bound_raises_loudly():
    fanout = TraceFanout(iter(range(1000)), 2, capacity=8)
    a, _b = fanout.views()
    with pytest.raises(SimulationError, match="wedged"):
        for _ in range(9):
            next(a)


def test_exhaustion_is_per_view():
    fanout = TraceFanout(iter(range(3)), 2)
    a, b = fanout.views()
    assert list(a) == [0, 1, 2]
    with pytest.raises(StopIteration):
        next(a)
    # b still drains the buffered tail after the source is exhausted.
    assert list(b) == [0, 1, 2]


def test_single_view_bypasses_ring():
    source = iter(range(5))
    (view,) = fan_out(source, 1)
    assert view is source


def test_invalid_arguments_rejected():
    with pytest.raises(SimulationError):
        TraceFanout(iter([]), 0)
    with pytest.raises(SimulationError):
        TraceFanout(iter([]), 2, capacity=0)


def test_fanned_trace_matches_per_node_interpreters():
    program = build_program("compress")
    views = fan_out(Interpreter(program).trace(limit=400), 3)
    reference = list(Interpreter(program).trace(limit=400))
    for view in views:
        records = list(view)
        assert len(records) == len(reference)
        for shared, fresh in zip(records, reference):
            assert shared.seq == fresh.seq
            assert shared.pc == fresh.pc
            assert shared.op_class == fresh.op_class
            assert shared.addr == fresh.addr
