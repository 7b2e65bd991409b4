"""Unit tests for the Broadcast Status Holding Registers."""

import pytest

from repro.core.bshr import BSHRFile
from repro.cpu.interface import LoadHandle
from repro.errors import ProtocolError
from repro.params import BSHRConfig


def _bshr(latency=2):
    return BSHRFile(BSHRConfig(access_latency=latency))


def _handle(now=0):
    return LoadHandle(0x100, 4, now)


def test_wait_then_arrival_completes_load():
    bshr = _bshr()
    handle = _handle(now=5)
    bshr.load(5, 0x100, handle)
    assert handle.ready is None
    bshr.arrival(20, 0x100)
    assert handle.ready == 22  # arrival + access latency
    assert bshr.stats.waits == 1
    assert not handle.found_in_bshr


def test_arrival_before_load_is_effective_onchip_hit():
    bshr = _bshr()
    bshr.arrival(10, 0x100)
    handle = _handle(now=30)
    bshr.load(30, 0x100, handle)
    assert handle.found_in_bshr
    assert handle.ready == 32  # now + access latency
    assert bshr.stats.found_in_bshr == 1


def test_arrival_with_future_timestamp_not_counted_as_found():
    bshr = _bshr()
    bshr.arrival(100, 0x100)  # in flight, lands at cycle 100
    handle = _handle(now=50)
    bshr.load(50, 0x100, handle)
    assert not handle.found_in_bshr
    assert handle.ready == 102


def test_earliest_matching_entry_freed_first():
    bshr = _bshr()
    first = _handle(now=0)
    second = _handle(now=1)
    bshr.load(0, 0x100, first)
    bshr.load(1, 0x100, second)
    bshr.arrival(10, 0x100)
    assert first.ready is not None
    assert second.ready is None
    bshr.arrival(20, 0x100)
    assert second.ready is not None


def test_arrivals_buffered_fifo_per_line():
    bshr = _bshr()
    bshr.arrival(10, 0x100)
    bshr.arrival(20, 0x100)
    a = _handle(now=30)
    b = _handle(now=30)
    bshr.load(30, 0x100, a)
    bshr.load(30, 0x100, b)
    assert a.ready == 32  # earliest arrival consumed first
    assert b.ready == 32


def test_different_lines_do_not_match():
    bshr = _bshr()
    handle = _handle()
    bshr.load(0, 0x100, handle)
    bshr.arrival(10, 0x200)
    assert handle.ready is None
    assert bshr.occupancy() == 2


def test_scheduled_discard_consumes_future_arrival():
    bshr = _bshr()
    bshr.schedule_discard(0x100)
    bshr.arrival(10, 0x100)
    assert bshr.stats.squashes == 1
    assert bshr.occupancy() == 0
    # A later load must not see the squashed arrival.
    handle = _handle(now=20)
    bshr.load(20, 0x100, handle)
    assert handle.ready is None


def test_scheduled_discard_consumes_buffered_arrival():
    bshr = _bshr()
    bshr.arrival(10, 0x100)
    bshr.schedule_discard(0x100)
    assert bshr.stats.squashes == 1
    assert bshr.occupancy() == 0


def test_discards_stack_per_line():
    bshr = _bshr()
    bshr.schedule_discard(0x100)
    bshr.schedule_discard(0x100)
    bshr.arrival(10, 0x100)
    bshr.arrival(11, 0x100)
    bshr.arrival(12, 0x100)
    assert bshr.stats.squashes == 2
    assert bshr.occupancy() == 1  # third arrival buffered normally


def test_waiting_load_has_priority_over_buffering():
    bshr = _bshr()
    handle = _handle()
    bshr.load(0, 0x100, handle)
    bshr.arrival(10, 0x100)
    assert bshr.occupancy() == 0


def test_assert_drained_raises_on_stranded_wait():
    bshr = _bshr()
    bshr.load(0, 0x100, _handle())
    with pytest.raises(ProtocolError):
        bshr.assert_drained()


def test_assert_drained_ignores_buffered_arrivals():
    bshr = _bshr()
    bshr.arrival(10, 0x100)
    bshr.assert_drained()  # arrivals without waiters are not a deadlock


def test_overflow_accounting_past_capacity():
    """Ten entries outstanding at once, a mix of waiting loads and
    buffered arrivals: the BSHR models no capacity, so nothing stalls or
    drops — every waiter still completes and the file drains."""
    bshr = _bshr()
    handles = [_handle() for _ in range(6)]
    for i, handle in enumerate(handles):
        bshr.load(0, 0x1000 + 0x40 * i, handle)      # occupancy 1..6
    for i in range(4):
        bshr.arrival(10, 0x2000 + 0x40 * i)           # occupancy 7..10
    assert bshr.occupancy() == 10
    for i, handle in enumerate(handles):
        bshr.arrival(20, 0x1000 + 0x40 * i)
        assert handle.ready is not None
    bshr.assert_drained()
