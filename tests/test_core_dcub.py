"""Unit tests for the Data Commit Update Buffer."""

import pytest

from repro.core.dcub import DCUB
from repro.cpu.interface import LoadHandle
from repro.errors import ProtocolError


def _handle(now=0):
    return LoadHandle(0x100, 4, now)


def test_allocate_lookup_release_cycle():
    dcub = DCUB()
    entry = dcub.allocate(0x100, now=0)
    assert dcub.lookup(0x100) is entry
    assert dcub.release(0x100) is True
    assert dcub.lookup(0x100) is None


def test_double_allocate_rejected():
    dcub = DCUB()
    dcub.allocate(0x100, 0)
    with pytest.raises(ProtocolError):
        dcub.allocate(0x100, 1)


def test_release_unknown_rejected():
    with pytest.raises(ProtocolError):
        DCUB().release(0x100)


def test_merge_after_resolution_completes_immediately():
    dcub = DCUB()
    entry = dcub.allocate(0x100, 0)
    entry.resolve(50)
    handle = _handle(now=60)
    dcub.merge(entry, 60, handle)
    assert handle.ready == 61  # data already there; one-cycle service
    assert dcub.merges == 1


def test_merge_before_resolution_waits_for_it():
    dcub = DCUB()
    entry = dcub.allocate(0x100, 0)
    handle = _handle(now=5)
    dcub.merge(entry, 5, handle)
    assert handle.ready is None
    entry.resolve(40)
    assert handle.ready == 40


def test_refcounted_deallocation():
    dcub = DCUB()
    entry = dcub.allocate(0x100, 0)
    entry.resolve(10)
    dcub.merge(entry, 1, _handle())
    dcub.merge(entry, 2, _handle())
    assert dcub.release(0x100) is False
    assert dcub.release(0x100) is False
    assert dcub.release(0x100) is True
    assert dcub.occupancy() == 0


def test_dealloc_with_unresolved_merges_rejected():
    dcub = DCUB()
    entry = dcub.allocate(0x100, 0)
    dcub.merge(entry, 1, _handle())
    dcub.release(0x100)  # primary commits...
    with pytest.raises(ProtocolError):
        dcub.release(0x100)  # ...but the merged access never resolved


def test_assert_drained():
    dcub = DCUB()
    dcub.allocate(0x100, 0)
    with pytest.raises(ProtocolError):
        dcub.assert_drained()
