"""Unit tests for banked main memory."""

import pytest

from repro.errors import MemoryError_
from repro.memory import BankedMemory


def test_banked_memory_basic_latency():
    mem = BankedMemory(latency=8, num_banks=4, interleave_bytes=32)
    assert mem.access(now=10, addr=0x0) == 18


def test_banked_memory_same_bank_serializes():
    mem = BankedMemory(latency=8, num_banks=4, interleave_bytes=32)
    first = mem.access(0, 0x0)
    second = mem.access(0, 0x0)  # same bank, queued behind first
    assert first == 8
    assert second == 16  # waited 8 cycles for the bank
    # Once the bank is free again, the same bank adds no wait.
    assert mem.access(20, 0x80) == 28


def test_banked_memory_different_banks_parallel():
    mem = BankedMemory(latency=8, num_banks=4, interleave_bytes=32)
    a = mem.access(0, 0x0)
    b = mem.access(0, 0x20)  # next line -> next bank
    assert a == 8 and b == 8


def test_banked_memory_bank_mapping_wraps():
    mem = BankedMemory(latency=8, num_banks=4, interleave_bytes=32)
    assert mem.bank_of(0x0) == mem.bank_of(4 * 32)


@pytest.mark.parametrize("kwargs", [
    {"latency": 0},
    {"latency": 8, "num_banks": 0},
    {"latency": 8, "interleave_bytes": 0},
])
def test_banked_memory_validation(kwargs):
    with pytest.raises(MemoryError_):
        BankedMemory(**kwargs)
