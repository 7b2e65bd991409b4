"""Unit tests for the interconnect substrates."""

import pytest

from repro.errors import ConfigError
from repro.interconnect import Bus, LatencyQueue, Ring
from repro.params import BusConfig


def _bus_config(**kw):
    defaults = dict(width_bytes=8, cycles_per_bus_cycle=4,
                    interface_latency=2, arbitration_bus_cycles=1,
                    tag_bytes=8)
    defaults.update(kw)
    return BusConfig(**defaults)


# ----------------------------------------------------------------------
# BusConfig timing math.
# ----------------------------------------------------------------------
def test_transfer_cycles_formula():
    cfg = _bus_config()
    # 32B payload + 8B tag = 40B over 8B wires -> 5 beats + 1 arb = 6 bus
    # cycles * 4 processor cycles each.
    assert cfg.transfer_cycles(32) == 24


def test_transfer_cycles_rounds_up_partial_beat():
    cfg = _bus_config(tag_bytes=0, arbitration_bus_cycles=0)
    assert cfg.transfer_cycles(9) == 2 * 4


def test_wider_bus_is_faster():
    narrow = _bus_config(width_bytes=4)
    wide = _bus_config(width_bytes=16)
    assert wide.transfer_cycles(32) < narrow.transfer_cycles(32)


# ----------------------------------------------------------------------
# Bus.
# ----------------------------------------------------------------------
def test_bus_single_transfer_timing():
    bus = Bus(_bus_config())
    start, done = bus.transfer(10, 32)
    assert start == 10
    assert done == 10 + 24


def test_bus_serializes_transactions():
    bus = Bus(_bus_config())
    _, first_done = bus.transfer(0, 32)
    start, _ = bus.transfer(0, 32)
    assert start == first_done


def test_bus_idle_gap_not_charged():
    bus = Bus(_bus_config())
    _, done = bus.transfer(0, 32)
    start, _ = bus.transfer(done + 100, 32)
    assert start == done + 100


def test_bus_stats_accumulate():
    cfg = _bus_config()
    bus = Bus(cfg)
    bus.transfer(0, 32)  # a line
    bus.transfer(0, 0)   # a request: address/tag only
    assert bus.transactions == 2
    assert bus.payload_bytes == 32
    # The tag travels with every transfer: it is charged in bus time.
    assert bus.busy_cycles == cfg.transfer_cycles(32) + cfg.transfer_cycles(0)
    assert 0 < bus.utilization(1000) < 1


# ----------------------------------------------------------------------
# Queues.
# ----------------------------------------------------------------------
def test_latency_queue_adds_fixed_latency():
    q = LatencyQueue(latency=2)
    assert q.enqueue(10) == 12


def test_latency_queue_drains_one_per_cycle():
    q = LatencyQueue(latency=2)
    first = q.enqueue(0)
    second = q.enqueue(0)
    assert first == 2 and second == 3


def test_latency_queue_validation_and_reset():
    with pytest.raises(ConfigError):
        LatencyQueue(latency=-1)
    # A queue that has drained is back to its fixed latency.
    q = LatencyQueue(latency=1)
    q.enqueue(0)
    assert q.enqueue(100) == 101


# ----------------------------------------------------------------------
# Ring.
# ----------------------------------------------------------------------
def test_ring_broadcast_reaches_all_nodes_in_order():
    ring = Ring(_bus_config(), num_nodes=4)
    arrivals = ring.broadcast(0, 0, 0x100, 32)
    # Node 1 hears it first, then 2, then 3.  Each hop is one cycle plus
    # five beats of 32B payload + 8B tag on 8B links at the core clock,
    # with no arbitration (the bus config's 4x clock and arbitration
    # cycle are the bus's alone).
    assert arrivals == [None, 6, 12, 18]
    assert ring.transactions == 1 and ring.payload_bytes == 32


def test_ring_links_pipeline_independent_messages():
    ring = Ring(_bus_config(), num_nodes=4)
    a = ring.broadcast(0, 0, 0x100, 32)
    b = ring.broadcast(0, 2, 0x100, 32)
    hop = a[1]
    # Messages from different sources share only some links, so the second
    # broadcast finishes earlier than strict serialization would allow:
    # waiting out the first one's whole loop, then three hops of its own.
    assert max(t for t in b if t is not None) < 4 * hop + 3 * hop


def test_ring_validation():
    with pytest.raises(ConfigError):
        Ring(_bus_config(), num_nodes=0)
