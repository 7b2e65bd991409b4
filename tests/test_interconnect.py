"""Unit tests for the interconnect substrates."""

import pytest

from repro.errors import ConfigError
from repro.interconnect import (
    Bus,
    LatencyQueue,
    Message,
    MessageKind,
    Ring,
)
from repro.params import BusConfig


def _msg(kind=MessageKind.BROADCAST, src=0, payload=32, tag=0):
    return Message(kind=kind, src=src, line_addr=0x100, payload_bytes=payload,
                   tag=tag)


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
    start, done = bus.transfer(10, _msg())
    assert start == 10
    assert done == 10 + 24


def test_bus_serializes_transactions():
    bus = Bus(_bus_config())
    _, first_done = bus.transfer(0, _msg())
    start, _ = bus.transfer(0, _msg(src=1))
    assert start == first_done


def test_bus_idle_gap_not_charged():
    bus = Bus(_bus_config())
    _, done = bus.transfer(0, _msg())
    start, _ = bus.transfer(done + 100, _msg())
    assert start == done + 100


def test_bus_stats_accumulate():
    bus = Bus(_bus_config())
    bus.transfer(0, _msg(kind=MessageKind.BROADCAST, payload=32))
    bus.transfer(0, _msg(kind=MessageKind.REQUEST, payload=0))
    stats = bus.stats
    assert stats.transactions == 2
    assert stats.payload_bytes == 32
    assert stats.wire_bytes == 32 + 8 + 0 + 8
    assert stats.by_kind[MessageKind.BROADCAST] == 1
    assert stats.by_kind[MessageKind.REQUEST] == 1
    assert 0 < stats.utilization(1000) < 1


def test_bus_reset():
    bus = Bus(_bus_config())
    bus.transfer(0, _msg())
    bus.reset()
    assert bus.next_free() == 0
    assert bus.stats.transactions == 0


# ----------------------------------------------------------------------
# Message.
# ----------------------------------------------------------------------
def test_message_is_data():
    assert _msg(kind=MessageKind.BROADCAST).is_data
    assert _msg(kind=MessageKind.RESPONSE).is_data
    assert not _msg(kind=MessageKind.REQUEST, payload=0).is_data


def test_message_negative_payload_rejected():
    with pytest.raises(ValueError):
        Message(MessageKind.BROADCAST, 0, 0, payload_bytes=-1)


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
    assert q.mean_delay() == 2.5


def test_latency_queue_validation_and_reset():
    with pytest.raises(ConfigError):
        LatencyQueue(latency=-1)
    q = LatencyQueue(latency=1)
    q.enqueue(0)
    q.reset()
    assert q.items == 0 and q.mean_delay() == 0.0


# ----------------------------------------------------------------------
# Ring.
# ----------------------------------------------------------------------
def test_ring_broadcast_reaches_all_nodes_in_order():
    ring = Ring(_bus_config(), num_nodes=4, hop_latency=1)
    arrivals = ring.broadcast(0, _msg(src=0))
    # Node 1 hears it first, then 2, then 3, then back at the source.
    assert arrivals[1] < arrivals[2] < arrivals[3] <= arrivals[0]


def test_ring_point_to_point_shorter_than_full_loop():
    ring = Ring(_bus_config(), num_nodes=4, hop_latency=1)
    t_near = ring.send(0, _msg(src=0), dest=1)
    ring.reset()
    t_far = ring.send(0, _msg(src=0), dest=3)
    assert t_near < t_far


def test_ring_links_pipeline_independent_messages():
    cfg = _bus_config()
    ring = Ring(cfg, num_nodes=4, hop_latency=1)
    a = ring.broadcast(0, _msg(src=0))
    b = ring.broadcast(0, _msg(src=2))
    # Messages from different sources share only some links, so the second
    # broadcast finishes earlier than strict serialization would allow.
    serialized_finish = max(a) + (max(a) - 0)
    assert max(b) < serialized_finish


def test_ring_validation():
    with pytest.raises(ConfigError):
        Ring(_bus_config(), num_nodes=0)
    with pytest.raises(ConfigError):
        Ring(_bus_config(), num_nodes=2, hop_latency=-1)


def test_ring_send_to_self_is_immediate():
    ring = Ring(_bus_config(), num_nodes=4)
    assert ring.send(7, _msg(src=2), dest=2) == 7
