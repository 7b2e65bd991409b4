"""Tests for the pluggable broadcast media and the system-level
interconnect choice (paper Section 4.4)."""

import pytest

from repro.core import DataScalarSystem
from repro.errors import ConfigError
from repro.experiments import datascalar_config, timing_node_config
from repro.interconnect import Bus, Ring, make_medium
from repro.params import BusConfig, SystemConfig
from repro.workloads import build_program


def _cfg():
    return BusConfig()


def test_make_medium_factory():
    assert isinstance(make_medium("bus", _cfg(), 4), Bus)
    assert isinstance(make_medium("ring", _cfg(), 4), Ring)
    with pytest.raises(ConfigError):
        make_medium("telepathy", _cfg(), 4)


def test_bus_medium_uniform_arrivals():
    medium = Bus(_cfg(), num_nodes=4)
    arrivals = medium.broadcast(0, src=1, line=0x100, payload_bytes=32)
    assert arrivals[1] is None
    others = [a for i, a in enumerate(arrivals) if i != 1]
    assert len(set(others)) == 1  # a bus delivers to all simultaneously
    assert medium.transactions == 1
    assert medium.payload_bytes == 32


def test_ring_medium_staggered_arrivals():
    medium = Ring(_cfg(), num_nodes=4)
    arrivals = medium.broadcast(0, src=0, line=0x100, payload_bytes=32)
    assert arrivals[0] is None
    assert arrivals[1] < arrivals[2] < arrivals[3]


def test_system_config_validates_interconnect():
    with pytest.raises(ConfigError):
        SystemConfig(interconnect="carrier-pigeon")


@pytest.mark.parametrize("kind", ["bus", "ring"])
def test_datascalar_runs_on_every_medium(kind):
    import dataclasses
    program = build_program("compress")
    config = dataclasses.replace(
        datascalar_config(2, node=timing_node_config()), interconnect=kind)
    result = DataScalarSystem(config).run(program, limit=5000)
    assert result.instructions == 5000
    assert result.bus_transactions > 0


def test_ring_not_slower_than_bus_with_parallel_senders():
    """Ring links pipeline; with four senders it should at least match
    the serializing bus."""
    import dataclasses
    program = build_program("wave5")
    base = datascalar_config(4, node=timing_node_config())
    bus = DataScalarSystem(base).run(program, limit=8000)
    ring = DataScalarSystem(dataclasses.replace(
        base, interconnect="ring")).run(program, limit=8000)
    assert ring.ipc > bus.ipc * 0.8
