"""Unit tests for the synchronous ESP (Massive Memory Machine) model."""

import pytest

from repro.core import MassiveMemoryMachine
from repro.errors import ConfigError


def test_figure1_schedule_matches_paper():
    """Figure 1: w1-w4 on machine 0 at cycles 1-4, lead change, w5-w7 on
    machine 1 at cycles 7-9, lead change, w8-w9 at cycles 12-13."""
    mmm = MassiveMemoryMachine(num_processors=2)
    result = mmm.figure1_example()
    assert result.receive_times == [1, 2, 3, 4, 7, 8, 9, 12, 13]
    assert result.lead_changes == 2
    assert result.datathreads == [4, 3, 2]


def test_single_owner_pipelines_at_broadcast_latency():
    mmm = MassiveMemoryMachine(num_processors=4)
    result = mmm.schedule([0] * 10)
    assert result.receive_times == list(range(1, 11))
    assert result.lead_changes == 0
    assert result.datathreads == [10]


def test_alternating_owners_pay_every_lead_change():
    mmm = MassiveMemoryMachine(num_processors=2, broadcast_latency=1,
                               lead_change_penalty=3)
    result = mmm.schedule([0, 1, 0, 1])
    assert result.lead_changes == 3
    assert result.total_cycles == 1 + 3 + 3 + 3
    assert result.datathreads == [1, 1, 1, 1]


def test_longer_datathreads_beat_shorter_for_same_string_length():
    mmm = MassiveMemoryMachine(num_processors=2)
    blocked = mmm.schedule([0] * 4 + [1] * 4)
    interleaved = mmm.schedule([0, 1] * 4)
    assert blocked.total_cycles < interleaved.total_cycles


def test_owner_out_of_range_rejected():
    mmm = MassiveMemoryMachine(num_processors=2)
    with pytest.raises(ConfigError):
        mmm.schedule([0, 2])


def test_empty_reference_string():
    result = MassiveMemoryMachine(2).schedule([])
    assert result.receive_times == []
    assert result.total_cycles == 0
    assert result.datathreads == []


@pytest.mark.parametrize("kwargs", [
    {"num_processors": 0},
    {"num_processors": 2, "broadcast_latency": 0},
    {"num_processors": 2, "broadcast_latency": 2, "lead_change_penalty": 1},
])
def test_validation(kwargs):
    with pytest.raises(ConfigError):
        MassiveMemoryMachine(**kwargs)
