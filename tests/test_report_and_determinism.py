"""Tests for the bar renderer and whole-simulator determinism."""

import pytest

from repro.analysis.report import render_bars
from repro.core import DataScalarSystem
from repro.experiments import datascalar_config
from repro.workloads import build_program


def test_render_bars_scales_to_peak():
    text = render_bars(["a", "b"], [2.0, 1.0], width=10)
    lines = text.splitlines()
    assert lines[0].count("#") == 10
    assert lines[1].count("#") == 5
    assert "2.00" in lines[0]


def test_render_bars_title_and_unit():
    text = render_bars(["x"], [1.5], title="T", unit=" IPC")
    assert text.startswith("T\n")
    assert "1.50 IPC" in text


def test_render_bars_zero_values():
    text = render_bars(["x", "y"], [0.0, 0.0])
    assert "#" not in text


def test_render_bars_validation_and_empty():
    with pytest.raises(ValueError):
        render_bars(["a"], [1, 2])
    assert render_bars([], [], title="T") == "T"


def test_datascalar_simulation_is_deterministic():
    """Two runs of the same configuration produce identical cycle counts
    and statistics — the whole simulator is replayable."""
    program = build_program("go")
    config = datascalar_config(2)
    first = DataScalarSystem(config).run(program, limit=6000)
    second = DataScalarSystem(config).run(program, limit=6000)
    assert first.cycles == second.cycles
    assert first.bus_transactions == second.bus_transactions
    for a, b in zip(first.nodes, second.nodes):
        assert a.broadcasts_sent == b.broadcasts_sent
        assert a.bshr_waits == b.bshr_waits
        assert a.false_hits == b.false_hits
