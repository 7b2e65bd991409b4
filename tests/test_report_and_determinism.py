"""Whole-simulator determinism."""

from repro.core import DataScalarSystem
from repro.experiments import datascalar_config
from repro.workloads import build_program


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
