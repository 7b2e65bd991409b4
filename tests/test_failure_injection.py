"""Failure injection: break the protocol's preconditions on purpose and
check the machinery detects the damage instead of silently mis-simulating.
"""

import pytest

from repro.core import DataScalarSystem
from repro.core.node import DataScalarNode
from repro.core.system import DataScalarSystem as _System
from repro.errors import ProtocolError, ReproError, SimulationError
from repro.experiments import datascalar_config, timing_node_config
from repro.isa import ProgramBuilder
from repro.workloads import build_program


_ORIGINAL_LOAD_ISSUE = DataScalarNode.load_issue


def _issue_updating_load_issue(self, now, addr, size):
    """A deliberately broken issue path that fills the cache at *issue*
    time — the discipline the paper shows destroys correspondence
    (Section 4.1: 'If two loads to different lines in the same cache set
    are issued in a different order at two processors, that set will
    replace different lines, and the caches will cease to be
    correspondent')."""
    handle = _ORIGINAL_LOAD_ISSUE(self, now, addr, size)
    # The forbidden issue-time update of the node's cache view.
    self.resident.add(addr & ~(self.config.dcache.line_size - 1))
    return handle


class _BrokenSystem(_System):
    """DataScalarSystem that builds issue-updating nodes."""

    def run(self, program, **kwargs):
        DataScalarNode.load_issue = _issue_updating_load_issue
        try:
            return super().run(program, **kwargs)
        finally:
            DataScalarNode.load_issue = _ORIGINAL_LOAD_ISSUE


def test_issue_time_cache_updates_are_detected():
    """With issue-time fills, a node's issue-time view and the canonical
    cache state diverge; the first commit that sees the damage raises a
    protocol violation naming the node, the line and the cycle — never
    a silent pass, and not only at the end of the run."""
    program = build_program("turb3d")
    config = datascalar_config(2, node=timing_node_config(
        dcache_bytes=1024))
    with pytest.raises(ProtocolError,
                       match=r"^node 0: line 0x10004000 is resident at "
                             r"cycle 19, but its canonical access missed"):
        _BrokenSystem(config).run(program, limit=8000)


def test_mismatched_traces_are_detected():
    """SPSD requires every node to run the same program; feeding nodes
    different instruction counts must be caught at collection."""
    import dataclasses

    from repro.core.system import DataScalarSystem as S

    class TwoProgramSystem(S):
        def run(self, program, **kwargs):
            # Run normally, then corrupt one pipeline's committed count
            # to simulate divergent streams.
            result = super().run(program, **kwargs)
            return result

    # Direct unit check on the guard itself:
    from repro.cpu.pipeline import PipelineStats
    system = S(datascalar_config(2))

    class FakePipe:
        def __init__(self, committed):
            self.stats = PipelineStats()
            self.stats.committed = committed

    class FakeNode:
        node_id = 0

        def validate_final_state(self):
            pass

    with pytest.raises(ProtocolError):
        system._collect(
            cycles=10,
            pipelines=[FakePipe(5), FakePipe(6)],
            nodes=[],
            medium=_DummyMedium(),
            page_table=_DummyTable(),
            layout_summary=None,
        )


class _DummyMedium:
    transactions = 0
    payload_bytes = 0

    def utilization(self, cycles):
        return 0.0


class _DummyTable:
    unmapped_accesses = 0


def test_program_without_halt_cannot_enter_the_system():
    b = ProgramBuilder()
    b.nop()
    with pytest.raises(ReproError):
        b.build()


def test_runaway_program_hits_max_cycles_guard():
    import dataclasses

    b = ProgramBuilder()
    b.label("spin")
    b.j("spin")
    b.halt()
    config = dataclasses.replace(datascalar_config(2), max_cycles=2000)
    with pytest.raises(SimulationError):
        DataScalarSystem(config).run(b.build())
