"""Unit tests for the replication policy."""

from repro.core import plan_replication, select_hot_pages
from repro.isa import Interpreter, ProgramBuilder
from repro.memory import GLOBAL_BASE, PageProfile, profile_program

PAGE = 4096


def _skewed_program():
    """Hammers one page, touches three others once per word."""
    b = ProgramBuilder("skewed")
    hot = b.alloc_global("hot", PAGE)
    cold = b.alloc_global("cold", 3 * PAGE)
    b.li("r1", hot)
    with b.repeat(50, "r5"):
        b.li("r2", 0)
        with b.repeat(64, "r3"):
            b.lw("r4", "r1", 0)
            b.addi("r2", "r2", 1)
    b.li("r1", cold)
    with b.repeat(3 * PAGE // 4, "r3"):
        b.lw("r4", "r1", 0)
        b.addi("r1", "r1", 4)
    b.halt()
    return b.build()


def _data_profile(program):
    """A page profile of ``program``'s data references only."""
    profile = PageProfile(PAGE)
    for _kind, addr in Interpreter(program).mem_refs(include_ifetch=False):
        profile.record(addr)
    return profile


def test_select_hot_pages_prefers_hammered_page():
    program = _skewed_program()
    profile = _data_profile(program)
    hot_page = GLOBAL_BASE // PAGE
    chosen = select_hot_pages(profile, budget_pages=1)
    assert chosen == frozenset({hot_page})


def test_select_hot_pages_budget_zero():
    program = _skewed_program()
    profile = _data_profile(program)
    assert select_hot_pages(profile, 0) == frozenset()


def test_plan_replication_produces_consistent_plan():
    program = _skewed_program()
    plan = plan_replication(program, profile_program(program, PAGE),
                            num_nodes=4, budget_pages=2)
    assert len(plan.replicated_pages) == 2
    assert plan.distribution_block_pages >= 1
    by_segment = plan.replicated_by_segment()
    assert sum(by_segment.values()) == 2
