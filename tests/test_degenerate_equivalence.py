"""Where two machines coincide physically, their numbers must coincide.

A DataScalar node with no peers holds all of memory on-chip, and so does
the traditional system with ``onchip_fraction_denom=1``; both update the
cache at commit through a DCUB.  So does a DataScalar machine of any
size whose every mapped page is replicated: no node ever broadcasts.
Each of these degenerate DataScalar machines must report exactly the
traditional 1/1 machine's cycles, committed instructions and stall
counters, on every kernel.
"""

import dataclasses

import pytest

from repro.baseline import TraditionalSystem
from repro.core import DataScalarSystem
from repro.experiments.config import (datascalar_config, timing_node_config,
                                      traditional_config)
from repro.workloads import WORKLOADS, build_program

LIMIT = 3_000
#: ``DataScalarSystem.run``'s default stack extent.
STACK_BYTES = 64 * 1024


def _numbers(cycles, stats):
    return (cycles, stats.committed, stats.fetch_stalls,
            stats.window_stalls, stats.lsq_stalls)


def _every_page(program, page_size):
    """Every page the layout maps for ``program``."""
    extents = program.segment_extents(stack_bytes=STACK_BYTES).values()
    return frozenset(page for low, high in extents
                     for page in range(low // page_size,
                                       (high - 1) // page_size + 1))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_degenerate_datascalar_equals_traditional_1_1(workload):
    program = build_program(workload)
    traditional = TraditionalSystem(traditional_config(1)).run(
        program, limit=LIMIT)
    expected = _numbers(traditional.cycles, traditional.pipeline)

    for medium in ("bus", "ring"):
        config = dataclasses.replace(datascalar_config(1),
                                     interconnect=medium)
        result = DataScalarSystem(config).run(program, limit=LIMIT)
        (only,) = result.nodes
        assert _numbers(result.cycles, only.pipeline) == expected, (
            f"1 node, {medium}")

    pages = _every_page(program, timing_node_config().memory.page_size)
    for num_nodes in (2, 4, 8):
        result = DataScalarSystem(datascalar_config(num_nodes)).run(
            program, replicated_pages=pages, limit=LIMIT)
        assert result.bus_transactions == 0, f"{num_nodes} nodes"
        for node in result.nodes:
            assert _numbers(result.cycles, node.pipeline) == expected, (
                f"{num_nodes} nodes, node {node.node_id}, all replicated")
