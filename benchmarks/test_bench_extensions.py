"""Benchmarks for the extension features beyond the paper's figures:
technology scenarios, hybrid SPSD/SPMD, datathread-aware placement, and
the broadcast transports.
"""

from conftest import run_once

from repro.analysis import format_table
from repro.core import (
    AffinityGraph,
    HybridSystem,
    ParallelPhase,
    SerialPhase,
    analyze_stream,
    plan_placement,
    round_robin_placement,
)
from repro.experiments import datascalar_config, run_scenarios, \
    timing_node_config
from repro.isa import Interpreter, ProgramBuilder
from repro.workloads import build_program

LIMIT = 10_000


def test_extension_technology_scenarios(benchmark):
    """Section 1's three candidate platforms on one workload."""
    program = build_program("compress")
    results = run_once(benchmark, run_scenarios, program, num_nodes=2,
                       limit=LIMIT)
    print()
    print(format_table(
        ["scenario", "DataScalar IPC", "traditional IPC", "speedup"],
        [[r.scenario, round(r.datascalar_ipc, 3),
          round(r.traditional_ipc, 3), f"{r.speedup:.2f}x"]
         for r in results],
        title="Extension: technology scenarios (compress, 2 nodes)",
    ))
    by_name = {r.scenario: r for r in results}
    assert by_name["cmp"].datascalar_ipc > by_name["now"].datascalar_ipc


def test_extension_hybrid_spsd_spmd(benchmark):
    """Section 5.2: partitioned SPMD sweep vs redundant SPSD."""
    words = 4096
    nodes = 2

    def sweep(start, count, name):
        b = ProgramBuilder(name)
        arr = b.alloc_global("arr", words * 4)
        b.li("r1", arr + 4 * start)
        b.li("r2", 0)
        with b.repeat(count, "r3"):
            b.lw("r4", "r1", 0)
            b.add("r2", "r2", "r4")
            b.sw("r2", "r1", 0)
            b.addi("r1", "r1", 4)
        b.halt()
        return b.build()

    config = datascalar_config(nodes, node=timing_node_config())

    def run():
        system = HybridSystem(config)
        spsd = system.run([SerialPhase(sweep(0, words, "whole"))])
        spmd = system.run([ParallelPhase(
            [sweep(i * words // nodes, words // nodes, f"p{i}")
             for i in range(nodes)], boundary_bytes=16)])
        return spsd, spmd

    spsd, spmd = run_once(benchmark, run)
    print()
    print(format_table(
        ["strategy", "cycles"],
        [["pure SPSD", spsd.total_cycles],
         ["SPMD partitioned", spmd.total_cycles]],
        title="Extension: hybrid execution (2 nodes)",
    ))
    assert spmd.total_cycles < spsd.total_cycles


def test_extension_datathread_placement(benchmark):
    """Affinity placement vs round-robin, measured in datathread length."""
    program = build_program("gcc")
    page_size = 4096

    def run():
        graph = AffinityGraph(page_size)
        interp = Interpreter(program)
        addrs = [ref.addr for ref in
                 interp.mem_refs(limit=40_000, include_ifetch=False)]
        graph.observe_stream(addrs)
        smart = plan_placement(graph, num_nodes=4)
        naive = round_robin_placement(graph, num_nodes=4)
        smart_report = analyze_stream(
            smart.build_page_table(page_size), addrs)
        naive_report = analyze_stream(
            naive.build_page_table(page_size), addrs)
        return smart, naive, smart_report, naive_report

    smart, naive, smart_report, naive_report = run_once(benchmark, run)
    print()
    print(format_table(
        ["layout", "cut weight", "mean datathread"],
        [["round-robin", naive.cut_weight,
          round(naive_report.mean_length, 2)],
         ["affinity", smart.cut_weight,
          round(smart_report.mean_length, 2)]],
        title="Extension: datathread-aware placement (gcc, 4 nodes)",
    ))
    assert smart.cut_weight <= naive.cut_weight
    assert smart_report.mean_length >= naive_report.mean_length


def test_extension_broadcast_medium_comparison(benchmark):
    """Section 4.4's transports compared at system level: the serializing
    bus, an SCI-style ring, and free-space optics."""
    import dataclasses

    from repro.core import DataScalarSystem

    program = build_program("wave5")
    base = datascalar_config(4, node=timing_node_config())

    def run():
        out = {}
        for kind in ("bus", "ring", "optical"):
            config = dataclasses.replace(base, interconnect=kind)
            out[kind] = DataScalarSystem(config).run(program, limit=LIMIT)
        return out

    results = run_once(benchmark, run)
    print()
    print(format_table(
        ["medium", "IPC", "broadcasts"],
        [[kind, round(r.ipc, 3), r.bus_transactions]
         for kind, r in results.items()],
        title="Extension: broadcast medium (wave5, 4 nodes)",
    ))
    assert results["optical"].ipc >= results["bus"].ipc


def test_extension_result_communication_executed(benchmark):
    """Section 5.1 executed in the timing simulator: private regions run
    only at their owner; one mailbox broadcast carries the result."""
    from repro.core.resultcomm_exec import run_with_result_communication

    program = build_program("gcc")
    config = datascalar_config(2, node=timing_node_config())

    def run():
        return run_with_result_communication(program, config, min_loads=6,
                                             limit=LIMIT)

    base, optimized, regions = run_once(benchmark, run)
    b_base = sum(n.broadcasts_sent for n in base.nodes)
    b_opt = sum(n.broadcasts_sent for n in optimized.nodes)
    print()
    print(format_table(
        ["mode", "cycles", "broadcasts"],
        [["plain ESP", base.cycles, b_base],
         [f"result comm ({len(regions)} regions)", optimized.cycles,
          b_opt]],
        title="Extension: executed result communication (gcc, 2 nodes)",
    ))
    assert b_opt < b_base
