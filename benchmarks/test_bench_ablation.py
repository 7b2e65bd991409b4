"""Ablation benchmarks for the design choices DESIGN.md calls out.

These are not paper figures; they quantify the individual mechanisms:
write policy under ESP, static replication, distribution block size,
the commit-time-update correspondence discipline, and bus-vs-ring
broadcasting.
"""

import dataclasses

from conftest import run_once

from repro.analysis import CostModel, format_table
from repro.core import (
    DataScalarSystem,
    MassiveMemoryMachine,
    plan_replication,
)
from repro.experiments import datascalar_config, timing_node_config
from repro.interconnect import make_medium
from repro.memory import profile_program
from repro.params import BusConfig
from repro.workloads import build_program

LIMIT = 10_000


def _run_ds(program, num_nodes=2, node=None, block=1, replicated=frozenset(),
            limit=LIMIT):
    config = datascalar_config(num_nodes, node=node,
                               distribution_block_pages=block)
    return DataScalarSystem(config).run(program, replicated_pages=replicated,
                                        limit=limit)


def test_ablation_write_allocate_broadcast_cost(benchmark):
    """Paper Section 4.2: write-noallocate is superior under ESP because
    a write-allocate miss forces a broadcast that the write overwrites."""
    program = build_program("compress")

    def run():
        noalloc = _run_ds(program, node=timing_node_config())
        node = timing_node_config()
        alloc_dcache = dataclasses.replace(node.dcache, write_allocate=True)
        alloc_node = dataclasses.replace(node, dcache=alloc_dcache)
        alloc = _run_ds(program, node=alloc_node)
        return noalloc, alloc

    noalloc, alloc = run_once(benchmark, run)
    na_b = sum(n.broadcasts_sent for n in noalloc.nodes)
    al_b = sum(n.broadcasts_sent for n in alloc.nodes)
    print()
    print(format_table(
        ["write policy", "broadcasts", "bus bytes", "IPC"],
        [["noallocate", na_b, noalloc.bus_payload_bytes,
          round(noalloc.ipc, 3)],
         ["allocate", al_b, alloc.bus_payload_bytes, round(alloc.ipc, 3)]],
        title="Ablation: D-cache write-miss policy under ESP",
    ))
    assert al_b > na_b


def test_ablation_static_replication(benchmark):
    """Replicating hot pages trades local memory for fewer broadcasts."""
    program = build_program("wave5")

    def run():
        profile = profile_program(program, 4096, limit=LIMIT)
        results = []
        for budget in (0, 4, 16):
            plan = plan_replication(program, profile, num_nodes=2,
                                    budget_pages=budget)
            results.append((budget, _run_ds(
                program, replicated=plan.replicated_pages)))
        return results

    results = run_once(benchmark, run)
    print()
    print(format_table(
        ["replicated pages", "broadcasts", "IPC"],
        [[budget, sum(n.broadcasts_sent for n in r.nodes), round(r.ipc, 3)]
         for budget, r in results],
        title="Ablation: static replication budget (wave5, 2 nodes)",
    ))
    broadcasts = [sum(n.broadcasts_sent for n in r.nodes)
                  for _, r in results]
    assert broadcasts[-1] < broadcasts[0]


def test_ablation_distribution_block_size(benchmark):
    """Larger distribution blocks lengthen datathreads (Table 2's knob)."""
    program = build_program("applu")

    def run():
        return [(block, _run_ds(program, block=block))
                for block in (1, 2, 4)]

    results = run_once(benchmark, run)
    print()
    print(format_table(
        ["block pages", "IPC", "found in BSHR"],
        [[block, round(r.ipc, 3), f"{r.found_in_bshr_fraction:.1%}"]
         for block, r in results],
        title="Ablation: distribution block size (applu, 2 nodes)",
    ))
    assert all(r.ipc > 0 for _, r in results)


def test_ablation_correspondence_absorbs_divergence(benchmark):
    """The commit-update discipline absorbs issue-order divergence: count
    the false hits/misses it reconciled without deadlock."""
    program = build_program("turb3d")

    def run():
        return _run_ds(program, limit=LIMIT)

    result = run_once(benchmark, run)
    false_hits = sum(n.false_hits for n in result.nodes)
    false_misses = sum(n.false_misses for n in result.nodes)
    print()
    print(format_table(
        ["metric", "count"],
        [["false hits repaired", false_hits],
         ["false misses folded", false_misses],
         ["late broadcasts", sum(n.late_broadcasts for n in result.nodes)],
         ["BSHR squashes", sum(n.bshr_squashes for n in result.nodes)]],
        title="Ablation: correspondence protocol work (turb3d, 2 nodes)",
    ))
    assert false_hits + false_misses > 0  # divergence actually occurred


def test_ablation_bus_vs_ring_broadcast(benchmark):
    """Section 4.4: rings pipeline independent broadcasts; buses
    serialize them.  Both media are the ones the simulator runs."""
    config = BusConfig()

    def run():
        done = {}
        for kind in ("bus", "ring"):
            medium = make_medium(kind, config, 4)
            last = 0
            for index in range(64):
                arrivals = medium.broadcast(0, index % 4, index * 32, 32)
                last = max(last, max(a for a in arrivals if a is not None))
            done[kind] = last
        return done["bus"], done["ring"]

    bus_done, ring_done = run_once(benchmark, run)
    print()
    print(format_table(
        ["interconnect", "64 broadcasts complete at cycle"],
        [["bus", bus_done], ["ring", ring_done]],
        title="Ablation: broadcast interconnect",
    ))
    assert ring_done < bus_done * 4  # the ring pipelines across links


def test_ablation_cost_effectiveness(benchmark):
    """Wood-Hill check on measured Figure 7 speedups."""
    program = build_program("compress")

    def run():
        from repro.baseline import TraditionalSystem
        from repro.experiments import traditional_config
        ds = _run_ds(program, num_nodes=2)
        trad = TraditionalSystem(traditional_config(2)).run(program,
                                                            limit=LIMIT)
        return ds, trad

    ds, trad = run_once(benchmark, run)
    speedup = ds.ipc / trad.ipc
    model = CostModel(processor_cost=1.0, memory_cost=8.0,
                      overhead_cost=0.25)
    costup = model.costup(2)
    print()
    print(format_table(
        ["metric", "value"],
        [["speedup (DS2 / trad 1/2)", round(speedup, 3)],
         ["costup (memory-dominated)", round(costup, 3)],
         ["cost-effective", model.is_cost_effective(2, speedup)]],
        title="Ablation: Wood-Hill cost-effectiveness (compress)",
    ))
    assert costup < 2.0  # adding a processor far from doubles system cost

