#!/usr/bin/env python
"""Memory-system study: traffic, replication planning, cost-effectiveness.

Takes one SPEC95-like workload (compress by default) and walks the
paper's memory-system analyses end to end:

1. Table-1-style ESP traffic accounting (what leaves the chip?).
2. Profile-driven static replication planning (Section 3.2).
3. The effect of replication on a real 2-node DataScalar run.
4. A Wood-Hill costup/speedup cost-effectiveness check (Section 4.4).

Run:  python examples/memory_system_study.py [workload]
"""

import sys

from repro import DataScalarSystem, TraditionalSystem
from repro.analysis import CostModel, format_percent, measure_esp_traffic
from repro.core import plan_replication
from repro.experiments import (
    datascalar_config,
    timing_node_config,
    traditional_config,
)
from repro.memory import profile_program
from repro.workloads import build_program


def main(workload: str = "compress") -> None:
    program = build_program(workload)
    print(f"workload: {workload} ({program.text_bytes}B text, "
          f"{program.global_bytes + program.heap_bytes}B data)\n")

    # 1. ESP traffic accounting.
    traffic = measure_esp_traffic(program)
    print("1) ESP traffic accounting (Table 1 methodology)")
    print(f"   line misses {traffic.misses}, write-backs "
          f"{traffic.writebacks}")
    print(f"   bytes eliminated by ESP: "
          f"{format_percent(traffic.bytes_eliminated)}")
    print(f"   transactions eliminated: "
          f"{format_percent(traffic.transactions_eliminated)}\n")

    # 2. Replication planning.
    plan = plan_replication(program, profile_program(program, 4096),
                            num_nodes=2, budget_pages=6)
    hottest = plan.profile.pages_by_count()[:3]
    print("2) profile-driven replication plan")
    print(f"   hottest pages (page, accesses): {hottest}")
    print(f"   replicating {len(plan.replicated_pages)} pages; "
          f"distribution block {plan.distribution_block_pages} page(s)\n")

    # 3. Measured effect of replication.
    node = timing_node_config()
    base = DataScalarSystem(datascalar_config(2, node=node)).run(program)
    repl = DataScalarSystem(datascalar_config(2, node=node)).run(
        program, replicated_pages=plan.replicated_pages)
    print("3) two-node DataScalar runs")
    print(f"   no replication : IPC {base.ipc:.2f}, "
          f"{sum(n.broadcasts_sent for n in base.nodes)} broadcasts")
    print(f"   hot pages repl.: IPC {repl.ipc:.2f}, "
          f"{sum(n.broadcasts_sent for n in repl.nodes)} broadcasts\n")

    # 4. Cost-effectiveness.
    trad = TraditionalSystem(traditional_config(2, node=node)).run(program)
    speedup = trad.cycles / repl.cycles
    model = CostModel(processor_cost=1.0, memory_cost=8.0,
                      overhead_cost=0.25,
                      replicated_fraction=0.1)
    costup = model.costup(2)
    verdict = "YES" if model.is_cost_effective(2, speedup) else "no"
    print("4) Wood-Hill cost-effectiveness (memory-dominated chips)")
    print(f"   speedup over traditional: {speedup:.2f}x, "
          f"costup of the second node: {costup:.2f}x")
    print(f"   cost-effective: {verdict}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "compress")
