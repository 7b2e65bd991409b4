#!/usr/bin/env python
"""Quickstart: write a kernel, run it on three machines, compare.

Builds a small array-sweep program with the :class:`ProgramBuilder` DSL,
then simulates it on a 2-node DataScalar system, the matched traditional
system (half the memory on-chip, request/response off-chip), and the
perfect-data-cache upper bound.

Run:  python examples/quickstart.py
"""

from repro import (
    DataScalarSystem,
    PerfectSystem,
    TraditionalSystem,
)
from repro.experiments import (
    datascalar_config,
    timing_node_config,
    traditional_config,
)
from repro.isa import ProgramBuilder


def build_sweep_program(words: int = 8192):
    """A read-modify-write sweep over ``words`` integers (32KB)."""
    b = ProgramBuilder("sweep")
    data = b.alloc_global("data", words * 4)
    b.li("r1", data)
    b.li("r2", 0)
    with b.repeat(words, "r3"):
        b.lw("r4", "r1", 0)       # load
        b.add("r2", "r2", "r4")   # accumulate
        b.sw("r2", "r1", 0)       # store the running sum back
        b.addi("r1", "r1", 4)
    b.halt()
    return b.build()


def main() -> None:
    program = build_sweep_program()
    print(f"program: {program!r}\n")

    node = timing_node_config()

    perfect = PerfectSystem(node.cpu).run(program)
    print(f"perfect data cache : IPC {perfect.ipc:5.2f} "
          f"({perfect.cycles:,} cycles)")

    ds = DataScalarSystem(datascalar_config(2, node=node)).run(program)
    print(f"DataScalar, 2 nodes: IPC {ds.ipc:5.2f} "
          f"({ds.cycles:,} cycles, "
          f"{sum(n.broadcasts_sent for n in ds.nodes)} broadcasts, "
          f"{sum(n.dropped_stores for n in ds.nodes)} stores dropped)")

    trad = TraditionalSystem(traditional_config(2, node=node)).run(program)
    print(f"traditional (1/2)  : IPC {trad.ipc:5.2f} "
          f"({trad.cycles:,} cycles, {trad.requests} requests, "
          f"{trad.writebacks_offchip + trad.writethroughs_offchip} "
          f"off-chip writes)")

    print(f"\nDataScalar speedup over traditional: "
          f"{trad.cycles / ds.cycles:.2f}x")
    print("Note how ESP removed every request and write from the bus: the")
    print("owner of each line pushes it once, and stores complete on-chip.")


if __name__ == "__main__":
    main()
