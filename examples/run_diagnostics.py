#!/usr/bin/env python
"""Diagnosing a DataScalar run: commit skew and buffer occupancy.

Traces a 2-node run and samples, every 250 cycles, each node's committed
count, the lines staged in its DCUB and the loads it has waiting on an
owner's broadcast, all from the traced events' cycles; then reports the
commit skew between nodes — how far the datathreading leader runs
ahead.  The tracer is passive, so the run skips idle cycles like an
untraced one.

Run:  python examples/run_diagnostics.py [workload]
"""

import sys
from bisect import bisect_right

from repro.core import DataScalarSystem
from repro.experiments import datascalar_config, timing_node_config
from repro.obs import EventKind, EventTracer
from repro.workloads import build_program

LIMIT = 20_000
SAMPLE_EVERY = 250


def main(workload: str = "gcc") -> None:
    program = build_program(workload)
    config = datascalar_config(2, node=timing_node_config())

    tracer = EventTracer(kinds={
        EventKind.COMMIT, EventKind.DCUB_STAGE, EventKind.DCUB_APPLY,
        EventKind.BSHR_ALLOC, EventKind.BCAST_CONSUME})
    result = DataScalarSystem(config).run(program, limit=LIMIT,
                                          tracer=tracer)
    # Sorted event cycles per (kind, node).  A load waits from its
    # bshr-alloc until the arrival that wakes it: an unsquashed
    # bcast-consume, which carries the arrival cycle.
    cycles: dict = {}
    for event in tracer.events:
        if event.kind is EventKind.BCAST_CONSUME and event.args["squashed"]:
            continue
        cycles.setdefault((event.kind, event.node), []).append(event.cycle)
    for times in cycles.values():
        times.sort()
    nodes = range(len(result.nodes))
    samples = range(0, result.cycles, SAMPLE_EVERY)

    def count(kind, node, cycle):
        """Events of ``kind`` on ``node`` at or before ``cycle``."""
        return bisect_right(cycles.get((kind, node), []), cycle)

    def peak(enter, leave):
        """Most entries any node held at a sample: ``enter`` events
        minus ``leave`` events so far."""
        return max(count(enter, node, cycle) - count(leave, node, cycle)
                   for cycle in samples for node in nodes)

    committed = [[count(EventKind.COMMIT, node, cycle) for node in nodes]
                 for cycle in samples]
    skew = [max(row) - min(row) for row in committed]
    print(f"workload {workload}: {result.cycles:,} cycles, "
          f"IPC {result.ipc:.2f}")
    print(f"samples: {len(samples)} "
          f"(every {SAMPLE_EVERY} cycles)")
    print(f"commit skew between nodes: max {max(skew)}, "
          f"mean {sum(skew) / len(skew):.1f} instructions")
    print(f"peak loads waiting on a broadcast: "
          f"{peak(EventKind.BSHR_ALLOC, EventKind.BCAST_CONSUME)}")
    print(f"peak DCUB occupancy: "
          f"{peak(EventKind.DCUB_STAGE, EventKind.DCUB_APPLY)}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "gcc")
