#!/usr/bin/env python
"""Diagnosing a DataScalar run: timelines and skew.

Records a cycle-sampled timeline of a 2-node run (per-node commit
progress, BSHR/DCUB occupancy, broadcast counts) and reports the commit
skew between nodes — how far the datathreading leader runs ahead.

Run:  python examples/run_diagnostics.py [workload]
"""

import sys

from repro.analysis import TimelineRecorder
from repro.core import DataScalarSystem
from repro.experiments import datascalar_config, timing_node_config
from repro.workloads import build_program

LIMIT = 20_000


def main(workload: str = "gcc") -> None:
    program = build_program(workload)
    config = datascalar_config(2, node=timing_node_config())

    recorder = TimelineRecorder(sample_every=250)
    result = DataScalarSystem(config).run(program, limit=LIMIT,
                                          observer=recorder)
    timeline = recorder.timeline
    skew = timeline.commit_skew()
    print(f"workload {workload}: {result.cycles:,} cycles, "
          f"IPC {result.ipc:.2f}")
    print(f"samples: {len(timeline.samples)} "
          f"(every 250 cycles)")
    print(f"commit skew between nodes: max {max(skew)}, "
          f"mean {sum(skew) / len(skew):.1f} instructions")
    print(f"peak BSHR occupancy: "
          f"{max(max(s.bshr_occupancy) for s in timeline.samples)}")
    print(f"peak DCUB occupancy: "
          f"{max(max(s.dcub_occupancy) for s in timeline.samples)}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "gcc")
