"""Node-count scaling: how far do broadcasts carry?

Paper Section 4.4: "In general, broadcast operations are both expensive
and not scalable."  DataScalar's saving grace is that its *traffic* does
not grow with node count (each missed line crosses the interconnect
exactly once), but per-chip memory shrinks as 1/N and every node must
consume every broadcast.  This experiment sweeps the node count and
reports IPC, interconnect utilization, and per-node broadcast load for
both DataScalar and the matched traditional system.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import format_ipc, format_percent, format_table
from .config import datascalar_config, timing_node_config, \
    traditional_config

#: Default node counts swept.
NODE_COUNTS = (1, 2, 4, 8)


@dataclass
class ScalingPoint:
    """One (benchmark, node count) measurement."""

    benchmark: str
    num_nodes: int
    datascalar_ipc: float
    traditional_ipc: float
    bus_utilization: float
    broadcasts: int

    @property
    def speedup(self) -> float:
        if self.traditional_ipc == 0:
            return 0.0
        return self.datascalar_ipc / self.traditional_ipc


def run_scaling(benchmark: str = "compress", node_counts=NODE_COUNTS,
                scale: int = 1, limit=None, node=None, bus=None,
                runner=None):
    """Sweep ``node_counts`` for one benchmark."""
    from ..runner import SweepPoint, get_default_runner

    runner = runner or get_default_runner()
    node = node or timing_node_config()
    sweep = []
    for count in node_counts:
        sweep.append(SweepPoint.make(
            "datascalar", benchmark, scale=scale, limit=limit,
            config=datascalar_config(count, node=node, bus=bus),
            label=f"scaling/{benchmark}/ds{count}"))
        sweep.append(SweepPoint.make(
            "traditional", benchmark, scale=scale, limit=limit,
            config=traditional_config(count, node=node, bus=bus),
            label=f"scaling/{benchmark}/trad{count}"))
    results = runner.run(sweep)
    points = []
    for index, count in enumerate(node_counts):
        ds, trad = results[2 * index], results[2 * index + 1]
        points.append(ScalingPoint(
            benchmark=benchmark,
            num_nodes=count,
            datascalar_ipc=ds.ipc,
            traditional_ipc=trad.ipc,
            bus_utilization=ds.bus_utilization,
            broadcasts=sum(n.broadcasts_sent for n in ds.nodes),
        ))
    return points


def format_scaling(points) -> str:
    benchmark = points[0].benchmark if points else "?"
    return format_table(
        ["nodes", "DataScalar IPC", "traditional IPC", "DS/trad",
         "bus util", "broadcasts"],
        [[p.num_nodes, format_ipc(p.datascalar_ipc),
          format_ipc(p.traditional_ipc), f"{p.speedup:.2f}x",
          format_percent(min(p.bus_utilization, 9.99)), p.broadcasts]
         for p in points],
        title=f"Scaling with node count ({benchmark})",
    )
