"""Figure 7: timing-simulation IPC comparison.

Per benchmark, five systems: a perfect data cache, DataScalar with two
and four nodes, and traditional systems with one-half and one-quarter of
main memory on-chip — each traditional system matched against the
DataScalar machine with the same per-chip memory.

The five systems are expressed as :class:`~repro.runner.SweepPoint`
chunks and executed by the sweep runner, so a whole figure's worth of
benchmarks fans out over one batch (and one process pool, at
``--jobs N``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import format_ipc, format_table
from ..workloads import TIMING_BENCHMARKS
from .config import datascalar_config, timing_node_config, traditional_config

#: Points per benchmark chunk (perfect + DS/trad per node count).
_CHUNK = 5


@dataclass
class Figure7Row:
    """IPC of the five simulated systems for one benchmark."""

    benchmark: str
    perfect_ipc: float
    datascalar2_ipc: float
    datascalar4_ipc: float
    traditional_half_ipc: float
    traditional_quarter_ipc: float
    #: The full result objects, for Table 3 and deeper inspection.
    datascalar2_result: object = None
    datascalar4_result: object = None

    @property
    def speedup_2(self) -> float:
        """DataScalar-2 over the matched traditional system."""
        return self.datascalar2_ipc / self.traditional_half_ipc

    @property
    def speedup_4(self) -> float:
        return self.datascalar4_ipc / self.traditional_quarter_ipc


def benchmark_points(name: str, scale: int = 1, limit=None,
                     node=None, bus=None):
    """The five sweep points of one Figure 7 benchmark, in the fixed
    chunk order [perfect, ds2, trad2, ds4, trad4]."""
    from ..runner import SweepPoint

    node = node or timing_node_config()
    points = [SweepPoint.make("perfect", name, scale=scale, limit=limit,
                              config=node.cpu, label=f"{name}/perfect")]
    for count in (2, 4):
        points.append(SweepPoint.make(
            "datascalar", name, scale=scale, limit=limit,
            config=datascalar_config(count, node=node, bus=bus),
            label=f"{name}/ds{count}",
        ))
        points.append(SweepPoint.make(
            "traditional", name, scale=scale, limit=limit,
            config=traditional_config(count, node=node, bus=bus),
            label=f"{name}/trad{count}",
        ))
    return points


def row_from_chunk(name: str, chunk) -> Figure7Row:
    """Assemble a :class:`Figure7Row` from one benchmark's five results
    (in :func:`benchmark_points` order)."""
    perfect, ds2, trad2, ds4, trad4 = chunk
    return Figure7Row(
        benchmark=name,
        perfect_ipc=perfect.ipc,
        datascalar2_ipc=ds2.ipc,
        datascalar4_ipc=ds4.ipc,
        traditional_half_ipc=trad2.ipc,
        traditional_quarter_ipc=trad4.ipc,
        datascalar2_result=ds2,
        datascalar4_result=ds4,
    )


def run_figure7(benchmarks=None, scale: int = 1, limit=None,
                node=None, bus=None, runner=None):
    """Regenerate Figure 7's bars for every timing benchmark (one
    runner batch across all of them)."""
    from ..runner import get_default_runner

    runner = runner or get_default_runner()
    names = list(benchmarks or TIMING_BENCHMARKS)
    points = []
    for name in names:
        points.extend(benchmark_points(name, scale=scale, limit=limit,
                                       node=node, bus=bus))
    results = runner.run(points)
    return [row_from_chunk(name, results[i * _CHUNK:(i + 1) * _CHUNK])
            for i, name in enumerate(names)]


def format_figure7(rows) -> str:
    return format_table(
        ["benchmark", "perfect", "DS 2n", "DS 4n", "trad 1/2", "trad 1/4",
         "DS2/trad", "DS4/trad"],
        [[r.benchmark, format_ipc(r.perfect_ipc),
          format_ipc(r.datascalar2_ipc), format_ipc(r.datascalar4_ipc),
          format_ipc(r.traditional_half_ipc),
          format_ipc(r.traditional_quarter_ipc),
          f"{r.speedup_2:.2f}x", f"{r.speedup_4:.2f}x"] for r in rows],
        title="Figure 7: instructions per cycle (timing simulation)",
    )
