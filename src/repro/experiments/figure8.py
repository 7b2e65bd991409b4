"""Figure 8: sensitivity analysis of the DataScalar experiments.

For go and compress, sweep one machine parameter per panel — data-cache
size, main-memory access time, global bus clock divisor, global bus
width, and RUU entries — plotting the IPC of the same five systems as
Figure 7.  The paper's headline shapes: DataScalar wins consistently;
the systems converge as memory access time dominates; the DataScalar
advantage grows as the off-chip bus slows or narrows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import format_ipc, format_table
from .config import timing_bus_config, timing_node_config
from .figure7 import benchmark_points, row_from_chunk

#: The sweepable parameters and their default value grids.
PARAMETERS = {
    "cache_size": [2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024],
    "memory_latency": [4, 8, 16, 32],
    "bus_clock": [2, 4, 8, 16],
    "bus_width": [2, 4, 8, 16],
    "ruu_entries": [16, 64, 256, 1024],
}

#: The two benchmarks the paper sweeps.
FIGURE8_BENCHMARKS = ("go", "compress")


@dataclass
class Figure8Point:
    """IPC of the five systems at one parameter value."""

    benchmark: str
    parameter: str
    value: int
    perfect_ipc: float
    datascalar2_ipc: float
    datascalar4_ipc: float
    traditional_half_ipc: float
    traditional_quarter_ipc: float


@dataclass
class Figure8Panel:
    """One sweep (one sub-plot of Figure 8)."""

    benchmark: str
    parameter: str
    points: "list[Figure8Point]" = field(default_factory=list)


def _configure(parameter: str, value: int):
    """Build (node, bus) configs with ``parameter`` set to ``value``."""
    node_kwargs = {}
    bus_kwargs = {}
    if parameter == "cache_size":
        node_kwargs["dcache_bytes"] = value
    elif parameter == "memory_latency":
        node_kwargs["memory_latency"] = value
    elif parameter == "bus_clock":
        bus_kwargs["cycles_per_bus_cycle"] = value
    elif parameter == "bus_width":
        bus_kwargs["width_bytes"] = value
    elif parameter == "ruu_entries":
        node_kwargs["ruu_entries"] = value
    else:
        raise ValueError(f"unknown Figure 8 parameter {parameter!r}")
    return timing_node_config(**node_kwargs), timing_bus_config(**bus_kwargs)


def _point_from_row(benchmark, parameter, value, row) -> Figure8Point:
    return Figure8Point(
        benchmark=benchmark,
        parameter=parameter,
        value=value,
        perfect_ipc=row.perfect_ipc,
        datascalar2_ipc=row.datascalar2_ipc,
        datascalar4_ipc=row.datascalar4_ipc,
        traditional_half_ipc=row.traditional_half_ipc,
        traditional_quarter_ipc=row.traditional_quarter_ipc,
    )


def _sweep(cells, scale, limit, runner):
    """Execute (benchmark, parameter, value) cells as one runner batch
    and yield one :class:`Figure8Point` per cell."""
    from ..runner import get_default_runner

    runner = runner or get_default_runner()
    points = []
    for benchmark, parameter, value in cells:
        node, bus = _configure(parameter, value)
        points.extend(benchmark_points(benchmark, scale=scale, limit=limit,
                                       node=node, bus=bus))
    chunk = len(points) // len(cells) if cells else 1
    results = runner.run(points)
    for index, (benchmark, parameter, value) in enumerate(cells):
        row = row_from_chunk(benchmark,
                             results[index * chunk:(index + 1) * chunk])
        yield _point_from_row(benchmark, parameter, value, row)


def run_panel(benchmark: str, parameter: str, values=None, scale: int = 1,
              limit=None, runner=None) -> Figure8Panel:
    """Sweep one parameter for one benchmark."""
    cells = [(benchmark, parameter, value)
             for value in values or PARAMETERS[parameter]]
    panel = Figure8Panel(benchmark=benchmark, parameter=parameter)
    panel.points.extend(_sweep(cells, scale, limit, runner))
    return panel


def run_figure8(benchmarks=FIGURE8_BENCHMARKS, parameters=None,
                scale: int = 1, limit=None, values_per_parameter=None,
                runner=None):
    """Regenerate every panel of Figure 8 (all panels' simulations fan
    out as one runner batch)."""
    cells = []
    for benchmark in benchmarks:
        for parameter in parameters or PARAMETERS:
            values = None
            if values_per_parameter:
                values = values_per_parameter.get(parameter)
            for value in values or PARAMETERS[parameter]:
                cells.append((benchmark, parameter, value))
    panels = {}
    for point in _sweep(cells, scale, limit, runner):
        key = (point.benchmark, point.parameter)
        if key not in panels:
            panels[key] = Figure8Panel(benchmark=point.benchmark,
                                       parameter=point.parameter)
        panels[key].points.append(point)
    return list(panels.values())


def format_figure8(panels) -> str:
    blocks = []
    for panel in panels:
        rows = [[point.value,
                 format_ipc(point.perfect_ipc),
                 format_ipc(point.datascalar2_ipc),
                 format_ipc(point.datascalar4_ipc),
                 format_ipc(point.traditional_half_ipc),
                 format_ipc(point.traditional_quarter_ipc)]
                for point in panel.points]
        blocks.append(format_table(
            [panel.parameter, "perfect", "DS 2n", "DS 4n", "trad 1/2",
             "trad 1/4"],
            rows,
            title=f"Figure 8 [{panel.benchmark}] sweep of {panel.parameter}",
        ))
    return "\n\n".join(blocks)
