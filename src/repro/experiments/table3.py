"""Table 3: DataScalar broadcast statistics (two-node runs).

Three columns per benchmark: the percentage of broadcasts issued late
(at commit, repairing false hits), the percentage of BSHR accesses that
were squashes, and the percentage of remote accesses that found their
data already waiting in the BSHR (evidence of datathreading).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import format_percent, format_table
from ..workloads import TIMING_BENCHMARKS
from .config import datascalar_config, timing_node_config


@dataclass
class Table3Row:
    """One benchmark's broadcast statistics."""

    benchmark: str
    late_broadcasts: float
    bshr_squashes: float
    found_in_bshr: float
    total_broadcasts: int
    false_hits: int
    false_misses: int


def row_from_result(name: str, result) -> Table3Row:
    """Extract the Table 3 columns from a DataScalar run result."""
    return Table3Row(
        benchmark=name,
        late_broadcasts=result.late_broadcast_fraction,
        bshr_squashes=result.bshr_squash_fraction,
        found_in_bshr=result.found_in_bshr_fraction,
        total_broadcasts=sum(n.broadcasts_sent for n in result.nodes),
        false_hits=sum(n.false_hits for n in result.nodes),
        false_misses=sum(n.false_misses for n in result.nodes),
    )


def run_table3(benchmarks=None, scale: int = 1, limit=None,
               num_nodes: int = 2, node=None, runner=None):
    """Regenerate Table 3 from fresh two-node runs."""
    from ..runner import SweepPoint, get_default_runner

    runner = runner or get_default_runner()
    node = node or timing_node_config()
    names = list(benchmarks or TIMING_BENCHMARKS)
    results = runner.run([
        SweepPoint.make("datascalar", name, scale=scale, limit=limit,
                        config=datascalar_config(num_nodes, node=node),
                        label=f"table3/{name}")
        for name in names
    ])
    return [row_from_result(name, result)
            for name, result in zip(names, results)]


def format_table3(rows) -> str:
    return format_table(
        ["benchmark", "late broadcasts", "BSHR squashes", "found in BSHR",
         "broadcasts", "false hits", "false misses"],
        [[r.benchmark, format_percent(r.late_broadcasts),
          format_percent(r.bshr_squashes), format_percent(r.found_in_bshr),
          r.total_broadcasts, r.false_hits, r.false_misses] for r in rows],
        title="Table 3: DataScalar broadcast statistics",
    )
