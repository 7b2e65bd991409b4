"""Table 1: off-chip data traffic reduced by ESP.

For each of the fourteen benchmarks, filter the data-reference stream
through the measurement cache (64KB two-way write-allocate write-back)
and report the fraction of off-chip *bytes* and *transactions* that ESP
eliminates by removing request and write traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import format_percent, format_table
from ..analysis.traffic import TABLE1_CACHE, measure_esp_traffic
from ..params import CacheConfig
from ..workloads import TABLE_BENCHMARKS

#: A scaled measurement cache for quick runs (the kernels' working sets
#: are scaled down ~100x from SPEC95's, so Table 1's 64KB cache would
#: swallow them whole; 8KB two-way keeps the paper's cache/working-set
#: ratio).
SCALED_CACHE = CacheConfig(size_bytes=8 * 1024, assoc=2, line_size=32,
                           write_allocate=True)


@dataclass
class Table1Row:
    """One benchmark's traffic outcome."""

    benchmark: str
    bytes_eliminated: float
    transactions_eliminated: float
    misses: int
    writebacks: int


def run_table1(benchmarks=None, scale: int = 1, limit=None,
               cache_config: CacheConfig = SCALED_CACHE, runner=None):
    """Regenerate Table 1.  Pass ``cache_config=TABLE1_CACHE`` and a
    larger ``scale`` for the paper's exact cache configuration."""
    from ..runner import SweepPoint, get_default_runner

    runner = runner or get_default_runner()
    names = list(benchmarks or TABLE_BENCHMARKS)
    reports = runner.run([
        SweepPoint.make("esp-traffic", name, scale=scale, limit=limit,
                        config=cache_config, label=f"table1/{name}")
        for name in names
    ])
    return [
        Table1Row(
            benchmark=name,
            bytes_eliminated=report.bytes_eliminated,
            transactions_eliminated=report.transactions_eliminated,
            misses=report.misses,
            writebacks=report.writebacks,
        )
        for name, report in zip(names, reports)
    ]


def format_table1(rows) -> str:
    """Render the two Table 1 rows (traffic and transactions) per
    benchmark."""
    return format_table(
        ["benchmark", "traffic eliminated", "transactions eliminated",
         "misses", "writebacks"],
        [[row.benchmark,
          format_percent(row.bytes_eliminated),
          format_percent(row.transactions_eliminated),
          row.misses, row.writebacks] for row in rows],
        title="Table 1: off-chip data traffic reduced by ESP",
    )


# Re-export the paper's cache for callers that want the unscaled setup.
PAPER_CACHE = TABLE1_CACHE
