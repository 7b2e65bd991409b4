"""Experiment drivers: one module per paper table/figure.

Each ``run_*`` returns structured rows and each ``format_*`` renders the
same rows/series the paper reports.  See DESIGN.md's experiment index.
"""

from .config import (
    datascalar_config,
    timing_bus_config,
    timing_cpu_config,
    timing_node_config,
    traditional_config,
)
from .figure1 import Figure1Result, format_figure1, run_figure1
from .figure3 import (
    Figure3Result,
    datascalar_crossings,
    format_figure3,
    run_figure3,
    traditional_crossings,
)
from .figure7 import Figure7Row, format_figure7, run_figure7
from .figure8 import (
    FIGURE8_BENCHMARKS,
    PARAMETERS,
    Figure8Panel,
    Figure8Point,
    format_figure8,
    run_figure8,
)
from .scaling import NODE_COUNTS, ScalingPoint, format_scaling, \
    run_scaling
from .table1 import Table1Row, format_table1, run_table1
from .table2 import Table2Row, format_table2, run_table2
from .table3 import Table3Row, format_table3, row_from_result, run_table3

__all__ = [
    "datascalar_config",
    "timing_bus_config",
    "timing_cpu_config",
    "timing_node_config",
    "traditional_config",
    "Figure1Result",
    "format_figure1",
    "run_figure1",
    "Figure3Result",
    "datascalar_crossings",
    "format_figure3",
    "run_figure3",
    "traditional_crossings",
    "Figure7Row",
    "format_figure7",
    "run_figure7",
    "FIGURE8_BENCHMARKS",
    "PARAMETERS",
    "Figure8Panel",
    "Figure8Point",
    "format_figure8",
    "run_figure8",
    "NODE_COUNTS",
    "ScalingPoint",
    "format_scaling",
    "run_scaling",
    "Table1Row",
    "format_table1",
    "run_table1",
    "Table2Row",
    "format_table2",
    "run_table2",
    "Table3Row",
    "format_table3",
    "row_from_result",
    "run_table3",
]
