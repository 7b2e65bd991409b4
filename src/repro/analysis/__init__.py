"""Analyses: ESP traffic accounting, cost model, reports."""

from .cost import CostModel
from .export import rows_to_csv, write_csv
from .report import format_ipc, format_percent, format_table
from .traffic import TABLE1_CACHE, TrafficReport, measure_esp_traffic

__all__ = [
    "CostModel",
    "rows_to_csv",
    "write_csv",
    "format_ipc",
    "format_percent",
    "format_table",
    "TABLE1_CACHE",
    "TrafficReport",
    "measure_esp_traffic",
]
