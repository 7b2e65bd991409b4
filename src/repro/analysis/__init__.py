"""Analyses: ESP traffic accounting, cost model, timelines, reports."""

from .cost import CostModel
from .export import rows_to_csv, rows_to_json, write_csv, write_json
from .report import format_ipc, format_percent, format_table
from .timeline import Timeline, TimelineRecorder, TimelineSample
from .traffic import TABLE1_CACHE, TrafficReport, measure_esp_traffic

__all__ = [
    "CostModel",
    "rows_to_csv",
    "rows_to_json",
    "write_csv",
    "write_json",
    "Timeline",
    "TimelineRecorder",
    "TimelineSample",
    "format_ipc",
    "format_percent",
    "format_table",
    "TABLE1_CACHE",
    "TrafficReport",
    "measure_esp_traffic",
]
