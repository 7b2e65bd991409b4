"""Baseline systems: the traditional IRAM + off-chip memory machine and
the perfect-data-cache upper bound."""

from .perfect import PerfectMemory, PerfectSystem
from .traditional import TraditionalMemory, TraditionalResult, TraditionalSystem

__all__ = [
    "PerfectMemory",
    "PerfectSystem",
    "TraditionalMemory",
    "TraditionalResult",
    "TraditionalSystem",
]
