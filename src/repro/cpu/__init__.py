"""The out-of-order core: RUU, LSQ, functional units, pipeline, and the
memory-system interface."""

from .func_units import FUPool
from .interface import LoadHandle, MemoryInterface
from .lsq import LSQ
from .pipeline import Pipeline, PipelineStats
from .ruu import RUU, RUUEntry

__all__ = [
    "FUPool",
    "LoadHandle",
    "MemoryInterface",
    "LSQ",
    "Pipeline",
    "PipelineStats",
    "RUU",
    "RUUEntry",
]
