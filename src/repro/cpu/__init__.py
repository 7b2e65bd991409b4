"""The out-of-order core: RUU, LSQ, functional units, pipeline,
branch-predictor substrate, and the memory-system interface."""

from .branch import (
    BimodalPredictor,
    BranchPredictor,
    GSharePredictor,
    StaticTakenPredictor,
)
from .func_units import FUPool
from .interface import LoadHandle, MemoryInterface
from .lsq import LSQ
from .pipeline import Pipeline, PipelineStats
from .ruu import RUU, RUUEntry

__all__ = [
    "BimodalPredictor",
    "BranchPredictor",
    "GSharePredictor",
    "StaticTakenPredictor",
    "FUPool",
    "LoadHandle",
    "MemoryInterface",
    "LSQ",
    "Pipeline",
    "PipelineStats",
    "RUU",
    "RUUEntry",
]
