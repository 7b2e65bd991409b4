"""DataScalar Architectures (Burger, Kaxiras & Goodman, ISCA 1997) —
a full-system reproduction in pure Python.

Public API tour:

* :mod:`repro.isa` — the simulated RISC ISA, builder DSL, assembler, and
  functional interpreter.
* :mod:`repro.memory` — caches, banked memory, page tables, and the
  replicated/communicated address-space layout.
* :mod:`repro.interconnect` — the global broadcast bus, a ring, queues.
* :mod:`repro.cpu` — the 8-wide out-of-order core (RUU, LSQ, FUs).
* :mod:`repro.core` — the DataScalar execution model: asynchronous ESP,
  BSHRs, the DCUB, cache correspondence, datathread analysis, the
  synchronous Massive Memory Machine, and the multi-node system.
* :mod:`repro.baseline` — the traditional request/response system and
  the perfect-cache upper bound.
* :mod:`repro.workloads` — fifteen SPEC95-like kernels.
* :mod:`repro.experiments` — drivers regenerating every table and figure.
"""

from .baseline import PerfectSystem, TraditionalSystem
from .core import DataScalarSystem, MassiveMemoryMachine
from .params import (
    BSHRConfig,
    BusConfig,
    CacheConfig,
    CPUConfig,
    MemoryConfig,
    NodeConfig,
    SystemConfig,
    TraditionalConfig,
)
from .workloads import WORKLOADS, build_program, get_workload

__version__ = "1.0.0"

__all__ = [
    "PerfectSystem",
    "TraditionalSystem",
    "DataScalarSystem",
    "MassiveMemoryMachine",
    "BSHRConfig",
    "BusConfig",
    "CacheConfig",
    "CPUConfig",
    "MemoryConfig",
    "NodeConfig",
    "SystemConfig",
    "TraditionalConfig",
    "WORKLOADS",
    "build_program",
    "get_workload",
    "__version__",
]
