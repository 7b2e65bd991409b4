"""Functional-unit pool.

Units are fully pipelined (a unit accepts one new operation per cycle),
so the pool only constrains *issue* bandwidth per class per cycle.

The per-class latency and slot limits live in flat lists indexed by
``int(op_class)`` (OpClass is a dense IntEnum) rather than dicts: the
issue pass in :meth:`repro.cpu.pipeline.Pipeline.tick` reads
:attr:`latency_table` and :attr:`limit_table` with plain list indexing
and counts each cycle's claimed slots itself.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..isa.opcodes import OpClass
from ..params import CPUConfig

#: Slot limit recorded for unconstrained classes (``fu_counts`` entry
#: ``None``): any realizable issue width compares below it.
UNLIMITED = 1 << 30

_NUM_CLASSES = max(int(op_class) for op_class in OpClass) + 1


class FUPool:
    """Per-class issue latencies and per-cycle issue slots."""

    __slots__ = ("latency_table", "limit_table")

    def __init__(self, config: CPUConfig):
        self.latency_table = [0] * _NUM_CLASSES
        self.limit_table = [UNLIMITED] * _NUM_CLASSES
        for op_class in OpClass:
            name = op_class.fu_name
            if name not in config.fu_latencies:
                raise ConfigError(f"no latency configured for FU {name}")
            count = config.fu_counts.get(name)
            index = int(op_class)
            self.latency_table[index] = config.fu_latencies[name]
            self.limit_table[index] = UNLIMITED if count is None else count
