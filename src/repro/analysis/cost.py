"""Wood–Hill cost-effectiveness (paper Section 4.4).

"Wood and Hill showed that for a parallel system to be cost-effective,
the costup (the relative increase in total cost as more processors are
added) should be less than the speedup."  A DataScalar system replaces a
single processor + dumb memory with N processor/memory chips; when memory
dominates chip cost, the costup of adding processors is small, so even
sub-linear speedups can be cost-effective.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """Relative component costs of one node.

    ``processor_cost`` is the per-node processing logic; ``memory_cost``
    is the *total* memory cost of the machine (each DataScalar node holds
    ``1/N`` of it, plus the replicated fraction); ``overhead_cost`` covers
    packaging/interconnect per node.
    """

    processor_cost: float = 1.0
    memory_cost: float = 4.0
    overhead_cost: float = 0.25
    #: Fraction of memory statically replicated at every node.
    replicated_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.processor_cost < 0 or self.memory_cost < 0:
            raise ConfigError("costs must be non-negative")
        if self.overhead_cost < 0:
            raise ConfigError("overhead_cost must be non-negative")
        if not 0.0 <= self.replicated_fraction <= 1.0:
            raise ConfigError("replicated_fraction must be in [0, 1]")

    def system_cost(self, num_nodes: int) -> float:
        """Total cost of an ``num_nodes``-node DataScalar machine."""
        if num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        communicated = self.memory_cost * (1.0 - self.replicated_fraction)
        replicated = self.memory_cost * self.replicated_fraction
        return (num_nodes * (self.processor_cost + self.overhead_cost)
                + communicated + num_nodes * replicated)

    def costup(self, num_nodes: int) -> float:
        """Cost relative to the one-node machine."""
        return self.system_cost(num_nodes) / self.system_cost(1)

    def is_cost_effective(self, num_nodes: int, speedup: float) -> bool:
        """Wood–Hill criterion: speedup must exceed costup."""
        if speedup <= 0:
            raise ConfigError("speedup must be positive")
        return speedup > self.costup(num_nodes)
