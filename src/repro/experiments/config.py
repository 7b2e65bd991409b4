"""Shared experiment configurations.

The paper's target machine (Section 4.2): an 8-way, 1 GHz out-of-order
processor with a 256-entry RUU; split single-cycle direct-mapped L1s;
8 ns on-chip memory banks; an 8-byte off-chip bus several times slower
than the core; 2-cycle broadcast/network-interface queues.

Per DESIGN.md, runs are scaled: the pure-Python simulator executes
10^4–10^6 instructions, so the split L1s default to 8KB data / 8KB
instruction (direct-mapped, 32-byte lines) — keeping the paper's
cache-much-smaller-than-working-set regime for the scaled kernels — and
the 8-byte bus takes 4 core cycles per bus cycle.  Every knob the
Figure 8 sensitivity analysis sweeps is a parameter here.
"""

from __future__ import annotations

from ..params import (
    BSHRConfig,
    BusConfig,
    CacheConfig,
    CPUConfig,
    MemoryConfig,
    NodeConfig,
    SystemConfig,
    TraditionalConfig,
)

#: Default dynamic-instruction cap for timing experiments (None = run the
#: kernel to completion).
DEFAULT_LIMIT = None


def timing_cpu_config(ruu_entries: int = 256) -> CPUConfig:
    """The 8-wide, 1 GHz core of Section 4.2."""
    return CPUConfig(
        fetch_width=8,
        issue_width=8,
        commit_width=8,
        ruu_entries=ruu_entries,
        lsq_entries=max(1, ruu_entries // 2),
    )


def timing_node_config(
    dcache_bytes: int = 8 * 1024,
    icache_bytes: int = 8 * 1024,
    line_size: int = 32,
    memory_latency: int = 8,
    ruu_entries: int = 256,
    page_size: int = 4096,
) -> NodeConfig:
    """One IRAM chip with the paper's (scaled) parameters."""
    return NodeConfig(
        cpu=timing_cpu_config(ruu_entries),
        icache=CacheConfig(size_bytes=icache_bytes, assoc=1,
                           line_size=line_size),
        dcache=CacheConfig(size_bytes=dcache_bytes, assoc=1,
                           line_size=line_size, write_allocate=False),
        # Off-chip banks share the on-chip access time: the penalty for
        # off-chip memory is the bus crossing, which is what the paper's
        # sensitivity analysis holds apart from bank time.
        memory=MemoryConfig(onchip_latency=memory_latency,
                            offchip_latency=memory_latency,
                            page_size=page_size),
        bshr=BSHRConfig(access_latency=2),
        broadcast_queue_latency=2,
    )


def timing_bus_config(width_bytes: int = 8,
                      cycles_per_bus_cycle: int = 4) -> BusConfig:
    """The global off-chip bus (Figure 8 sweeps width and clock)."""
    return BusConfig(
        width_bytes=width_bytes,
        cycles_per_bus_cycle=cycles_per_bus_cycle,
        interface_latency=2,
        arbitration_bus_cycles=1,
        tag_bytes=8,
    )


def datascalar_config(num_nodes: int, node: NodeConfig = None,
                      bus: BusConfig = None,
                      distribution_block_pages: int = 1,
                      faults=None) -> SystemConfig:
    """A DataScalar machine for the timing experiments.

    Figure 7's runs replicate no data pages and distribute everything
    round-robin, so the default block is one page.  ``faults`` (a
    :class:`repro.params.FaultConfig`) arms the unreliable-broadcast
    layer; ``None`` keeps the transport perfect.
    """
    return SystemConfig(
        num_nodes=num_nodes,
        node=node or timing_node_config(),
        bus=bus or timing_bus_config(),
        distribution_block_pages=distribution_block_pages,
        faults=faults,
    )


def traditional_config(denom: int, node: NodeConfig = None,
                       bus: BusConfig = None,
                       distribution_block_pages: int = 1
                       ) -> TraditionalConfig:
    """The matched traditional system: same chip, same bus, ``1/denom``
    of memory on-chip."""
    return TraditionalConfig(
        node=node or timing_node_config(),
        bus=bus or timing_bus_config(),
        onchip_fraction_denom=denom,
        distribution_block_pages=distribution_block_pages,
    )
