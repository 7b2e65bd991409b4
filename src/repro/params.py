"""Configuration dataclasses for every simulated subsystem.

Defaults follow Section 4.2 of the paper: an 8-wide out-of-order
processor with a 256-entry RUU and a load/store queue half that size;
split 16KB direct-mapped single-cycle L1 caches (write-back,
write-noallocate data cache); fast on-chip main memory (8 ns banks); and a
narrow off-chip bus clocked several times slower than the processor.

The core is the paper's 1 GHz machine, so one processor cycle is one
nanosecond and every latency here is given in processor cycles.  Its
branch prediction is perfect and its load/store queue stops a load
only from bypassing an earlier store to the same address (Section 4.2);
neither is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

#: Number of bytes per machine word (integer registers, LW/SW accesses).
WORD_SIZE = 4
#: Number of bytes per floating-point double (LD/SD accesses).
DOUBLE_SIZE = 8


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CPUConfig:
    """Out-of-order core parameters (paper Section 4.2)."""

    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    ruu_entries: int = 256
    #: Load/store queue entries; the paper uses half the RUU size.
    lsq_entries: int = 128
    #: Functional-unit latencies in cycles, keyed by operation class name.
    fu_latencies: dict = field(
        default_factory=lambda: {
            "IALU": 1,
            "IMULT": 3,
            "IDIV": 12,
            "FADD": 2,
            "FMULT": 4,
            "FDIV": 12,
            "BRANCH": 1,
            "AGEN": 1,
        }
    )
    #: Functional-unit counts per class; ``None`` entries mean unlimited.
    fu_counts: dict = field(
        default_factory=lambda: {
            "IALU": 8,
            "IMULT": 2,
            "IDIV": 2,
            "FADD": 4,
            "FMULT": 2,
            "FDIV": 2,
            "BRANCH": 8,
            "AGEN": 8,
        }
    )

    def __post_init__(self) -> None:
        _require(self.fetch_width > 0, "fetch_width must be positive")
        _require(self.issue_width > 0, "issue_width must be positive")
        _require(self.commit_width > 0, "commit_width must be positive")
        _require(self.ruu_entries > 0, "ruu_entries must be positive")
        _require(self.lsq_entries > 0, "lsq_entries must be positive")
        _require(
            self.lsq_entries <= self.ruu_entries,
            "lsq_entries may not exceed ruu_entries",
        )


@dataclass(frozen=True)
class CacheConfig:
    """One level-one cache (paper: 16KB direct-mapped, single cycle,
    write-back)."""

    size_bytes: int = 16 * 1024
    assoc: int = 1
    line_size: int = 32
    hit_latency: int = 1
    #: Allocate a line on a write miss (True), or write around the cache
    #: (False).  The paper argues write-noallocate is superior under ESP
    #: (Section 4.2).
    write_allocate: bool = False

    def __post_init__(self) -> None:
        _require(_is_pow2(self.line_size), "line_size must be a power of two")
        _require(_is_pow2(self.assoc), "assoc must be a power of two")
        _require(
            self.size_bytes % (self.line_size * self.assoc) == 0,
            "size_bytes must be a multiple of line_size * assoc",
        )
        _require(
            _is_pow2(self.size_bytes // (self.line_size * self.assoc)),
            "number of sets must be a power of two",
        )
        _require(self.hit_latency >= 1, "hit_latency must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.assoc)


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory timing (paper: 8 ns on-chip banks; slower off-chip)."""

    onchip_latency: int = 8
    offchip_latency: int = 24
    #: Number of independently-addressed on-chip banks.
    num_banks: int = 8
    #: Virtual-memory page size; Table 2 uses 8KB pages.
    page_size: int = 4096

    def __post_init__(self) -> None:
        _require(self.onchip_latency >= 1, "onchip_latency must be >= 1")
        _require(self.offchip_latency >= 1, "offchip_latency must be >= 1")
        _require(self.num_banks >= 1, "num_banks must be >= 1")
        _require(_is_pow2(self.page_size), "page_size must be a power of two")


@dataclass(frozen=True)
class BusConfig:
    """The global off-chip bus shared by all nodes.

    The paper's off-chip bus is 8 bytes wide and clocked several processor
    cycles per bus cycle; the network interface adds a two-cycle penalty in
    both the DataScalar (broadcast queue) and traditional (request queue)
    systems.
    """

    width_bytes: int = 8
    #: Processor cycles per bus cycle (Figure 8 sweeps this).
    cycles_per_bus_cycle: int = 4
    #: Cycles spent in the network-interface queue before any transfer.
    interface_latency: int = 2
    #: Bus cycles consumed by arbitration before each transaction.
    arbitration_bus_cycles: int = 1
    #: Bytes of addressing/tag overhead carried by each broadcast or request
    #: (asynchronous ESP must ship an address/tag with every broadcast).
    tag_bytes: int = 8

    def __post_init__(self) -> None:
        _require(_is_pow2(self.width_bytes), "width_bytes must be a power of two")
        _require(self.cycles_per_bus_cycle >= 1, "cycles_per_bus_cycle must be >= 1")
        _require(self.interface_latency >= 0, "interface_latency must be >= 0")
        _require(self.arbitration_bus_cycles >= 0, "arbitration must be >= 0")
        _require(self.tag_bytes >= 0, "tag_bytes must be >= 0")

    def transfer_cycles(self, payload_bytes: int) -> int:
        """Processor cycles to move ``payload_bytes`` (+tag) across the bus."""
        total = payload_bytes + self.tag_bytes
        bus_cycles = (total + self.width_bytes - 1) // self.width_bytes
        bus_cycles += self.arbitration_bus_cycles
        return bus_cycles * self.cycles_per_bus_cycle


@dataclass(frozen=True)
class BSHRConfig:
    """Broadcast Status Holding Registers (paper Section 4.2, Figure 5)."""

    access_latency: int = 2

    def __post_init__(self) -> None:
        _require(self.access_latency >= 0, "access_latency must be >= 0")


@dataclass(frozen=True)
class FaultConfig:
    """Seeded unreliable-broadcast injection and the recovery protocol.

    ESP is request-free: a consumer *trusts* that the owner's broadcast
    will arrive, so a lost or corrupted broadcast would deadlock every
    non-owner.  This config drives :class:`repro.faults.FaultyMedium`,
    which wraps any broadcast medium, deterministically injects faults
    from a seeded RNG, and models the recovery slow path (sequence-gap
    detection, NACKs, retransmit requests with bounded exponential
    backoff).  All probabilities are evaluated per broadcast (or per
    receiver per broadcast); the same seed and config always produce the
    identical fault schedule.
    """

    #: RNG seed; recorded in ``DataScalarResult.extra["faults"]["seed"]``.
    seed: int = 0
    #: Probability the whole broadcast is lost on the medium (no receiver
    #: gets it).
    drop_prob: float = 0.0
    #: Per-receiver probability of losing an otherwise-delivered
    #: broadcast (e.g. a receive-queue overrun at one node).
    receiver_drop_prob: float = 0.0
    #: Per-receiver probability the payload arrives with an
    #: ECC-detectable corruption (NACKed and retransmitted).
    corrupt_prob: float = 0.0
    #: Per-receiver probability of extra delivery jitter.
    jitter_prob: float = 0.0
    #: Maximum extra cycles of jitter (uniform in ``1..max_jitter``).
    max_jitter: int = 16
    #: Probability one receiver's port transiently stalls this broadcast.
    stall_prob: float = 0.0
    #: Extra cycles a stalled receiver's delivery is delayed.
    stall_cycles: int = 32
    #: Cycles past the due arrival before a receiver escalates a missing
    #: broadcast (sequence-gap / BSHR-timeout detection bound) into an
    #: explicit retransmit request — the recovery-only request path.
    bshr_timeout: int = 64
    #: Base backoff after a failed retransmit attempt, doubled (by
    #: ``backoff_factor``) per attempt.
    retry_backoff: int = 32
    backoff_factor: int = 2
    #: Failed retransmit attempts tolerated before the run dies with
    #: :class:`repro.errors.RecoveryExhaustedError`.
    max_retries: int = 8

    def __post_init__(self) -> None:
        for name in ("drop_prob", "receiver_drop_prob", "corrupt_prob",
                     "jitter_prob", "stall_prob"):
            value = getattr(self, name)
            _require(0.0 <= value <= 1.0, f"{name} must be in [0, 1]")
        _require(self.max_jitter >= 1, "max_jitter must be >= 1")
        _require(self.stall_cycles >= 1, "stall_cycles must be >= 1")
        _require(self.bshr_timeout >= 1, "bshr_timeout must be >= 1")
        _require(self.retry_backoff >= 0, "retry_backoff must be >= 0")
        _require(self.backoff_factor >= 1, "backoff_factor must be >= 1")
        _require(self.max_retries >= 1, "max_retries must be >= 1")


@dataclass(frozen=True)
class NodeConfig:
    """Everything on one DataScalar chip (Figure 5 datapath)."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    bshr: BSHRConfig = field(default_factory=BSHRConfig)
    #: Cycles a broadcast waits in the outbound queue (paper: two).
    broadcast_queue_latency: int = 2

    def __post_init__(self) -> None:
        _require(
            self.broadcast_queue_latency >= 0,
            "broadcast_queue_latency must be >= 0",
        )


@dataclass(frozen=True)
class SystemConfig:
    """A complete DataScalar machine: N identical nodes on one bus."""

    num_nodes: int = 2
    node: NodeConfig = field(default_factory=NodeConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    #: Communicated pages are distributed round-robin in blocks of this many
    #: pages (Table 2 varies this per benchmark).
    distribution_block_pages: int = 4
    #: Maximum dynamically-simulated instructions before giving up.
    max_cycles: int = 200_000_000
    #: Skip provably idle cycle ranges (identical results, less wall
    #: clock).  Disable to force dense ticking, the reference the
    #: equivalence suite compares skipping runs against.
    fast_forward: bool = True
    #: Broadcast transport: ``"bus"`` (the paper's evaluated transport)
    #: or ``"ring"`` (SCI-style), two of Section 4.4's candidates.
    interconnect: str = "bus"
    #: Optional unreliable-broadcast injection (:class:`FaultConfig`).
    #: ``None`` (the default) leaves the transport perfect and the
    #: simulator bit-identical to a build without the fault layer.
    faults: "FaultConfig | None" = None

    def __post_init__(self) -> None:
        _require(self.num_nodes >= 1, "num_nodes must be >= 1")
        _require(
            self.distribution_block_pages >= 1,
            "distribution_block_pages must be >= 1",
        )
        _require(self.max_cycles > 0, "max_cycles must be positive")
        _require(
            self.interconnect in ("bus", "ring"),
            "interconnect must be bus/ring",
        )


@dataclass(frozen=True)
class TraditionalConfig:
    """The Figure 6(a) comparison system: one CPU, 1/N of memory on-chip.

    The off-chip portion is reached by request/response transactions over
    the same bus the DataScalar system uses for broadcasts, and cache tags
    are likewise updated at commit for a fair comparison.
    """

    node: NodeConfig = field(default_factory=NodeConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    #: Fraction of main memory that is on-chip, expressed as 1/denominator.
    onchip_fraction_denom: int = 2
    distribution_block_pages: int = 4
    max_cycles: int = 200_000_000

    def __post_init__(self) -> None:
        _require(
            self.onchip_fraction_denom >= 1,
            "onchip_fraction_denom must be >= 1",
        )
        _require(
            self.distribution_block_pages >= 1,
            "distribution_block_pages must be >= 1",
        )
        _require(self.max_cycles > 0, "max_cycles must be positive")
