"""Exception hierarchy for the DataScalar reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class AssemblyError(ReproError):
    """A program could not be assembled (bad opcode, undefined label, ...)."""


class ExecutionError(ReproError):
    """The functional interpreter hit an illegal state (bad PC, bad access)."""


class UnsupportedProgramError(ReproError):
    """The code generator cannot specialize a program (indirect jumps).

    Raised only when generated code is requested for such a program
    directly; :func:`repro.isa.codegen.make_trace_source` keeps it on
    the interpreter instead.
    """


class MemoryError_(ReproError):
    """A memory-system component was misused (bad address, bad config)."""


class ConfigError(ReproError):
    """A configuration dataclass holds inconsistent or impossible values."""


class ProtocolError(ReproError):
    """The DataScalar protocol reached a state the paper forbids.

    Examples: a BSHR deadlock (a node waits for a broadcast no owner will
    send), a correspondence violation (caches diverged at commit), or a
    store broadcast (ESP never broadcasts stores).
    """


class SimulationError(ReproError):
    """A timing simulation failed to make forward progress."""


class RunnerError(ReproError):
    """The sweep engine could not execute a sweep as requested.

    Raised for invalid runner parameters, for sweeps where one or more
    points failed (the first failing point's original exception is
    chained as ``__cause__``), for a worker process that died (naming
    every point in flight), and as the base of the timeout error
    below.
    """


class PointTimeoutError(RunnerError):
    """A sweep stalled: no point made progress within the runner's
    ``timeout`` window, so outstanding work was cancelled."""


class FaultError(SimulationError):
    """An injected transport fault could not be recovered.

    The fault-injection layer (:mod:`repro.faults`) guarantees that a run
    either completes with the same architectural results as a fault-free
    run or dies with a subclass of this error — never a silently wrong
    result.
    """


class RecoveryExhaustedError(FaultError):
    """The ESP recovery slow path gave up: a receiver's retransmit
    requests failed ``max_retries`` consecutive times."""


class CorruptionError(FaultError):
    """A broadcast payload failed ECC and no NACK/retransmit path is
    available (``FaultConfig.nack_enabled=False``)."""


class BroadcastLostError(FaultError):
    """A BSHR wait outlived the entire recovery budget.

    With fault injection armed, every lost or corrupted broadcast is
    detected and retransmitted within a bounded window; a wait older than
    ``FaultConfig.wait_deadline`` cycles means the transport silently
    violated its delivery contract (or the protocol leaked), and the run
    aborts with this typed error instead of spinning to the generic
    pipeline deadlock detector.
    """
