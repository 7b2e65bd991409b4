"""The typed event vocabulary of the instrumentation layer.

Every traced occurrence in the simulator is a :class:`TraceEvent`: a
:class:`EventKind`, the simulated cycle it happened at, the node it
happened on (the event's *track*), and a small dict of kind-specific
arguments.  The vocabulary is deliberately closed — the exporters
pattern-match on kinds, so new kinds are added here, not ad hoc at
emission sites.

Events are *observations*: emitting them never changes architectural
state, which is what keeps fast-forwarded runs bit-identical with
tracing on and off (see ``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class EventKind(str, Enum):
    """The closed set of traced event kinds."""

    #: One instruction committed (``seq``, ``op``).
    COMMIT = "commit"
    #: Fetch could not make progress for ``cycles`` cycles (``cause`` is
    #: ``fetch``/``window``/``lsq``).  Dense ticking emits
    #: one-cycle events; the idle-skip scheduler emits one aggregated
    #: event per skipped range — same totals, coarser grain.
    ISSUE_STALL = "issue-stall"
    #: A broadcast left a node's transmit queue (``line``, ``seq``,
    #: ``late``).
    BCAST_SEND = "bcast-send"
    #: A broadcast was fully delivered to one receiver (``src``,
    #: ``line``).
    BCAST_ARRIVE = "bcast-arrive"
    #: An arrival woke a waiting load, or was consumed by a scheduled
    #: discard (``line``, ``squashed``).  The cycle is the arrival
    #: cycle: arrivals are materialized eagerly, so the event is emitted
    #: at broadcast time (or at the discard, for a buffered arrival).
    BCAST_CONSUME = "bcast-consume"
    #: A load found no arrival buffered and now waits for the owner's
    #: broadcast (``line``).
    BSHR_ALLOC = "bshr-alloc"
    #: A load found its data already waiting in the BSHR (``line``) —
    #: the datathreading hit.
    BSHR_FILL = "bshr-fill"
    #: An issue-time miss staged a line into the DCUB (``line``).
    DCUB_STAGE = "dcub-stage"
    #: The last referencing commit drained a line out of the DCUB
    #: (``line``).
    DCUB_APPLY = "dcub-apply"
    #: Commit-time reconciliation of a false hit: the owner re-broadcast
    #: the line (``action`` = ``late-broadcast``) or a consumer scheduled
    #: a discard (``action`` = ``discard``).
    FALSE_HIT_REPAIR = "false-hit-repair"
    #: One transfer occupied the interconnect (``line``, ``start``,
    #: ``done``).
    MEDIUM_XFER = "medium-xfer"
    #: The fault plan injected a fault into one delivery (``fault`` =
    #: ``drop``/``corrupt``/``jitter``/``stall``, ``src``, ``line``).
    FAULT_INJECT = "fault-inject"
    #: The recovery slow path repaired a delivery (``src``, ``line``,
    #: ``latency``, ``attempts``).
    FAULT_RECOVER = "fault-recover"


@dataclass(slots=True)
class TraceEvent:
    """One traced occurrence."""

    kind: EventKind
    cycle: int
    node: int
    args: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        """Flat JSON-serializable form (the JSONL row)."""
        record = {"kind": self.kind.value, "cycle": self.cycle, "node": self.node}
        record.update(self.args)
        return record

    @classmethod
    def from_record(cls, record: dict) -> "TraceEvent":
        """Inverse of :meth:`as_record`."""
        args = {
            key: value
            for key, value in record.items()
            if key not in ("kind", "cycle", "node")
        }
        return cls(
            kind=EventKind(record["kind"]),
            cycle=int(record["cycle"]),
            node=int(record["node"]),
            args=args,
        )
