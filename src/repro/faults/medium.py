"""An unreliable broadcast transport and the ESP recovery slow path.

:class:`FaultyMedium` wraps a :class:`~repro.interconnect.Bus` or
:class:`~repro.interconnect.Ring` and injects seeded faults per delivery:
whole-broadcast drops, per-receiver drops, ECC-detectable corruption,
delivery jitter, and transient receive-port stalls.  Plain ESP cannot
survive a loss — the consumer never asks for a communicated word — so
the wrapper also models the recovery protocol that makes loss
survivable:

* **Sequence numbers.**  Every owner numbers its broadcasts; receivers
  track the expected sequence per owner, so a gap (a lost broadcast) is
  detectable.  Detection is bounded by ``FaultConfig.bshr_timeout``
  cycles past the due arrival (the gap is noticed at the next broadcast
  from that owner or when a BSHR wait times out, whichever is sooner; we
  charge the bound).
* **NACKs.**  A corrupt payload fails ECC at arrival and is NACKed
  immediately (no timeout is paid).
* **Retransmit requests.**  Detection escalates into an explicit request
  to the owner — the request path plain ESP forbids, used here as a
  *recovery-only* slow path — followed by a unicast retransmission.
  Attempts that themselves fail back off exponentially
  (``retry_backoff * backoff_factor**attempt``); after ``max_retries``
  failures the run dies with :class:`~repro.errors.
  RecoveryExhaustedError` rather than hanging.

Recovery traffic never hides inside the primary counters: requests,
retransmissions, payload bytes, and channel occupancy are accounted in
:class:`~repro.faults.stats.RecoveryStats`, and ``utilization()`` adds
the recovery channel's share on top of the wrapped medium's, so
degradation is visible in every report.

Deliveries — including recovered ones — are materialized as absolute
future arrival cycles at broadcast time, exactly like the fault-free
transports, so the cycle driver (:func:`repro.core.system.drive`) needs
no bound of its own for the fault layer.
"""

from __future__ import annotations

from ..errors import ProtocolError, RecoveryExhaustedError
from ..interconnect.medium import BroadcastMedium, Bus, Ring
from ..obs.events import EventKind
from ..obs.metrics import MetricsRegistry
from ..params import BusConfig, FaultConfig
from .plan import FaultPlan
from .stats import FaultStats, RecoveryStats


class FaultyMedium(BroadcastMedium):
    """Fault-injecting wrapper around a real broadcast medium."""

    def __init__(self, inner: Bus | Ring, config: FaultConfig,
                 num_nodes: int, bus: BusConfig):
        self.inner = inner
        self.config = config
        self.num_nodes = num_nodes
        self.bus = bus
        self.plan = FaultPlan(config, num_nodes)
        #: One registry backs both ledgers (``faults.injected.*`` and
        #: ``faults.recovery.*``), so a single metrics export covers
        #: the whole fault story.
        self.metrics = MetricsRegistry()
        self.fault_stats = FaultStats(self.metrics)
        self.recovery_stats = RecoveryStats(self.metrics)
        #: Per-owner broadcast sequence numbers.
        self._seq = [0] * num_nodes
        #: Deliveries completed per (owner, receiver) — the integrity
        #: ledger behind :meth:`validate_final_state`.
        self._delivered = [[0] * num_nodes for _ in range(num_nodes)]
        # Recovery message costs on the dedicated recovery channel: a
        # tag-only request and a full-line retransmission, each behind
        # the network-interface queue.
        self._request_cycles = bus.interface_latency + bus.transfer_cycles(0)

    def attach_tracer(self, tracer) -> None:
        """Trace fault/recovery events here and transfers in the wrapped
        medium (node = affected receiver for injected faults)."""
        self.tracer = tracer
        self.inner.attach_tracer(tracer)

    # ------------------------------------------------------------------
    # The medium interface.
    # ------------------------------------------------------------------
    def broadcast(self, now, src, line, payload_bytes):
        arrivals = list(self.inner.broadcast(now, src, line, payload_bytes))
        self._seq[src] += 1
        fault = self.plan.for_broadcast(src)
        stats = self.fault_stats
        tracer = self.tracer
        for node, due in enumerate(arrivals):
            if node == src or due is None:
                continue
            if fault.stalled == node:
                stats.stalls += 1
                due += self.config.stall_cycles
                if tracer is not None:
                    tracer.emit(EventKind.FAULT_INJECT, now, node,
                                fault="stall", src=src, line=line)
            extra = fault.jitter.get(node)
            if extra is not None:
                stats.jitter_events += 1
                stats.jitter_cycles += extra
                due += extra
                if tracer is not None:
                    tracer.emit(EventKind.FAULT_INJECT, now, node,
                                fault="jitter", src=src, line=line,
                                cycles=extra)
            if fault.drop_all or node in fault.dropped:
                if fault.drop_all:
                    stats.broadcast_drops += 1
                else:
                    stats.receiver_drops += 1
                if tracer is not None:
                    tracer.emit(EventKind.FAULT_INJECT, now, node,
                                fault="drop", src=src, line=line)
                due = self._recover(due, src, node, line, payload_bytes,
                                    corrupt=False)
            elif node in fault.corrupted:
                stats.corruptions += 1
                if tracer is not None:
                    tracer.emit(EventKind.FAULT_INJECT, now, node,
                                fault="corrupt", src=src, line=line)
                due = self._recover(due, src, node, line, payload_bytes,
                                    corrupt=True)
            arrivals[node] = due
            self._delivered[src][node] += 1
        return arrivals

    @property
    def transactions(self):
        """Primary broadcast transactions (recovery counted separately)."""
        return self.inner.transactions

    @property
    def payload_bytes(self):
        return self.inner.payload_bytes

    def utilization(self, cycles):
        """Primary utilization plus the recovery channel's share."""
        if not cycles:
            return self.inner.utilization(cycles)
        return (self.inner.utilization(cycles)
                + self.recovery_stats.busy_cycles / cycles)

    # ------------------------------------------------------------------
    # The recovery slow path.
    # ------------------------------------------------------------------
    def _recover(self, due: int, src: int, dst: int, line: int,
                 payload_bytes: int, corrupt: bool) -> int:
        """Repair one lost/corrupt delivery; returns the repaired arrival
        cycle, or raises a typed :class:`~repro.errors.FaultError`."""
        config = self.config
        recovery = self.recovery_stats
        if corrupt:
            recovery.nacks += 1
            when = due  # ECC detects at arrival; NACK leaves immediately
        else:
            recovery.timeouts += 1
            when = due + config.bshr_timeout  # sequence-gap bound
        data_cycles = (self.bus.interface_latency
                       + self.bus.transfer_cycles(payload_bytes))
        for attempt in range(config.max_retries):
            recovery.requests += 1
            recovery.retransmits += 1
            recovery.payload_bytes += payload_bytes
            recovery.busy_cycles += self._request_cycles + data_cycles
            arrived = when + self._request_cycles + data_cycles
            dropped, corrupted = self.plan.retransmit_outcome()
            if not dropped and not corrupted:
                depth = attempt + 1
                if depth > recovery.retry_high_water:
                    recovery.retry_high_water = depth
                recovery.recovered += 1
                recovery.latency.add(arrived - due)
                if self.tracer is not None:
                    self.tracer.emit(EventKind.FAULT_RECOVER, arrived, dst,
                                     src=src, line=line,
                                     latency=arrived - due, attempts=depth)
                return arrived
            # A failed attempt is visible as retransmits - recovered; a
            # corrupted retransmission is NACKed immediately (no new
            # *detection* — the original fault was already counted).
            if corrupted:
                penalty = 0
            else:
                penalty = config.bshr_timeout  # response timed out
            backoff = config.retry_backoff * config.backoff_factor ** attempt
            when = arrived + penalty + backoff
        raise RecoveryExhaustedError(
            f"node {dst}: {config.max_retries} retransmit attempts for "
            f"line {line:#x} from node {src} all failed — giving up "
            f"instead of hanging"
        )

    # ------------------------------------------------------------------
    # End-of-run hooks.
    # ------------------------------------------------------------------
    def validate_final_state(self) -> None:
        """Integrity tripwire: every sequenced broadcast must have been
        delivered (possibly via recovery) to every receiver, and every
        detected fault must have been repaired."""
        for src in range(self.num_nodes):
            for node in range(self.num_nodes):
                if node == src:
                    continue
                if self._delivered[src][node] != self._seq[src]:
                    raise ProtocolError(
                        f"fault layer leaked: node {node} saw "
                        f"{self._delivered[src][node]} of node {src}'s "
                        f"{self._seq[src]} sequenced broadcasts"
                    )
        injected = self.fault_stats.injected
        recovery = self.recovery_stats
        if not (injected == recovery.detected == recovery.recovered):
            raise ProtocolError(
                f"fault accounting imbalance: injected={injected} "
                f"detected={recovery.detected} "
                f"recovered={recovery.recovered}"
            )

    def snapshot(self) -> dict:
        """The ``DataScalarResult.extra['faults']`` payload."""
        return {
            "seed": self.config.seed,
            "injected": self.fault_stats.snapshot(),
            "recovery": self.recovery_stats.snapshot(),
        }
