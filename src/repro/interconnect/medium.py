"""Pluggable broadcast media for the DataScalar transmit path.

Paper Section 4.4 weighs ways to deliver ESP broadcasts; two are
modeled:

* a **bus** — "broadcasts on a bus are free, since every bus transaction
  is an implicit broadcast", but it serializes and won't scale; and
* a **ring** (e.g. SCI) — "operations are observed by all nodes if the
  sender is responsible for removing its own message"; links pipeline,
  so arrival times stagger around the ring.

Each medium implements ``broadcast(now, src, line, payload_bytes) ->
arrivals`` where ``arrivals[i]`` is the cycle node ``i`` has the data
(``None`` for the sender) — the DataScalar system feeds these straight
into the receivers' BSHRs.

Every medium here delivers perfectly.  Unreliable transport is layered
on top: :class:`repro.faults.FaultyMedium` wraps any of these and
injects seeded drops/corruption/jitter, returning *recovered* arrival
cycles for faulted deliveries (see ``docs/protocol.md``, "Failure model
and recovery").
"""

from __future__ import annotations

import dataclasses

from ..errors import ConfigError
from ..obs.events import EventKind
from ..params import BusConfig
from .bus import Bus
from .message import Message, MessageKind
from .ring import Ring


class BroadcastMedium:
    """Interface shared by every broadcast transport."""

    #: Observability hook (``None`` = untraced, zero overhead).
    tracer = None

    def attach_tracer(self, tracer) -> None:
        """Emit MEDIUM_XFER events to ``tracer`` (node = source)."""
        self.tracer = tracer

    def broadcast(self, now: int, src: int, line: int,
                  payload_bytes: int) -> "list":
        raise NotImplementedError

    @property
    def transactions(self) -> int:
        raise NotImplementedError

    @property
    def payload_bytes(self) -> int:
        raise NotImplementedError

    def utilization(self, cycles: int) -> float:
        return 0.0

    def next_event(self, now: int):
        """Earliest medium-generated future event after ``now``, or
        ``None``.  The perfect media materialize every delivery as an
        absolute arrival cycle at broadcast time, so they never hold
        deferred events; media with deferred actions (e.g. the fault
        layer's recovery deliveries) override this so the idle-skip
        scheduler cannot jump past them.
        """
        return None


class BusMedium(BroadcastMedium):
    """The paper's evaluated transport: one serializing bus."""

    def __init__(self, config: BusConfig, num_nodes: int):
        self.bus = Bus(config)
        self.num_nodes = num_nodes
        self._tag = 0

    def broadcast(self, now, src, line, payload_bytes):
        self._tag += 1
        message = Message(MessageKind.BROADCAST, src=src, line_addr=line,
                          payload_bytes=payload_bytes, tag=self._tag)
        start, done = self.bus.transfer(now, message)
        if self.tracer is not None:
            self.tracer.emit(EventKind.MEDIUM_XFER, now, src, line=line,
                             start=start, done=done,
                             payload_bytes=payload_bytes)
        return [None if node == src else done
                for node in range(self.num_nodes)]

    @property
    def transactions(self):
        return self.bus.stats.transactions

    @property
    def payload_bytes(self):
        return self.bus.stats.payload_bytes

    def utilization(self, cycles):
        return self.bus.stats.utilization(cycles)


class RingMedium(BroadcastMedium):
    """A unidirectional ring: staggered arrivals, pipelined links.

    Point-to-point links need no arbitration and clock much faster than
    a shared multi-drop bus (the paper cites SCI's "high-performance
    capability"), so each link runs at the processor clock with a
    one-cycle hop.
    """

    def __init__(self, config: BusConfig, num_nodes: int):
        link_config = dataclasses.replace(
            config,
            cycles_per_bus_cycle=1,
            arbitration_bus_cycles=0,
        )
        self.ring = Ring(link_config, num_nodes, hop_latency=1)
        self.num_nodes = num_nodes
        self._tag = 0
        self._payload = 0

    def broadcast(self, now, src, line, payload_bytes):
        self._tag += 1
        message = Message(MessageKind.BROADCAST, src=src, line_addr=line,
                          payload_bytes=payload_bytes, tag=self._tag)
        arrivals = self.ring.broadcast(now, message)
        self._payload += payload_bytes
        if self.tracer is not None:
            last = max(arrivals[node] for node in range(self.num_nodes)
                       if node != src)
            self.tracer.emit(EventKind.MEDIUM_XFER, now, src, line=line,
                             start=now, done=last,
                             payload_bytes=payload_bytes)
        return [None if node == src else arrivals[node]
                for node in range(self.num_nodes)]

    @property
    def transactions(self):
        return self.ring.messages

    @property
    def payload_bytes(self):
        return self._payload


def make_medium(kind: str, config: BusConfig,
                num_nodes: int) -> BroadcastMedium:
    """Factory: ``"bus"`` or ``"ring"``."""
    if kind == "bus":
        return BusMedium(config, num_nodes)
    if kind == "ring":
        return RingMedium(config, num_nodes)
    raise ConfigError(f"unknown broadcast medium {kind!r}")
