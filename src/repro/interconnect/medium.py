"""The global interconnect: the broadcast bus, a ring, and queue timing.

Paper Section 4.4 weighs ways to deliver ESP broadcasts; two are
modeled:

* a **bus** — "broadcasts on a bus are free, since every bus transaction
  is an implicit broadcast", but it serializes and won't scale.  The same
  bus carries the traditional baseline's requests, responses,
  write-arounds and write-backs, arbitrated first-come first-served; and
* a **ring** (e.g. SCI) — "operations are observed by all nodes if the
  sender is responsible for removing its own message"; links pipeline,
  so arrival times stagger around the ring.

A transfer is a byte count.  Asynchronous ESP ships an address/tag with
every broadcast because nodes issue broadcasts in an unpredictable order
(Section 3.1); :meth:`BusConfig.transfer_cycles` charges that overhead.

Each medium implements ``broadcast(now, src, line, payload_bytes) ->
arrivals`` where ``arrivals[i]`` is the cycle node ``i`` has the data
(``None`` for the sender) — the DataScalar system feeds these straight
into the receivers' BSHRs.

Every medium here delivers perfectly.  Unreliable transport is layered
on top: :class:`repro.faults.FaultyMedium` wraps either and injects
seeded drops/corruption/jitter, returning *recovered* arrival cycles
for faulted deliveries (see ``docs/protocol.md``, "Failure model and
recovery").
"""

from __future__ import annotations

import dataclasses

from ..errors import ConfigError
from ..obs.events import EventKind
from ..obs.tracer import Tracer
from ..params import BusConfig


class LatencyQueue:
    """FIFO with fixed latency and unit drain bandwidth.

    The paper charges a two-cycle penalty in the broadcast queue before
    data reach the global bus, and the same penalty at the traditional
    system's network interface.  ``enqueue(now)`` returns the cycle the
    item emerges: at least ``now + latency``, and at least one cycle
    after the previous item.
    """

    def __init__(self, latency: int):
        if latency < 0:
            raise ConfigError("queue latency must be >= 0")
        self.latency = latency
        self._last_out = -1

    def enqueue(self, now: int) -> int:
        out = max(now + self.latency, self._last_out + 1)
        self._last_out = out
        return out


class BroadcastMedium:
    """What every broadcast transport shares: the tracer hook, the
    broadcast signature and a default utilization."""

    #: Observability hook (``None`` = untraced, zero overhead).
    tracer: Tracer | None = None

    def broadcast(self, now: int, src: int, line: int,
                  payload_bytes: int) -> list[int | None]:
        raise NotImplementedError

    def attach_tracer(self, tracer) -> None:
        """Emit MEDIUM_XFER events to ``tracer`` (node = source)."""
        self.tracer = tracer

    def utilization(self, cycles: int) -> float:
        return 0.0


class Bus(BroadcastMedium):
    """The paper's evaluated transport: one split-transaction bus shared
    by every node.

    ``transfer(now, payload_bytes)`` arbitrates (FCFS behind the previous
    transaction), occupies the bus for the transfer time, and returns
    ``(start, done)``: ``done`` is when the payload has fully arrived at
    every other node.  ``num_nodes`` matters only to :meth:`broadcast`.
    """

    def __init__(self, config: BusConfig, num_nodes: int = 1):
        self.config = config
        self.num_nodes = num_nodes
        self._next_free = 0
        self.transactions = 0
        self.payload_bytes = 0
        self.busy_cycles = 0

    def transfer(self, now: int, payload_bytes: int) -> tuple[int, int]:
        start = max(now, self._next_free)
        cycles = self.config.transfer_cycles(payload_bytes)
        done = start + cycles
        self._next_free = done
        self.transactions += 1
        self.payload_bytes += payload_bytes
        self.busy_cycles += cycles
        return start, done

    def broadcast(self, now: int, src: int, line: int,
                  payload_bytes: int) -> list[int | None]:
        start, done = self.transfer(now, payload_bytes)
        if self.tracer is not None:
            self.tracer.emit(EventKind.MEDIUM_XFER, now, src, line=line,
                             start=start, done=done,
                             payload_bytes=payload_bytes)
        return [None if node == src else done
                for node in range(self.num_nodes)]

    def utilization(self, cycles: int) -> float:
        return self.busy_cycles / cycles if cycles else 0.0


class Ring(BroadcastMedium):
    """A unidirectional ring of ``num_nodes`` stations.

    Point-to-point links need no arbitration and clock much faster than
    a shared multi-drop bus (the paper cites SCI's "high-performance
    capability"), so each link runs at the processor clock: a hop takes
    one cycle plus one cycle per link-width beat of payload and tag.
    Each outbound link is busy while a message crosses it, so
    independent broadcasts pipeline around the ring.
    """

    def __init__(self, config: BusConfig, num_nodes: int):
        if num_nodes < 1:
            raise ConfigError("ring needs at least one node")
        self.link_config = dataclasses.replace(
            config, cycles_per_bus_cycle=1, arbitration_bus_cycles=0)
        self.num_nodes = num_nodes
        self._link_free = [0] * num_nodes
        self.transactions = 0
        self.payload_bytes = 0

    def broadcast(self, now: int, src: int, line: int,
                  payload_bytes: int) -> list[int | None]:
        hop = 1 + self.link_config.transfer_cycles(payload_bytes)
        num_nodes = self.num_nodes
        link_free = self._link_free
        arrivals: list[int | None] = [None] * num_nodes
        time = now
        station = src
        # The message circles the whole ring: its last hop returns it to
        # the sender, which removes it.
        for _ in range(num_nodes):
            time = max(time, link_free[station]) + hop
            link_free[station] = time
            station = (station + 1) % num_nodes
            if station != src:
                arrivals[station] = time
        self.transactions += 1
        self.payload_bytes += payload_bytes
        if self.tracer is not None:
            # The station just upstream of the sender hears it last.
            self.tracer.emit(EventKind.MEDIUM_XFER, now, src, line=line,
                             start=now, done=arrivals[src - 1],
                             payload_bytes=payload_bytes)
        return arrivals


def make_medium(kind: str, config: BusConfig, num_nodes: int) -> Bus | Ring:
    """Factory: ``"bus"`` or ``"ring"``."""
    if kind == "bus":
        return Bus(config, num_nodes)
    if kind == "ring":
        return Ring(config, num_nodes)
    raise ConfigError(f"unknown broadcast medium {kind!r}")
