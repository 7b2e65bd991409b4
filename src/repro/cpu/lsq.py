"""The load/store queue.

Paper Section 4.2: "Our simulated processor also contains a load/store
queue, to prevent loads from bypassing stores to the same address.  Loads
are sent from this queue to the cache at issue time, while stores are sent
to the cache at commit time.  Loads can be serviced in a single cycle by
stores to the same address that are ahead in the queue."

The queue's memory instructions are the RUU window's, so it keeps no
entries of its own: :func:`repro.isa.annotate` names each load's
forwarding store, found in the RUU ring (:mod:`repro.cpu.ruu`).  A load
waits only for an unissued store to the same address; it bypasses
every other earlier store.  What is left is an occupancy counter that
:meth:`repro.cpu.pipeline.Pipeline.tick` keeps for the fetch stage's
capacity gate, and a count of forwarded loads.
"""

from __future__ import annotations


class LSQ:
    """Counts of the window's memory instructions."""

    __slots__ = ("capacity", "occupancy", "forwards")

    def __init__(self, capacity: int):
        self.capacity = capacity
        #: Memory instructions in the window: dispatch counts one in,
        #: commit counts it out.
        self.occupancy = 0
        #: Loads serviced by an in-queue store.
        self.forwards = 0

    def __len__(self) -> int:
        return self.occupancy

    def is_full(self) -> bool:
        return self.occupancy >= self.capacity
