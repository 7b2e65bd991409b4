"""The load/store queue.

Paper Section 4.2: "Our simulated processor also contains a load/store
queue, to prevent loads from bypassing stores to the same address.  Loads
are sent from this queue to the cache at issue time, while stores are sent
to the cache at commit time.  Loads can be serviced in a single cycle by
stores to the same address that are ahead in the queue."

The queue keeps a running count of unissued stores so the
conservative-disambiguation check is O(1) in the common all-issued
state, and the forwarding scan walks the store deque in place (newest
first, early exit at the load's own age) without building candidate
lists.
"""

from __future__ import annotations

from collections import deque

from ..errors import SimulationError


class LSQ:
    """Memory instructions in program order, for capacity and forwarding."""

    __slots__ = ("capacity", "_entries", "_stores", "forwards",
                 "_unissued_stores")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries = deque()
        self._stores = deque()  # store entries only, program order
        self.forwards = 0
        #: Stores in the queue that have not claimed an issue slot yet.
        #: :meth:`insert` counts a store in; the issue stage of
        #: :meth:`repro.cpu.pipeline.Pipeline.tick` counts it out when
        #: the store issues.  Lets :meth:`has_unissued_earlier_store`
        #: skip its scan when every queued store has already issued (the
        #: steady state).
        self._unissued_stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def insert(self, entry) -> None:
        if len(self._entries) >= self.capacity:
            raise SimulationError("LSQ overflow — check dispatch gating")
        self._entries.append(entry)
        if entry.is_store:
            self._stores.append(entry)
            self._unissued_stores += 1

    def release_head(self, entry) -> None:
        """Remove ``entry``, which must be the oldest memory instruction."""
        if not self._entries or self._entries[0] is not entry:
            raise SimulationError("LSQ released out of order")
        self._entries.popleft()
        if entry.is_store:
            self._stores.popleft()

    def has_unissued_earlier_store(self, load) -> bool:
        """True when any store older than ``load`` has not issued yet —
        the conservative-disambiguation stall condition."""
        if not self._unissued_stores:
            return False
        seq = load.seq
        for entry in self._stores:
            if entry.seq >= seq:
                break
            if not entry.issued:
                return True
        return False

    def forwarding_store(self, load):
        """Latest earlier store overlapping ``load``'s access, if any.

        Returns ``(store_entry, resolved)``: ``resolved`` is False when the
        store exists but has not issued yet, in which case the load must
        wait (it may not bypass a store to the same address).
        """
        lo = load.addr
        hi = lo + load.size
        seq = load.seq
        for entry in reversed(self._stores):
            if entry.seq >= seq:
                continue
            addr = entry.addr
            if addr < hi and lo < addr + entry.size:
                if entry.issued:
                    self.forwards += 1
                    return entry, True
                return entry, False
        return None, True
