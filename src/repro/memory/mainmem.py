"""Main-memory bank timing.

The paper assumes fast on-chip DRAM banks (8 ns, sub-banked with
hierarchical word/bit lines) behind a wide on-chip bus, and slower
commodity DRAM off-chip.  This model tracks per-bank occupancy: an
access to a busy bank queues behind it.
"""

from __future__ import annotations

from ..errors import MemoryError_


class BankedMemory:
    """A set of independently-busy memory banks.

    ``access(now, addr)`` returns the cycle at which the requested line is
    available, serializing accesses that collide on a bank.
    """

    def __init__(self, latency: int, num_banks: int = 8,
                 interleave_bytes: int = 32, name: str = "mem"):
        if latency < 1:
            raise MemoryError_("memory latency must be >= 1 cycle")
        if num_banks < 1:
            raise MemoryError_("num_banks must be >= 1")
        if interleave_bytes < 1:
            raise MemoryError_("interleave_bytes must be >= 1")
        self.latency = latency
        self.num_banks = num_banks
        self.interleave_bytes = interleave_bytes
        self.name = name
        self._bank_free = [0] * num_banks

    def bank_of(self, addr: int) -> int:
        """Bank servicing ``addr`` (line-interleaved)."""
        return (addr // self.interleave_bytes) % self.num_banks

    def access(self, now: int, addr: int) -> int:
        """Issue an access at cycle ``now``; returns the completion cycle."""
        bank = self.bank_of(addr)
        start = max(now, self._bank_free[bank])
        done = start + self.latency
        self._bank_free[bank] = done
        return done
