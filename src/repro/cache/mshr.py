"""Miss status holding registers (MSHRs).

Tracks outstanding misses at a cache and coalesces secondary misses to a
block already being fetched (Table 1: 32 MSHRs per L1 / L2 bank).
"""

from __future__ import annotations

from typing import Dict, List, Optional


class MSHRFile:
    """A fixed-size file of miss-status holding registers."""

    def __init__(self, n_entries: int, name: str = "mshr"):
        self.n_entries = n_entries
        self.name = name
        #: block -> list of opaque waiter tokens
        self._entries: Dict[int, List] = {}
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.n_entries

    def outstanding(self, block: int) -> bool:
        return block in self._entries

    def allocate(self, block: int, waiter=None) -> Optional[bool]:
        """Register a miss.

        Returns True for a new (primary) miss, False when coalesced onto
        an outstanding one, and None when the file is full and the miss
        must stall.
        """
        waiters = self._entries.get(block)
        if waiters is not None:
            if waiter is not None:
                waiters.append(waiter)
            self.coalesced += 1
            return False
        if self.full:
            return None
        self._entries[block] = [waiter] if waiter is not None else []
        return True

    def force_allocate(self, block: int, waiter=None) -> bool:
        """Allocate ignoring the size limit (overflow modelling).

        Returns True when this created a new (primary) entry.
        """
        waiters = self._entries.get(block)
        if waiters is not None:
            if waiter is not None:
                waiters.append(waiter)
            self.coalesced += 1
            return False
        self._entries[block] = [waiter] if waiter is not None else []
        return True

    def complete(self, block: int) -> List:
        """Retire a miss; return the coalesced waiter tokens."""
        return self._entries.pop(block, [])

    def blocks(self):
        return self._entries.keys()
