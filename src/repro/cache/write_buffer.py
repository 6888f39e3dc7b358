"""Read-preemptive SRAM write buffer (Sun et al., HPCA'09; Section 4.4).

The comparator scheme the paper evaluates against: each STT-RAM bank gets
a small (20-entry) SRAM buffer.  Writes complete into the buffer at SRAM
speed and are drained into the STT-RAM array when the bank is otherwise
idle; reads search the buffer in parallel with the array, and -- with
read-preemption enabled -- an incoming read may cancel an in-progress
drain (the write restarts later).  Every request pays a one-cycle
read/write detection overhead on the critical path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.sim.config import WriteBufferConfig


class WriteBuffer:
    """Per-bank write buffer state."""

    def __init__(self, config: WriteBufferConfig):
        self.config = config
        #: block -> pending-write marker (insertion ordered = drain order)
        self._entries: "OrderedDict[int, bool]" = OrderedDict()
        self.writes_absorbed = 0
        self.writes_stalled = 0
        self.drains_completed = 0
        self.read_hits = 0
        self.preemptions = 0
        #: block currently being drained into the array, if any
        self._draining: Optional[int] = None

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries) + (1 if self._draining is not None else 0)

    @property
    def full(self) -> bool:
        return len(self) >= self.config.entries

    def absorb(self, block: int) -> bool:
        """Try to complete a write into the buffer.

        Returns False when the buffer is full (the write must go straight
        to the slow array instead).
        """
        entries = self._entries
        if block in entries:
            entries.move_to_end(block)
            self.writes_absorbed += 1
            return True
        if self.full:
            self.writes_stalled += 1
            return False
        entries[block] = True
        self.writes_absorbed += 1
        return True

    def probe(self, block: int) -> bool:
        """Read lookup (searched in parallel with the STT-RAM array)."""
        hit = block in self._entries or block == self._draining
        if hit:
            self.read_hits += 1
        return hit

    # ------------------------------------------------------------------
    # Drain management (driven by the bank controller)
    # ------------------------------------------------------------------

    def start_drain(self) -> Optional[int]:
        """Pop the oldest buffered write for draining into the array."""
        if self._draining is not None or not self._entries:
            return None
        block, _ = self._entries.popitem(last=False)
        self._draining = block
        return block

    def finish_drain(self) -> None:
        if self._draining is not None:
            self._draining = None
            self.drains_completed += 1

    def preempt_drain(self) -> Optional[int]:
        """Cancel the in-progress drain (read preemption).

        The unfinished write returns to the buffer head and will restart
        later.  Returns the preempted block, or None if nothing was
        draining or preemption is disabled.
        """
        if self._draining is None or not self.config.read_preemption:
            return None
        block = self._draining
        self._draining = None
        self._entries[block] = True
        self._entries.move_to_end(block, last=False)
        self.preemptions += 1
        return block

    @property
    def draining(self) -> Optional[int]:
        return self._draining

    def pending_drains(self) -> int:
        return len(self._entries)
