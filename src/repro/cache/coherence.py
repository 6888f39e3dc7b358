"""Distributed two-level MESI directory (Table 1).

Each L2 bank is the *home* of the blocks that map to it and keeps a
directory entry per cached block: the set of L1 sharers and, when some
L1 holds the block modified, the owning core.  The directory emits
coherence actions -- invalidations, forwards, recalls -- that the bank
controller turns into ``COHERENCE``-class network packets; those packets
are exactly the traffic the paper's bank-aware arbiter boosts past
requests headed to busy banks.

The protocol is intentionally weakly-ordered (invalidation acknowledg-
ements are collected but do not gate completion): the reproduced
mechanism is a *network scheduling* technique, and what matters is that
realistic coherence traffic with correct sharers flows on the NoC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cache.messages import CoherenceMsg, CoherenceOp


@dataclass
class DirectoryEntry:
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None  # core holding the block Modified


class Directory:
    """Directory slice for one home bank."""

    def __init__(self, bank: int):
        self.bank = bank
        self._entries: Dict[int, DirectoryEntry] = {}
        self.invalidations_sent = 0
        self.forwards_sent = 0
        self.recalls_sent = 0

    # ------------------------------------------------------------------

    def entry(self, block: int) -> Optional[DirectoryEntry]:
        return self._entries.get(block)

    def sharers_of(self, block: int) -> Set[int]:
        entry = self._entries.get(block)
        return set(entry.sharers) if entry else set()

    # ------------------------------------------------------------------

    def on_request(self, core: int, block: int,
                   exclusive: bool) -> List[CoherenceMsg]:
        """Handle a demand fetch (read or read-for-ownership).

        Returns the coherence messages the home bank must send.  The
        caller learns whether the data will be supplied by a dirty owner
        from the presence of a FORWARD message.
        """
        entry = self._entries.setdefault(block, DirectoryEntry())
        msgs: List[CoherenceMsg] = []

        if entry.owner is not None and entry.owner != core:
            # A dirty owner must supply (and, on RFO, relinquish) the data.
            previous_owner = entry.owner
            msgs.append(CoherenceMsg(
                op=CoherenceOp.FORWARD, block=block, requester_core=core,
                home_bank=self.bank, exclusive=exclusive,
                sharer=previous_owner,
            ))
            self.forwards_sent += 1
            if exclusive:
                entry.sharers = {core}
                entry.owner = core
            else:
                entry.sharers = {previous_owner, core}
                entry.owner = None
            return msgs

        if exclusive:
            for sharer in sorted(entry.sharers - {core}):
                msgs.append(CoherenceMsg(
                    op=CoherenceOp.INVALIDATE, block=block,
                    requester_core=core, home_bank=self.bank,
                    exclusive=True, sharer=sharer,
                ))
                self.invalidations_sent += 1
            entry.sharers = {core}
            entry.owner = core
        else:
            entry.sharers.add(core)
        return msgs

    def on_store_write(self, core: int, block: int) -> List[CoherenceMsg]:
        """A write-through store-miss write arrived at the home bank.

        All L1 copies (the writer holds none: write-no-allocate) become
        stale and must be invalidated.
        """
        entry = self._entries.get(block)
        if entry is None:
            return []
        msgs = []
        targets = set(entry.sharers)
        if entry.owner is not None:
            targets.add(entry.owner)
        for sharer in sorted(targets - {core}):
            msgs.append(CoherenceMsg(
                op=CoherenceOp.INVALIDATE, block=block,
                requester_core=core, home_bank=self.bank,
                exclusive=True, sharer=sharer,
            ))
            self.invalidations_sent += 1
        del self._entries[block]
        return msgs

    def on_writeback(self, core: int, block: int) -> None:
        """A dirty L1 eviction arrived at the home bank."""
        entry = self._entries.get(block)
        if entry is None:
            return
        entry.sharers.discard(core)
        if entry.owner == core:
            entry.owner = None
        if not entry.sharers and entry.owner is None:
            del self._entries[block]

    def on_inv_ack(self, core: int, block: int) -> None:
        """A sharer confirmed an invalidation (weakly ordered: counted
        for traffic realism, nothing gates on it)."""

    def on_l2_eviction(self, block: int) -> List[CoherenceMsg]:
        """Inclusive-L2 eviction: recall the block from all L1 sharers."""
        entry = self._entries.pop(block, None)
        if entry is None:
            return []
        msgs = []
        targets = set(entry.sharers)
        if entry.owner is not None:
            targets.add(entry.owner)
        for sharer in sorted(targets):
            msgs.append(CoherenceMsg(
                op=CoherenceOp.RECALL, block=block, requester_core=None,
                home_bank=self.bank, sharer=sharer,
            ))
            self.recalls_sent += 1
        return msgs

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Protocol invariant: an owned block has exactly one sharer set
        containing the owner."""
        for block, entry in self._entries.items():
            if entry.owner is not None:
                assert entry.owner in entry.sharers or not entry.sharers, (
                    f"bank {self.bank} block {block}: owner "
                    f"{entry.owner} missing from sharers {entry.sharers}"
                )
