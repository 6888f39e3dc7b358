"""Set-associative tag arrays with LRU replacement.

Shared by the private L1 caches and the banked shared L2.  Arrays are
addressed in *block* units: callers pass block numbers (byte address
divided by the block size) and the array handles set indexing, hit/miss
determination, fills, evictions, invalidations and dirty tracking.

A set is created by its first fill.  Until then its slot holds
:data:`EMPTY_SET`, one read-only empty mapping shared by every array, so
building an array costs one list however many sets it has, and a run
allocates only the sets it fills.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import List, Mapping, Optional, Tuple

from repro.errors import ConfigError

#: The slot of every set no fill has reached.  Read-only and empty, so
#: lookups, presence and dirty tests, dirty marking and invalidation
#: see an empty set without a branch of their own; only
#: :meth:`CacheArray.fill` replaces it, with the set's ``dict``.
EMPTY_SET: Mapping[int, bool] = MappingProxyType({})


class CacheArray:
    """An LRU set-associative cache tag/state array.

    Args:
        capacity_bytes: Total data capacity.
        associativity: Ways per set.
        block_bytes: Cache-line size.
        name: For diagnostics.
        index_stride: Divisor applied to the block number before set
            indexing.  A bank of a block-interleaved shared cache only
            sees blocks with ``block % n_banks == bank``; its set index
            must therefore come from the bits *above* the bank-select
            bits (``index_stride = n_banks``) or all blocks alias into
            ``n_sets / n_banks`` sets.
    """

    def __init__(self, capacity_bytes: int, associativity: int,
                 block_bytes: int, name: str = "cache",
                 index_stride: int = 1):
        if capacity_bytes < associativity * block_bytes:
            raise ConfigError(
                f"{name}: capacity {capacity_bytes} below one set"
            )
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.n_blocks = capacity_bytes // block_bytes
        self.n_sets = max(1, self.n_blocks // associativity)
        self.name = name
        self.index_stride = max(1, index_stride)
        #: each set maps block -> dirty flag, its insertion order the
        #: LRU order (MRU last); :data:`EMPTY_SET` until its first fill
        self._sets: List[Mapping[int, bool]] = [EMPTY_SET] * self.n_sets
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    # ------------------------------------------------------------------

    def _set_of(self, block: int) -> Mapping[int, bool]:
        return self._sets[(block // self.index_stride) % self.n_sets]

    def lookup(self, block: int, touch: bool = True) -> bool:
        """Hit test; updates LRU order and hit/miss counters."""
        entry = self._set_of(block)
        if block in entry:
            self.hits += 1
            if touch:
                entry[block] = entry.pop(block)
            return True
        self.misses += 1
        return False

    def contains(self, block: int) -> bool:
        """Presence test without statistics or LRU side effects."""
        return block in self._set_of(block)

    def is_dirty(self, block: int) -> bool:
        return self._set_of(block).get(block, False)

    def mark_dirty(self, block: int) -> None:
        entry = self._set_of(block)
        if block in entry:
            del entry[block]
            entry[block] = True

    def mark_clean(self, block: int) -> None:
        entry = self._set_of(block)
        if block in entry:
            entry[block] = False

    def fill(self, block: int, dirty: bool = False
             ) -> Optional[Tuple[int, bool]]:
        """Insert a block; return ``(victim_block, victim_dirty)`` if an
        eviction was necessary, else None.

        The one method that creates a set: a slot still holding
        :data:`EMPTY_SET` gets its own ``dict`` here."""
        sets = self._sets
        index = (block // self.index_stride) % self.n_sets
        entry = sets[index]
        if entry is EMPTY_SET:
            entry = sets[index] = {}
        elif block in entry:
            entry[block] = entry.pop(block) or dirty
            return None
        victim = None
        if len(entry) >= self.associativity:
            victim_block = next(iter(entry))
            victim_dirty = entry.pop(victim_block)
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
            victim = (victim_block, victim_dirty)
        entry[block] = dirty
        return victim

    def invalidate(self, block: int) -> Tuple[bool, bool]:
        """Remove a block; return ``(was_present, was_dirty)``."""
        entry = self._set_of(block)
        if block in entry:
            dirty = entry.pop(block)
            return True, dirty
        return False, False

    # ------------------------------------------------------------------

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def resident_blocks(self):
        """Iterate over all resident block numbers (for invariants)."""
        for entry in self._sets:
            yield from entry.keys()
