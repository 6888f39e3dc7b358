"""Main memory and memory controllers (Table 1).

Four memory controllers sit at the corner nodes of the cache layer.  Each
access costs 320 cycles; a controller can issue a new DRAM access every
``issue_interval`` cycles and supports a bounded number of outstanding
requests (back-pressuring the banks' miss streams).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.cache.messages import MemMsg
from repro.noc.packet import Packet, PacketClass
from repro.noc.router import NEVER
from repro.sim.config import SystemConfig

ResponseSender = Callable[[MemMsg, int], None]


class MemoryController:
    """One corner-node DRAM channel controller."""

    def __init__(self, index: int, node: int, config: SystemConfig,
                 issue_interval: int = 4):
        self.index = index
        self.node = node
        self.latency = config.memory_latency_cycles
        self.issue_interval = issue_interval
        self.max_outstanding = config.max_outstanding_memory * 4
        #: (completion_cycle, seq, msg) — reads awaiting data return
        self._pending: List[Tuple[int, int, MemMsg]] = []
        #: FIFO of not-yet-issued requests (deque: O(1) popleft)
        self._waiting: Deque[Tuple[MemMsg, int]] = deque()
        self._next_issue = 0
        #: due hint for the event scheduler: no ``step`` before this cycle
        #: can make progress.  The scheduler sets it from
        #: ``next_event_cycle`` after every step it executes; an arrival
        #: zeroes it.  Stale-low is safe: a premature step is a no-op.
        self.kdue = 0
        self._seq = 0
        self.reads = 0
        self.writes = 0
        self.busy_cycles = 0
        self.send_response: Optional[ResponseSender] = None

    # ------------------------------------------------------------------

    def on_packet(self, pkt: Packet, now: int) -> None:
        """A MEMORY-class packet arrived from an L2 bank."""
        msg = pkt.payload
        assert pkt.klass is PacketClass.MEMORY
        self._waiting.append((msg, now))
        self.kdue = 0

    def _issue(self, msg: MemMsg, now: int) -> None:
        start = max(now, self._next_issue)
        self._next_issue = start + self.issue_interval
        if msg.is_write:
            # Writes (dirty L2 evictions) complete silently.
            self.writes += 1
            return
        self.reads += 1
        completion = start + self.latency
        self._seq += 1
        heapq.heappush(self._pending, (completion, self._seq, msg))

    def step(self, now: int) -> None:
        while (
            self._waiting
            and len(self._pending) < self.max_outstanding
            and self._next_issue <= now
        ):
            msg, _arrival = self._waiting.popleft()
            self._issue(msg, now)
        while self._pending and self._pending[0][0] <= now:
            _completion, _seq, msg = heapq.heappop(self._pending)
            if self.send_response is not None:
                self.send_response(msg, now)

    # ------------------------------------------------------------------

    def next_event_cycle(self, now: int) -> int:
        """Earliest future cycle ``step`` could make progress, barring
        new request arrivals (which re-activate the controller)."""
        nxt = NEVER
        if self._pending:
            t = self._pending[0][0]
            nxt = t if t > now else now + 1
        if self._waiting and len(self._pending) < self.max_outstanding:
            t = self._next_issue if self._next_issue > now else now + 1
            if t < nxt:
                nxt = t
        return nxt

    def outstanding(self) -> int:
        return len(self._pending) + len(self._waiting)

    def idle(self) -> bool:
        return not self._pending and not self._waiting


def place_memory_controllers(config: SystemConfig, topo) -> List[int]:
    """Corner cache-layer nodes that host the memory controllers."""
    corners = topo.corner_nodes(layer=1)
    return corners[: config.n_memory_controllers]


def mc_for_block(block: int, n_mcs: int) -> int:
    """Address-interleaved memory-controller selection."""
    return block % n_mcs if n_mcs else 0
