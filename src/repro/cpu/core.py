"""Trace-driven out-of-order-lite core model (paper Table 1).

Each core commits up to two instructions per cycle, at most one of which
is a memory operation.  Memory operations probe a private write-back L1;
misses allocate an MSHR (32 per core) and issue a request packet to the
block's home L2 bank.  The 128-entry instruction window is approximated
by a retirement rule: the core stalls once the oldest outstanding *load*
is more than ``instruction_window`` committed instructions old.  Store
misses (read-for-ownership) occupy MSHRs but do not block retirement.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Sized

from repro.cache.arrays import CacheArray
from repro.cache.messages import CoherenceMsg, CoherenceOp, Transaction
from repro.cache.mshr import MSHRFile
from repro.cpu.trace import AccessStream
from repro.noc.packet import Packet, PacketClass
from repro.sim.config import SystemConfig

SendFn = Callable[..., None]

#: Statuses returned by :meth:`Core.step`, used by the event-driven
#: scheduler to deregister cores whose following cycles are provably
#: pure counter bumps (see CMPSimulator's cycle-skip fast path).
CORE_RUN = 0           # did real work; must step next cycle
CORE_GAP = 1           # committed a full width of gap instructions
CORE_STALL_WINDOW = 2  # instruction window blocked on a load
CORE_STALL_NI = 3      # NI source queue full
CORE_STALL_MSHR = 4    # MSHR file full


class CoreStats:
    """Per-core instrumentation."""

    __slots__ = (
        "committed", "l1_hits", "l1_misses", "stall_cycles",
        "mshr_stall_cycles", "ni_stall_cycles", "writebacks",
        "miss_latency_sum", "miss_latency_samples",
    )

    def __init__(self):
        self.committed = 0
        #: memory operations by L1 outcome (their sum is the operation
        #: count); a stalled retry counts once, when it issues
        self.l1_hits = 0
        self.l1_misses = 0
        self.stall_cycles = 0
        self.mshr_stall_cycles = 0
        self.ni_stall_cycles = 0
        self.writebacks = 0
        self.miss_latency_sum = 0
        self.miss_latency_samples = 0

    def ipc(self, cycles: int) -> float:
        return self.committed / cycles if cycles else 0.0

    def average_miss_latency(self) -> float:
        if not self.miss_latency_samples:
            return 0.0
        return self.miss_latency_sum / self.miss_latency_samples


class Core:
    """One processing node in the core layer."""

    def __init__(
        self,
        core_id: int,
        node: int,
        config: SystemConfig,
        stream: AccessStream,
        send: SendFn,
        bank_node_for_block: Callable[[int], int],
        ni_queue: Sized,
        ni_limit: int,
    ):
        self.core_id = core_id
        self.node = node
        self.config = config
        self.stream = stream
        self.send = send
        self._bank_node_for_block = bank_node_for_block
        #: the node's NI source queue: a miss stalls while it holds
        #: ``ni_limit`` packets (source-side flow control)
        self._ni_queue = ni_queue
        self._ni_limit = ni_limit

        self.l1 = CacheArray(
            config.l1_effective_bytes, config.l1_associativity,
            config.block_bytes, name=f"L1[{core_id}]",
        )
        self.mshrs = MSHRFile(config.l1_mshrs, name=f"L1MSHR[{core_id}]")
        self.stats = CoreStats()

        #: outstanding blocking loads: block -> (committed at issue,
        #: effective window before retirement stalls)
        self._blocking_loads: Dict[int, tuple] = {}
        self._rng = random.Random(0x5EED ^ (core_id * 65537))
        #: block -> issue cycle, for miss-latency accounting
        self._miss_issue_cycle: Dict[int, int] = {}

        self._gap_remaining = 0
        self._commit_width = config.commit_width
        self._pending_block: Optional[int] = None
        self._pending_store = False
        self._advance_stream()

    # ------------------------------------------------------------------

    def _advance_stream(self) -> None:
        gap, block, is_store = self.stream.next_access()
        self._gap_remaining = gap
        self._pending_block = block
        self._pending_store = is_store

    def _window_blocked(self) -> bool:
        if not self._blocking_loads:
            return False
        committed = self.stats.committed
        for issued_at, window in self._blocking_loads.values():
            if committed - issued_at >= window:
                return True
        return False

    # ------------------------------------------------------------------

    def step(self, now: int) -> int:
        """Advance one cycle; return a ``CORE_*`` scheduling status.

        The status classifies what the *next* cycles would do if nothing
        external changes: pure stalls and pure gap-commits (bounded by
        :meth:`pure_gap_cycles`) are replayable in bulk by
        ``CMPSimulator._accrue_core``, so the scheduler may put the core
        to sleep until a wake event (packet delivery, NI drain,
        gap/window boundary).
        """
        stats = self.stats
        if self._window_blocked():
            stats.stall_cycles += 1
            return CORE_STALL_WINDOW
        mem_op_done = False
        attempted = False
        stall = CORE_RUN
        committed_before = stats.committed
        for _slot in range(self._commit_width):
            if self._gap_remaining > 0:
                self._gap_remaining -= 1
                stats.committed += 1
                continue
            if mem_op_done:
                break  # only one memory operation per cycle (Table 1)
            attempted = True
            if not self._issue_mem_op(now):
                stall = self._last_stall
                break  # NI / MSHRs full: retry next cycle
            mem_op_done = True
            if self._window_blocked():
                break
        if not attempted:
            return CORE_GAP
        if stall != CORE_RUN and self.stats.committed == committed_before:
            # Nothing committed and the first slot stalled: identical
            # cycles follow until the stall's wake event.
            return stall
        return CORE_RUN

    def pure_gap_cycles(self) -> int:
        """Upper bound on immediately-following cycles whose only effect
        is committing ``commit_width`` gap instructions each.

        The bound is limited by the remaining gap and by the first cycle
        an outstanding blocking load would trip the retirement window at
        cycle entry; within that horizon the scheduler may replay the
        cycles in bulk (``committed += k * width``) without stepping.
        """
        w = self.config.commit_width
        j = self._gap_remaining // w
        if j and self._blocking_loads:
            lim = min(
                issued + window
                for issued, window in self._blocking_loads.values()
            )
            d = lim - self.stats.committed
            if d <= 0:
                return 0
            m = (d + w - 1) // w
            if m < j:
                j = m
        return j

    def _issue_mem_op(self, now: int) -> bool:
        block = self._pending_block
        is_store = self._pending_store
        if self.l1.lookup(block):
            self.stats.l1_hits += 1
            if is_store:
                self.l1.mark_dirty(block)
            self.stats.committed += 1
            self._advance_stream()
            return True
        if len(self._ni_queue) >= self._ni_limit:
            # NI source queue / store buffer full: stall the stream.
            self.stats.ni_stall_cycles += 1
            self._last_stall = CORE_STALL_NI
            return False
        if is_store:
            # Store miss: write the line through to the home L2 bank
            # (write-no-allocate L1).  This is the paper's Table 3
            # accounting -- l2wpki counts store misses arriving at the
            # banks as long-latency write accesses -- and it is exactly
            # the traffic the STT-RAM-aware arbiter delays.  The store
            # retires through the store buffer without blocking.
            self.stats.l1_misses += 1
            self.stats.committed += 1
            self._send_store_write(block, now)
            self._advance_stream()
            return True
        # Load miss
        outcome = self.mshrs.allocate(block, waiter=(now, is_store))
        if outcome is None:
            self.stats.mshr_stall_cycles += 1
            self._last_stall = CORE_STALL_MSHR
            return False
        self.stats.l1_misses += 1
        self.stats.committed += 1
        if outcome:
            self._send_request(block, is_store, now)
            self._miss_issue_cycle[block] = now
        if not is_store and block not in self._blocking_loads:
            if self._rng.random() < self.config.load_dep_prob:
                window = self.config.load_dep_window
            else:
                window = self.config.instruction_window
            self._blocking_loads[block] = (self.stats.committed, window)
        self._advance_stream()
        return True

    def _send_request(self, block: int, is_store: bool, now: int) -> None:
        txn = Transaction(
            core=self.core_id, block=block, is_store=is_store,
            kind="read", issue_cycle=now,
        )
        dst = self._bank_node_for_block(block)
        self.send(
            PacketClass.REQUEST, self.node, dst,
            self.config.addr_packet_flits, False, None, txn, now,
        )

    def _send_store_write(self, block: int, now: int) -> None:
        txn = Transaction(
            core=self.core_id, block=block, is_store=True,
            kind="store", issue_cycle=now,
        )
        dst = self._bank_node_for_block(block)
        self.send(
            PacketClass.REQUEST, self.node, dst,
            self.config.data_packet_flits, True, None, txn, now,
        )

    def _send_writeback(self, block: int, now: int) -> None:
        txn = Transaction(
            core=self.core_id, block=block, is_store=True,
            kind="writeback", issue_cycle=now,
        )
        dst = self._bank_node_for_block(block)
        self.send(
            PacketClass.REQUEST, self.node, dst,
            self.config.data_packet_flits, True, None, txn, now,
        )
        self.stats.writebacks += 1

    # ------------------------------------------------------------------
    # Network-facing entry points
    # ------------------------------------------------------------------

    def on_packet(self, pkt: Packet, now: int) -> None:
        if pkt.klass is PacketClass.RESPONSE:
            self._on_fill(pkt.payload, now)
        elif pkt.klass is PacketClass.COHERENCE:
            self._on_coherence(pkt.payload, now)

    def _on_fill(self, txn: Transaction, now: int) -> None:
        block = txn.block
        issue = self._miss_issue_cycle.pop(block, None)
        if issue is not None:
            self.stats.miss_latency_sum += now - issue
            self.stats.miss_latency_samples += 1
        waiters = self.mshrs.complete(block)
        dirty = txn.is_store or any(st for (_c, st) in waiters)
        victim = self.l1.fill(block, dirty=dirty)
        if victim is not None:
            victim_block, victim_dirty = victim
            if victim_dirty:
                self._send_writeback(victim_block, now)
        self._blocking_loads.pop(block, None)

    def _on_coherence(self, msg: CoherenceMsg, now: int) -> None:
        if msg.op in (CoherenceOp.INVALIDATE, CoherenceOp.RECALL):
            present, dirty = self.l1.invalidate(msg.block)
            if present and dirty:
                self._send_writeback(msg.block, now)
            ack = CoherenceMsg(
                op=CoherenceOp.INV_ACK, block=msg.block,
                requester_core=None, home_bank=msg.home_bank,
                sharer=self.core_id,
            )
            bank_node = self._bank_node_for_block(msg.block)
            # INV_ACK returns to the *home bank* of the block.
            self.send(
                PacketClass.COHERENCE, self.node, bank_node,
                self.config.addr_packet_flits, False, None, ack, now,
            )
            # An invalidated block no longer blocks retirement... it was
            # resident, so it could not have been outstanding.
        elif msg.op is CoherenceOp.FORWARD:
            # Supply the dirty line to the requester from our L1.
            if msg.exclusive:
                self.l1.invalidate(msg.block)
            else:
                self.l1.mark_clean(msg.block)
                # Downgrade implies writing the dirty data back home.
                self._send_writeback(msg.block, now)
            if msg.txn is not None:
                msg.txn.forwarded_from_owner = True
                requester_node = msg.txn.core
                self.send(
                    PacketClass.RESPONSE, self.node, requester_node,
                    self.config.data_packet_flits, False, None,
                    msg.txn, now,
                )

    # ------------------------------------------------------------------

    def quiesced(self) -> bool:
        return not len(self.mshrs)
