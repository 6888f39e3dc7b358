"""L2 bank controller.

Each cache-layer node hosts one L2 bank: a request queue fed by the
node's network interface, a single-ported SRAM or STT-RAM data array
(Table 2 service times), the block's directory slice, and optionally the
Sun et al. read-preemptive write buffer (Section 4.4 comparator).

The controller is where the paper's problem lives: a 33-cycle STT-RAM
write occupies the bank while subsequent requests queue at the bank
interface.  The proposed network schemes shift that queueing upstream
into router buffers; this model therefore measures *bank queueing
latency* (wait between arrival and service start) separately from
network latency, which is exactly the Figure 7 breakdown.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.cache.arrays import CacheArray
from repro.cache.coherence import Directory
from repro.cache.messages import (
    CoherenceMsg, CoherenceOp, MemMsg, Transaction,
)
from repro.cache.mshr import MSHRFile
from repro.cache.write_buffer import WriteBuffer
from repro.noc.packet import Packet, PacketClass
from repro.noc.router import NEVER
from repro.obs.events import EV_BANK_END, EV_BANK_START, EV_FAULT_REDIRECT
from repro.sim.config import SystemConfig

#: send(klass, dst_node, flits, is_write, bank, payload) -> None
SendFn = Callable[..., None]


class BankStats:
    """Per-bank instrumentation."""

    __slots__ = (
        "reads", "writes", "fills", "drains", "l2_hits", "l2_misses",
        "queue_wait_sum", "queue_wait_samples", "max_queue_depth",
        "service_intervals",
    )

    def __init__(self):
        self.reads = 0
        self.writes = 0
        self.fills = 0
        self.drains = 0
        self.l2_hits = 0
        self.l2_misses = 0
        self.queue_wait_sum = 0
        self.queue_wait_samples = 0
        self.max_queue_depth = 0
        #: Always-on ground-truth service log: one ``[start, end)``
        #: interval per bank operation, appended at service start.  A
        #: read preemption truncates the last interval's end to the
        #: preemption cycle.  This is the "actual busy" side of the
        #: estimator-accuracy analysis (repro.obs.accuracy) and the
        #: source of the epoch sampler's per-bank busy fractions, and
        #: the one record of bank busy time.
        self.service_intervals: List[Tuple[int, int]] = []


class BankController:
    """One shared-L2 bank and its directory slice."""

    def __init__(
        self,
        bank: int,
        node: int,
        config: SystemConfig,
        send: SendFn,
        mc_node_for_block: Callable[[int], int],
        core_node_for: Callable[[int], int],
        log_accesses: bool = False,
    ):
        self.bank = bank
        self.node = node
        self.config = config
        self.send = send
        self._mc_node_for_block = mc_node_for_block
        self._core_node_for = core_node_for

        self.array = CacheArray(
            config.l2_bank_bytes, config.l2_associativity,
            config.block_bytes, name=f"L2[{bank}]",
            index_stride=config.n_banks,
        )
        self.directory = Directory(bank)
        self.mshrs = MSHRFile(32, name=f"L2MSHR[{bank}]")
        self.write_buffer: Optional[WriteBuffer] = None
        if config.write_buffer is not None:
            self.write_buffer = WriteBuffer(config.write_buffer)
        self.hybrid = None
        if config.hybrid_sram_ways > 0:
            from repro.cache.hybrid import HybridPartition
            self.hybrid = HybridPartition(config, bank)

        self.read_cycles = config.l2_read_cycles
        self.write_cycles = config.l2_write_cycles
        self._termination_rng: Optional[random.Random] = None
        if config.write_termination:
            self._termination_rng = random.Random(
                (config.seed << 8) ^ bank)
        self.termination_cycles_saved = 0

        #: queued work: (kind, payload, arrival_cycle)
        self.queue: deque = deque()
        self.queue_limit = config.bank_queue_entries
        #: dequeue notification, called with ``now`` on every pop of
        #: ``queue`` (:meth:`_dequeue`): queue space is the ejection
        #: flow-control predicate, so a router asleep on this bank's
        #: full queue must be re-armed (the simulator wires this to
        #: ``Network.on_bank_dequeue``)
        self.on_dequeue: Optional[Callable[[int], None]] = None
        self.busy_until = 0
        self._current_op: Optional[Tuple] = None
        self.stats = BankStats()
        #: observability emit callable; None when tracing is detached
        self.trace = None

        # Fault model: while ``now < port_failed_until`` the array port
        # is dead.  Queued work that has waited ``port_redirect_after``
        # cycles times out and is redirected around the array (reads
        # fetch from memory, writes write through).  Both stay 0 in
        # fault-free runs, so the hot path pays one integer compare.
        self.port_failed_until = 0
        self.port_redirect_after = 0
        self.redirected_reads = 0
        self.redirected_writes = 0
        self.redirected_fills = 0

        self.log_accesses = log_accesses
        #: (cycle, is_write) service-start log for the Figure 3 analysis
        self.access_log: List[Tuple[int, bool]] = []

    # ------------------------------------------------------------------
    # Network-facing entry points
    # ------------------------------------------------------------------

    def can_accept(self, pkt: Packet) -> bool:
        """Ejection flow control: is there bank-interface queue space?

        Coherence acknowledgements carry no queue entry and are always
        accepted; requests and fills stall at the router when the finite
        interface queue is full (back-pressuring the network, which is
        what makes STT-RAM-oblivious arbitration congest the mesh).
        """
        if pkt.klass is PacketClass.COHERENCE:
            return True
        return len(self.queue) < self.queue_limit

    def on_packet(self, pkt: Packet, now: int) -> None:
        """A packet for this bank was ejected at the local NI."""
        if pkt.klass is PacketClass.REQUEST:
            txn: Transaction = pkt.payload
            kind = "read" if txn.kind == "read" else "write"
            self._enqueue(kind, txn, now)
        elif pkt.klass is PacketClass.MEMORY:
            msg: MemMsg = pkt.payload
            self._enqueue("fill", msg, now)
        elif pkt.klass is PacketClass.COHERENCE:
            msg = pkt.payload
            if msg.op is CoherenceOp.INV_ACK:
                self.directory.on_inv_ack(msg.sharer, msg.block)
        # ACK packets are consumed by the simulator's dispatch layer.

    def _enqueue(self, kind: str, payload, now: int) -> None:
        if self.log_accesses and kind in ("read", "write"):
            # Figure 3 measures the *arrival* separation of requests at
            # a bank, before any service queueing.
            self.access_log.append((now, kind == "write"))
        self.queue.append((kind, payload, now))
        depth = len(self.queue)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        # Read preemption: an arriving read may cancel an in-flight
        # write-buffer drain so the bank can serve the read immediately.
        if (
            kind == "read"
            and self.write_buffer is not None
            and self._current_op is not None
            and self._current_op[0] == "drain"
            and self.busy_until > now
        ):
            if self.write_buffer.preempt_drain() is not None:
                self.busy_until = now
                self._current_op = None
                intervals = self.stats.service_intervals
                if intervals:
                    intervals[-1] = (intervals[-1][0], now)
                trace = self.trace
                if trace is not None:
                    trace(now, EV_BANK_END, {
                        "bank": self.bank, "op": "drain", "preempted": True,
                    })

    def _dequeue(self, now: int) -> Tuple:
        """Pop the queue head and report the freed slot."""
        entry = self.queue.popleft()
        notify = self.on_dequeue
        if notify is not None:
            notify(now)
        return entry

    # ------------------------------------------------------------------
    # Simulation step
    # ------------------------------------------------------------------

    def step(self, now: int) -> None:
        if self.busy_until > now:
            return
        if self._current_op is not None:
            self._complete_op(now)
        if now < self.port_failed_until:
            self._step_port_failed(now)
            return
        queue = self.queue
        if queue:
            kind, payload, arrival = self._dequeue(now)
            stats = self.stats
            stats.queue_wait_sum += now - arrival
            stats.queue_wait_samples += 1
            self._start_op(kind, payload, now)
        elif self.write_buffer is not None:
            block = self.write_buffer.start_drain()
            if block is not None:
                self._current_op = ("drain", block, None)
                service = self._array_write_cycles()
                self.busy_until = now + service
                self.stats.service_intervals.append((now, now + service))
                trace = self.trace
                if trace is not None:
                    trace(now, EV_BANK_START, {
                        "bank": self.bank, "op": "drain",
                        "service": service,
                        "queue_depth": len(queue),
                    })

    # ------------------------------------------------------------------
    # Port-failure fault model
    # ------------------------------------------------------------------

    def fail_port(self, now: int, until: int, redirect_after: int) -> None:
        """Kill the array port until ``until`` (NEVER = permanent).

        Queued work times out after ``redirect_after`` cycles of waiting
        and is redirected around the dead array.
        """
        self.port_failed_until = until
        self.port_redirect_after = redirect_after

    def _step_port_failed(self, now: int) -> None:
        """Drain timed-out queue entries while the array port is dead.

        The array itself is unreachable (the port is the fault), so no
        lookups, fills or drains happen here -- only redirects.
        """
        queue = self.queue
        redirect_after = self.port_redirect_after
        stats = self.stats
        while queue and now - queue[0][2] >= redirect_after:
            kind, payload, arrival = self._dequeue(now)
            waited = now - arrival
            stats.queue_wait_sum += waited
            stats.queue_wait_samples += 1
            trace = self.trace
            if trace is not None:
                trace(now, EV_FAULT_REDIRECT, {
                    "bank": self.bank, "op": kind, "waited": waited,
                })
            self._redirect(kind, payload, now)

    def _redirect(self, kind: str, payload, now: int) -> None:
        """Service one request without touching the failed array."""
        if kind == "read":
            self.redirected_reads += 1
            txn: Transaction = payload
            txn.service_start = now
            primary = self.mshrs.allocate(txn.block, waiter=txn)
            if primary is None:
                primary = self.mshrs.force_allocate(txn.block, waiter=txn)
            if primary:
                self._emit_memory_read(txn.block, now)
        elif kind == "write":
            self.redirected_writes += 1
            txn = payload
            txn.service_start = now
            self._emit_memory_write(txn.block, now)
            if txn.kind == "writeback":
                self.directory.on_writeback(txn.core, txn.block)
            elif txn.kind == "store":
                invals = self.directory.on_store_write(txn.core, txn.block)
                self._emit_coherence(invals, None, now)
        elif kind == "fill":
            # Bypass-respond: forward the returned data to all waiters
            # without installing the block (the array is unreachable).
            self.redirected_fills += 1
            msg: MemMsg = payload
            block = msg.block
            for txn in self.mshrs.complete(block):
                msgs = self.directory.on_request(
                    txn.core, block, txn.is_store)
                owner_forward = self._emit_coherence(msgs, txn, now)
                if not owner_forward:
                    self._emit_response(txn, now)
        elif kind == "migrate":
            # The dirty SRAM victim cannot land in the STT-RAM array;
            # write it through to memory instead.
            self.redirected_writes += 1
            self._emit_memory_write(payload, now)

    # ------------------------------------------------------------------
    # Operation lifecycle
    # ------------------------------------------------------------------

    def _array_write_cycles(self) -> int:
        """Service time of one array write, with optional early write
        termination (the write ends when the last bit has switched)."""
        if self._termination_rng is None:
            return self.write_cycles
        min_cycles = max(
            self.read_cycles,
            int(self.write_cycles
                * self.config.write_termination_min_fraction),
        )
        cycles = self._termination_rng.randint(min_cycles,
                                               self.write_cycles)
        self.termination_cycles_saved += self.write_cycles - cycles
        return cycles

    def _start_op(self, kind: str, payload, now: int) -> None:
        detect = 0
        if self.write_buffer is not None:
            detect = self.write_buffer.config.detect_cycles

        if kind == "read":
            service = detect + self.read_cycles
            self._current_op = ("read", payload, now)
        elif kind == "write":
            if (
                self.write_buffer is not None
                and self.write_buffer.absorb(payload.block)
            ):
                service = detect + self.write_buffer.config.sram_write_cycles
                self._current_op = ("write_buffered", payload, now)
            elif self.hybrid is not None:
                # Hybrid bank: the write lands in the SRAM ways.
                service = detect + self.hybrid.write_cycles
                self._current_op = ("write_hybrid", payload, now)
            else:
                service = detect + self._array_write_cycles()
                self._current_op = ("write", payload, now)
        elif kind == "migrate":
            # Background SRAM -> STT-RAM migration of a dirty victim.
            service = self._array_write_cycles()
            self._current_op = ("migrate", payload, now)
        elif kind == "fill":
            service = self._array_write_cycles()
            self._current_op = ("fill", payload, now)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown bank op {kind}")

        self.busy_until = now + service
        self.stats.service_intervals.append((now, now + service))
        trace = self.trace
        if trace is not None:
            trace(now, EV_BANK_START, {
                "bank": self.bank, "op": self._current_op[0],
                "service": service, "queue_depth": len(self.queue),
            })

    def _complete_op(self, now: int) -> None:
        kind, payload, start = self._current_op
        self._current_op = None
        trace = self.trace
        if trace is not None:
            trace(now, EV_BANK_END, {
                "bank": self.bank, "op": kind, "preempted": False,
            })
        if kind == "read":
            self._finish_read(payload, now)
        elif kind == "write_hybrid":
            self._finish_hybrid_write(payload, now)
        elif kind in ("write", "write_buffered"):
            self._finish_write(payload, now)
        elif kind == "fill":
            self._finish_fill(payload, now)
        elif kind == "migrate":
            self._finish_migrate(payload, now)
        elif kind == "drain":
            self.write_buffer.finish_drain()
            self.stats.drains += 1

    # -- reads ------------------------------------------------------------

    def _finish_read(self, txn: Transaction, now: int) -> None:
        self.stats.reads += 1
        block = txn.block
        txn.service_start = now
        buffered = (
            self.write_buffer is not None and self.write_buffer.probe(block)
        )
        hybrid_hit = self.hybrid is not None and self.hybrid.lookup(block)
        hit = self.array.lookup(block) or buffered or hybrid_hit
        if hit:
            self.stats.l2_hits += 1
            msgs = self.directory.on_request(txn.core, block, txn.is_store)
            owner_forward = self._emit_coherence(msgs, txn, now)
            if not owner_forward:
                self._emit_response(txn, now)
        else:
            self.stats.l2_misses += 1
            primary = self.mshrs.allocate(block, waiter=txn)
            if primary is None:
                # MSHR file full: the bank never drops a request -- model
                # the overflow entry and fetch anyway.
                primary = self.mshrs.force_allocate(block, waiter=txn)
            if primary:
                self._emit_memory_read(block, now)

    # -- writes (L1 write-backs) -------------------------------------------

    def _finish_write(self, txn: Transaction, now: int) -> None:
        self.stats.writes += 1
        txn.service_start = now
        block = txn.block
        if self.array.contains(block):
            self.array.mark_dirty(block)
        else:
            # Write-allocate: a full-line write installs the block
            # without fetching it from memory.
            victim = self.array.fill(block, dirty=True)
            if victim is not None:
                victim_block, victim_dirty = victim
                if victim_dirty:
                    self._emit_memory_write(victim_block, now)
                recalls = self.directory.on_l2_eviction(victim_block)
                self._emit_coherence(recalls, None, now)
        if txn.kind == "writeback":
            self.directory.on_writeback(txn.core, block)
        elif txn.kind == "store":
            invals = self.directory.on_store_write(txn.core, block)
            self._emit_coherence(invals, None, now)

    def _finish_hybrid_write(self, txn: Transaction, now: int) -> None:
        """A write completed into the SRAM ways of a hybrid bank."""
        self.stats.writes += 1
        txn.service_start = now
        block = txn.block
        if self.array.contains(block):
            # Keep a single copy: the SRAM partition now owns it.
            self.array.invalidate(block)
        victim = self.hybrid.absorb_write(block)
        if victim is not None:
            # Dirty SRAM victim migrates into the STT-RAM array when the
            # bank next picks the internal migrate op up.
            self.queue.append(("migrate", victim[0], now))
        if txn.kind == "writeback":
            self.directory.on_writeback(txn.core, block)
        elif txn.kind == "store":
            invals = self.directory.on_store_write(txn.core, block)
            self._emit_coherence(invals, None, now)

    def _finish_migrate(self, block: int, now: int) -> None:
        victim = self.array.fill(block, dirty=True)
        if victim is not None:
            victim_block, victim_dirty = victim
            if victim_dirty:
                self._emit_memory_write(victim_block, now)
            recalls = self.directory.on_l2_eviction(victim_block)
            self._emit_coherence(recalls, None, now)

    # -- fills ------------------------------------------------------------

    def _finish_fill(self, msg: MemMsg, now: int) -> None:
        self.stats.fills += 1
        block = msg.block
        victim = self.array.fill(block, dirty=False)
        if victim is not None:
            victim_block, victim_dirty = victim
            if victim_dirty:
                self._emit_memory_write(victim_block, now)
            recalls = self.directory.on_l2_eviction(victim_block)
            self._emit_coherence(recalls, None, now)
        for txn in self.mshrs.complete(block):
            msgs = self.directory.on_request(
                txn.core, block, txn.is_store)
            owner_forward = self._emit_coherence(msgs, txn, now)
            if not owner_forward:
                self._emit_response(txn, now)

    # ------------------------------------------------------------------
    # Packet emission
    # ------------------------------------------------------------------

    def _emit_response(self, txn: Transaction, now: int) -> None:
        dst = self._core_node_for(txn.core)
        self.send(
            PacketClass.RESPONSE, self.node, dst,
            self.config.data_packet_flits, False, None, txn, now,
        )

    def _emit_coherence(self, msgs: List[CoherenceMsg],
                        txn: Optional[Transaction], now: int) -> bool:
        """Send directory messages; return True if a dirty owner will
        forward the data to the requester instead of this bank."""
        owner_forward = False
        for msg in msgs:
            if msg.op is CoherenceOp.FORWARD:
                owner_forward = True
                msg.txn = txn
                # The forward goes to the current owner recorded before
                # the directory transition; requester field names target.
                dst_core = self._owner_for_forward(msg)
            else:
                dst_core = msg.sharer
            dst = self._core_node_for(dst_core)
            self.send(
                PacketClass.COHERENCE, self.node, dst,
                self.config.addr_packet_flits, False, None, msg, now,
            )
        return owner_forward

    def _owner_for_forward(self, msg: CoherenceMsg) -> int:
        # The directory already rotated ownership; the owner to poke is
        # remembered in the message's sharer slot when provided.
        if msg.sharer is not None:
            return msg.sharer
        raise RuntimeError("FORWARD message without an owner target")

    def _emit_memory_read(self, block: int, now: int) -> None:
        dst = self._mc_node_for_block(block)
        msg = MemMsg(block=block, is_write=False, bank=self.bank)
        self.send(
            PacketClass.MEMORY, self.node, dst,
            self.config.addr_packet_flits, False, None, msg, now,
        )

    def _emit_memory_write(self, block: int, now: int) -> None:
        dst = self._mc_node_for_block(block)
        msg = MemMsg(block=block, is_write=True, bank=self.bank)
        self.send(
            PacketClass.MEMORY, self.node, dst,
            self.config.data_packet_flits, True, None, msg, now,
        )

    # ------------------------------------------------------------------

    def next_event_cycle(self, now: int) -> int:
        """Earliest future cycle ``step`` could do anything, barring new
        packet arrivals (which re-activate the bank via its sink).  Used
        by the event-driven scheduler's cycle-skip fast path."""
        if self.busy_until > now:
            return self.busy_until
        if now < self.port_failed_until:
            if self._current_op is not None:
                return now + 1  # completion still pending
            heal = self.port_failed_until
            if self.queue:
                timeout = self.queue[0][2] + self.port_redirect_after
                return min(max(timeout, now + 1), heal)
            if (
                self.write_buffer is not None
                and self.write_buffer.pending_drains() > 0
            ):
                return heal
            return NEVER
        if self._current_op is not None or self.queue:
            return now + 1
        if (
            self.write_buffer is not None
            and self.write_buffer.pending_drains() > 0
        ):
            return now + 1
        return NEVER

    def idle(self, now: int) -> bool:
        busy = self.busy_until > now or self._current_op is not None
        drains = (
            self.write_buffer is not None
            and self.write_buffer.pending_drains() > 0
        )
        return not busy and not self.queue and not drains
