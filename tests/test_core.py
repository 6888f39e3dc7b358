"""Tests for the trace-driven core model."""

from collections import deque

import pytest

from repro.cache.messages import CoherenceMsg, CoherenceOp, Transaction
from repro.cpu.core import Core
from repro.cpu.trace import IdleStream, ScriptedStream
from repro.noc.packet import Packet, PacketClass
from repro.sim.config import Scheme, make_config


class Harness:
    def __init__(self, stream, ni_full=False, **overrides):
        self.config = make_config(Scheme.STTRAM_64TSB, mesh_width=4,
                                  capacity_scale=1 / 256, **overrides)
        self.sent = []
        # The NI source queue the core checks before each miss; ``_send``
        # never fills it, so only ``ni_full`` makes the core stall on it.
        limit = self.config.ni_queue_entries
        self.ni_queue = deque([None] * limit if ni_full else ())
        self.core = Core(
            0, 0, self.config, stream, self._send,
            bank_node_for_block=lambda b: 16 + b % 16,
            ni_queue=self.ni_queue, ni_limit=limit,
        )
        self.now = 0

    def _send(self, klass, src, dst, flits, is_write, bank, payload, now):
        self.sent.append((klass, dst, flits, is_write, payload))

    def tick(self, cycles=1):
        for _ in range(cycles):
            self.core.step(self.now)
            self.now += 1

    def respond(self, txn):
        pkt = Packet(PacketClass.RESPONSE, 16, 0, 8, inject_cycle=self.now,
                     payload=txn)
        self.core.on_packet(pkt, self.now)

    def requests(self):
        return [s for s in self.sent if s[0] is PacketClass.REQUEST]


class TestCommit:
    def test_commit_width_two(self):
        h = Harness(IdleStream())
        h.tick(10)
        assert h.core.stats.committed == 20

    def test_l1_hit_no_traffic(self):
        h = Harness(ScriptedStream([(0, 5, False)] * 10, loop=True))
        h.core.l1.fill(5)
        h.tick(5)
        assert h.core.stats.l1_hits > 0
        assert not h.sent

    def test_store_hit_marks_dirty(self):
        h = Harness(ScriptedStream([(0, 5, True)]))
        h.core.l1.fill(5)
        h.tick(2)
        assert h.core.l1.is_dirty(5)


class TestLoadMiss:
    def test_load_miss_sends_read_request(self):
        h = Harness(ScriptedStream([(0, 7, False)]))
        h.tick(2)
        reqs = h.requests()
        assert len(reqs) == 1
        klass, dst, flits, is_write, txn = reqs[0]
        assert flits == 1 and not is_write
        assert txn.kind == "read" and txn.block == 7
        assert dst == 16 + 7

    def test_fill_unblocks_and_installs(self):
        h = Harness(ScriptedStream([(0, 7, False)]))
        h.tick(2)
        txn = h.requests()[0][4]
        h.respond(txn)
        assert h.core.l1.contains(7)
        assert h.core.quiesced()

    def test_miss_latency_recorded(self):
        h = Harness(ScriptedStream([(0, 7, False)]))
        h.tick(2)
        txn = h.requests()[0][4]
        h.now = 50
        h.respond(txn)
        assert h.core.stats.miss_latency_samples == 1
        assert h.core.stats.average_miss_latency() >= 48

    def test_dependent_load_blocks_window(self):
        h = Harness(ScriptedStream([(0, 7, False)]),
                    load_dep_prob=1.0, load_dep_window=4)
        h.tick(1)  # issues the load
        committed = h.core.stats.committed
        h.tick(20)  # idle stream afterwards, but window blocks
        assert h.core.stats.committed <= committed + 4
        assert h.core.stats.stall_cycles > 0

    def test_independent_load_does_not_block_soon(self):
        h = Harness(ScriptedStream([(0, 7, False)]),
                    load_dep_prob=0.0)
        h.tick(1)
        before = h.core.stats.committed
        h.tick(20)
        assert h.core.stats.committed > before + 30


class TestStoreMiss:
    def test_store_miss_writes_through(self):
        h = Harness(ScriptedStream([(0, 9, True)]))
        h.tick(2)
        reqs = h.requests()
        assert len(reqs) == 1
        klass, dst, flits, is_write, txn = reqs[0]
        assert is_write and flits == 8
        assert txn.kind == "store"
        # Write-no-allocate: the L1 does not install the block.
        assert not h.core.l1.contains(9)

    def test_store_miss_does_not_block(self):
        h = Harness(ScriptedStream([(0, 9, True)]))
        h.tick(10)
        assert h.core.stats.committed >= 18

    def test_ni_backpressure_stalls_stream(self):
        h = Harness(ScriptedStream([(0, i, True) for i in range(50)]),
                    ni_full=True)
        h.tick(10)
        assert not h.sent
        assert h.core.stats.ni_stall_cycles > 0


class TestMSHRLimit:
    def test_mshr_full_stalls_loads(self):
        accesses = [(0, i, False) for i in range(40)]
        h = Harness(ScriptedStream(accesses), l1_mshrs=4,
                    load_dep_prob=0.0)
        h.tick(40)
        assert len(h.requests()) == 4
        assert h.core.stats.mshr_stall_cycles > 0


class TestCoherenceHandling:
    def test_invalidate_acks_home(self):
        h = Harness(IdleStream())
        h.core.l1.fill(3)
        msg = CoherenceMsg(op=CoherenceOp.INVALIDATE, block=3,
                           requester_core=5, home_bank=3)
        pkt = Packet(PacketClass.COHERENCE, 16, 0, 1, inject_cycle=0,
                     payload=msg)
        h.core.on_packet(pkt, 0)
        assert not h.core.l1.contains(3)
        acks = [s for s in h.sent if s[0] is PacketClass.COHERENCE]
        assert len(acks) == 1
        assert acks[0][4].op is CoherenceOp.INV_ACK

    def test_invalidate_of_dirty_block_writes_back(self):
        h = Harness(IdleStream())
        h.core.l1.fill(3, dirty=True)
        msg = CoherenceMsg(op=CoherenceOp.RECALL, block=3,
                           requester_core=None, home_bank=3)
        pkt = Packet(PacketClass.COHERENCE, 16, 0, 1, inject_cycle=0,
                     payload=msg)
        h.core.on_packet(pkt, 0)
        wbs = [s for s in h.sent if s[0] is PacketClass.REQUEST]
        assert len(wbs) == 1
        assert wbs[0][4].kind == "writeback"

    def test_forward_supplies_data_to_requester(self):
        h = Harness(IdleStream())
        h.core.l1.fill(3, dirty=True)
        txn = Transaction(core=5, block=3, is_store=False, kind="read",
                          issue_cycle=0)
        msg = CoherenceMsg(op=CoherenceOp.FORWARD, block=3,
                           requester_core=5, home_bank=3, txn=txn)
        pkt = Packet(PacketClass.COHERENCE, 16, 0, 1, inject_cycle=0,
                     payload=msg)
        h.core.on_packet(pkt, 0)
        data = [s for s in h.sent if s[0] is PacketClass.RESPONSE]
        assert len(data) == 1
        assert data[0][1] == 5  # requester core node
        assert txn.forwarded_from_owner

    def test_exclusive_forward_invalidates_owner_copy(self):
        h = Harness(IdleStream())
        h.core.l1.fill(3, dirty=True)
        txn = Transaction(core=5, block=3, is_store=True, kind="read",
                          issue_cycle=0)
        msg = CoherenceMsg(op=CoherenceOp.FORWARD, block=3,
                           requester_core=5, home_bank=3,
                           exclusive=True, txn=txn)
        pkt = Packet(PacketClass.COHERENCE, 16, 0, 1, inject_cycle=0,
                     payload=msg)
        h.core.on_packet(pkt, 0)
        assert not h.core.l1.contains(3)


class TestWritebacks:
    def test_dirty_l1_eviction_emits_writeback(self):
        h = Harness(IdleStream(), load_dep_prob=0.0)
        ways = h.config.l1_associativity
        sets = h.core.l1.n_sets
        # Fill one set with dirty blocks, then overflow via a fill.
        for i in range(ways):
            h.core.l1.fill(i * sets, dirty=True)
        txn = Transaction(core=0, block=ways * sets, is_store=False,
                          kind="read", issue_cycle=0)
        h.core.mshrs.allocate(ways * sets, waiter=(0, False))
        h.respond(txn)
        wbs = [s for s in h.sent
               if s[0] is PacketClass.REQUEST and s[4].kind == "writeback"]
        assert len(wbs) == 1
        assert h.core.stats.writebacks == 1
