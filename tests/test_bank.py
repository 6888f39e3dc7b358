"""Tests for the L2 bank controller timing and protocol behaviour."""

import pytest

from repro.cache.bank import BankController
from repro.cache.messages import MemMsg, Transaction
from repro.noc.packet import Packet, PacketClass
from repro.sim.config import (
    Scheme, SystemConfig, WriteBufferConfig, make_config,
)


class Harness:
    """Drives one BankController with a recording send function."""

    def __init__(self, config, bank=0):
        self.sent = []
        self.config = config
        self.bank = BankController(
            bank, node=config.nodes_per_layer + bank, config=config,
            send=self._send,
            mc_node_for_block=lambda b: config.nodes_per_layer,
            core_node_for=lambda c: c,
        )
        self.now = 0

    def _send(self, klass, src, dst, flits, is_write, bank, payload, now):
        self.sent.append((klass, dst, flits, is_write, payload, now))

    def deliver(self, kind, payload):
        if kind == "request":
            pkt = Packet(PacketClass.REQUEST, 0, self.bank.node, 1,
                         inject_cycle=self.now, payload=payload)
        else:
            pkt = Packet(PacketClass.MEMORY, 0, self.bank.node, 8,
                         inject_cycle=self.now, payload=payload)
        self.bank.on_packet(pkt, self.now)

    def tick(self, cycles=1):
        for _ in range(cycles):
            self.bank.step(self.now)
            self.now += 1

    def sent_of(self, klass):
        return [s for s in self.sent if s[0] is klass]


def read_txn(core=0, block=0, store=False):
    return Transaction(core=core, block=block, is_store=store,
                       kind="read", issue_cycle=0)


def write_txn(core=0, block=0, kind="store"):
    return Transaction(core=core, block=block, is_store=True,
                       kind=kind, issue_cycle=0)


@pytest.fixture
def stt():
    return Harness(make_config(Scheme.STTRAM_64TSB, mesh_width=4,
                               capacity_scale=1 / 256))


@pytest.fixture
def sram():
    return Harness(make_config(Scheme.SRAM_64TSB, mesh_width=4,
                               capacity_scale=1 / 256))


class TestReadTiming:
    def test_l2_hit_read_responds_after_read_latency(self, stt):
        stt.bank.array.fill(0)
        stt.deliver("request", read_txn(block=0))
        stt.tick(10)
        responses = stt.sent_of(PacketClass.RESPONSE)
        assert len(responses) == 1
        # Service starts at cycle 0, takes 3 cycles, response at >= 3.
        assert responses[0][5] >= stt.config.l2_read_cycles
        assert stt.bank.stats.l2_hits == 1

    def test_l2_miss_fetches_from_memory(self, stt):
        stt.deliver("request", read_txn(block=0))
        stt.tick(10)
        mems = stt.sent_of(PacketClass.MEMORY)
        assert len(mems) == 1
        assert not mems[0][3]  # read, not write
        assert stt.bank.stats.l2_misses == 1
        assert not stt.sent_of(PacketClass.RESPONSE)

    def test_fill_completes_waiting_reads(self, stt):
        txn = read_txn(block=0)
        stt.deliver("request", txn)
        stt.tick(10)
        msg = MemMsg(block=0, is_write=False, bank=0, response=True)
        stt.deliver("fill", msg)
        stt.tick(40)
        responses = stt.sent_of(PacketClass.RESPONSE)
        assert len(responses) == 1
        assert responses[0][4] is txn
        assert stt.bank.array.contains(0)

    def test_cross_core_miss_coalescing(self, stt):
        stt.deliver("request", read_txn(core=1, block=0))
        stt.deliver("request", read_txn(core=2, block=0))
        stt.tick(15)
        assert len(stt.sent_of(PacketClass.MEMORY)) == 1
        stt.deliver("fill", MemMsg(block=0, is_write=False, bank=0,
                                   response=True))
        stt.tick(40)
        assert len(stt.sent_of(PacketClass.RESPONSE)) == 2


class TestWriteTiming:
    def test_sttram_write_occupies_33_cycles(self, stt):
        stt.bank.array.fill(0)
        stt.deliver("request", write_txn(block=0))
        stt.tick(1)
        assert stt.bank.busy_until == stt.config.l2_write_cycles
        assert stt.config.l2_write_cycles == 33

    def test_sram_write_occupies_3_cycles(self, sram):
        sram.bank.array.fill(0)
        sram.deliver("request", write_txn(block=0))
        sram.tick(1)
        assert sram.bank.busy_until == 3

    def test_write_marks_block_dirty(self, stt):
        stt.bank.array.fill(0)
        stt.deliver("request", write_txn(block=0))
        stt.tick(40)
        assert stt.bank.array.is_dirty(0)

    def test_write_allocates_on_miss_without_memory_fetch(self, stt):
        stt.deliver("request", write_txn(block=0))
        stt.tick(40)
        assert stt.bank.array.contains(0)
        assert stt.bank.array.is_dirty(0)
        assert not stt.sent_of(PacketClass.MEMORY)

    def test_dirty_victim_written_back_to_memory(self, stt):
        # Fill one set completely with dirty blocks, then overflow it.
        ways = stt.config.l2_associativity
        n_banks = stt.config.n_banks
        stride = stt.bank.array.n_sets * n_banks
        blocks = [i * stride for i in range(ways + 1)]
        for b in blocks[:-1]:
            stt.deliver("request", write_txn(block=b))
            stt.tick(40)
        stt.deliver("request", write_txn(block=blocks[-1]))
        stt.tick(40)
        mem_writes = [m for m in stt.sent_of(PacketClass.MEMORY) if m[3]]
        assert len(mem_writes) == 1

    def test_queued_requests_wait_for_write(self, stt):
        stt.bank.array.fill(0)
        stt.bank.array.fill(stt.config.n_banks)
        stt.deliver("request", write_txn(block=0))
        stt.deliver("request", read_txn(block=stt.config.n_banks))
        stt.tick(50)
        responses = stt.sent_of(PacketClass.RESPONSE)
        assert len(responses) == 1
        # The read had to wait behind the 33-cycle write.
        assert responses[0][5] >= 33 + stt.config.l2_read_cycles
        assert stt.bank.stats.queue_wait_sum >= 32


class TestFlowControl:
    def test_can_accept_respects_queue_limit(self, stt):
        limit = stt.config.bank_queue_entries
        pkt = Packet(PacketClass.REQUEST, 0, stt.bank.node, 1,
                     inject_cycle=0, payload=read_txn())
        for _ in range(limit):
            assert stt.bank.can_accept(pkt)
            stt.bank.on_packet(pkt, 0)
        assert not stt.bank.can_accept(pkt)

    def test_coherence_always_accepted(self, stt):
        coh = Packet(PacketClass.COHERENCE, 0, stt.bank.node, 1,
                     inject_cycle=0)
        for _ in range(stt.config.bank_queue_entries + 2):
            assert stt.bank.can_accept(coh)


class TestWriteBufferIntegration:
    @pytest.fixture
    def buffered(self):
        cfg = make_config(
            Scheme.STTRAM_64TSB, mesh_width=4, capacity_scale=1 / 256,
            write_buffer=WriteBufferConfig())
        return Harness(cfg)

    def test_write_absorbed_at_sram_speed(self, buffered):
        buffered.bank.array.fill(0)
        buffered.deliver("request", write_txn(block=0))
        buffered.tick(1)
        # 1-cycle detect + 3-cycle SRAM write, not 33.
        assert buffered.bank.busy_until == 4

    def test_detect_cycle_on_read_critical_path(self, buffered):
        buffered.bank.array.fill(0)
        buffered.deliver("request", read_txn(block=0))
        buffered.tick(1)
        assert buffered.bank.busy_until == 1 + 3

    def test_drain_when_idle(self, buffered):
        buffered.bank.array.fill(0)
        buffered.deliver("request", write_txn(block=0))
        buffered.tick(80)
        assert buffered.bank.write_buffer.drains_completed == 1
        assert buffered.bank.stats.drains == 1

    def test_read_preempts_drain(self, buffered):
        buffered.bank.array.fill(0)
        buffered.bank.array.fill(buffered.config.n_banks)
        buffered.deliver("request", write_txn(block=0))
        buffered.tick(6)  # write absorbed; drain starts
        assert buffered.bank.write_buffer.draining is not None
        buffered.deliver(
            "request", read_txn(block=buffered.config.n_banks))
        buffered.tick(10)
        assert buffered.bank.write_buffer.preemptions == 1
        assert len(buffered.sent_of(PacketClass.RESPONSE)) == 1
