"""Tests for MSHRs and the Sun et al. read-preemptive write buffer."""

import pytest

from repro.cache.mshr import MSHRFile
from repro.cache.write_buffer import WriteBuffer
from repro.sim.config import WriteBufferConfig


class TestMSHR:
    def test_primary_and_coalesced(self):
        m = MSHRFile(4)
        assert m.allocate(10, "a") is True
        assert m.allocate(10, "b") is False
        assert m.coalesced == 1
        assert m.complete(10) == ["a", "b"]
        assert len(m) == 0

    def test_full_returns_none(self):
        m = MSHRFile(2)
        assert m.allocate(1) is True
        assert m.allocate(2) is True
        assert m.allocate(3) is None

    def test_coalescing_allowed_when_full(self):
        m = MSHRFile(1)
        m.allocate(1, "a")
        assert m.allocate(1, "b") is False

    def test_force_allocate_ignores_limit(self):
        m = MSHRFile(1)
        m.allocate(1)
        assert m.force_allocate(2, "x") is True
        assert len(m) == 2
        assert m.complete(2) == ["x"]

    def test_outstanding(self):
        m = MSHRFile(4)
        m.allocate(9)
        assert m.outstanding(9)
        assert not m.outstanding(8)
        assert list(m.blocks()) == [9]

    def test_complete_unknown_block_is_empty(self):
        assert MSHRFile(4).complete(99) == []


class TestWriteBuffer:
    @pytest.fixture
    def wb(self):
        return WriteBuffer(WriteBufferConfig(entries=3))

    def test_absorbs_until_full(self, wb):
        assert wb.absorb(1) and wb.absorb(2) and wb.absorb(3)
        assert wb.full
        assert not wb.absorb(4)
        assert wb.writes_stalled == 1

    def test_rewrite_of_buffered_block_merges(self, wb):
        wb.absorb(1)
        assert wb.absorb(1)
        assert len(wb) == 1

    def test_probe_hits_buffered_writes(self, wb):
        wb.absorb(5)
        assert wb.probe(5)
        assert not wb.probe(6)
        assert wb.read_hits == 1

    def test_drain_fifo_order(self, wb):
        wb.absorb(1)
        wb.absorb(2)
        assert wb.start_drain() == 1
        assert wb.start_drain() is None  # one drain at a time
        wb.finish_drain()
        assert wb.drains_completed == 1
        assert wb.start_drain() == 2

    def test_probe_sees_draining_block(self, wb):
        wb.absorb(1)
        wb.start_drain()
        assert wb.probe(1)

    def test_read_preemption_restores_write(self, wb):
        wb.absorb(1)
        wb.absorb(2)
        block = wb.start_drain()
        preempted = wb.preempt_drain()
        assert preempted == block == 1
        assert wb.preemptions == 1
        # The preempted write drains first next time.
        assert wb.start_drain() == 1

    def test_preemption_disabled(self):
        wb = WriteBuffer(WriteBufferConfig(entries=3,
                                           read_preemption=False))
        wb.absorb(1)
        wb.start_drain()
        assert wb.preempt_drain() is None

    def test_preempt_without_drain_is_none(self, wb):
        assert wb.preempt_drain() is None

    def test_draining_counts_toward_capacity(self, wb):
        wb.absorb(1)
        wb.absorb(2)
        wb.absorb(3)
        wb.start_drain()
        assert wb.full  # 2 buffered + 1 draining
        assert wb.pending_drains() == 2
