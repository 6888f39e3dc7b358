"""Tests for packets, traces and the flit combiner."""

import pytest

from repro.core.combining import FlitCombiner
from repro.noc.packet import Packet, PacketClass, reset_packet_ids
from repro.cpu.trace import (
    IDLE_GAP, IdleStream, ScriptedStream, StridedStream, bank_block,
)


class TestPacket:
    def test_ids_are_unique(self):
        a = Packet(PacketClass.REQUEST, 0, 1, 1, inject_cycle=0)
        b = Packet(PacketClass.REQUEST, 0, 1, 1, inject_cycle=0)
        assert a.pid != b.pid

    def test_reset_ids(self):
        reset_packet_ids()
        p = Packet(PacketClass.REQUEST, 0, 1, 1, inject_cycle=0)
        assert p.pid == 0

    def test_latency(self):
        p = Packet(PacketClass.RESPONSE, 0, 1, 8, inject_cycle=10)
        assert p.latency(50) == 40

    def test_defaults(self):
        p = Packet(PacketClass.MEMORY, 2, 3, 8, inject_cycle=5)
        assert p.hops == 0
        assert p.delayed_cycles == 0
        assert p.wb_timestamp is None
        assert p.ready_at == 5

    def test_repr_mentions_endpoints(self):
        p = Packet(PacketClass.REQUEST, 2, 3, 1, inject_cycle=0,
                   is_write=True)
        assert "2->3" in repr(p)


class TestScriptedStream:
    def test_replays_then_idles(self):
        s = ScriptedStream([(1, 10, False), (2, 20, True)])
        assert s.next_access() == (1, 10, False)
        assert s.next_access() == (2, 20, True)
        gap, _b, _w = s.next_access()
        assert gap == IDLE_GAP

    def test_loop_mode(self):
        s = ScriptedStream([(1, 10, False)], loop=True)
        for _ in range(5):
            assert s.next_access() == (1, 10, False)

    def test_empty_loop_idles(self):
        s = ScriptedStream([], loop=True)
        assert s.next_access()[0] == IDLE_GAP


class TestStridedStream:
    def test_wraps_over_range(self):
        s = StridedStream(gap=2, start_block=100, stride=3, n_blocks=9)
        blocks = [s.next_access()[1] for _ in range(6)]
        assert blocks == [100, 103, 106, 100, 103, 106]

    def test_store_every(self):
        s = StridedStream(gap=0, start_block=0, stride=1, n_blocks=100,
                          store_every=3)
        stores = [s.next_access()[2] for _ in range(6)]
        assert stores == [True, False, False, True, False, False]

    def test_no_stores_by_default(self):
        s = StridedStream(gap=0, start_block=0, stride=1, n_blocks=10)
        assert not any(s.next_access()[2] for _ in range(10))


class TestHelpers:
    def test_idle_stream(self):
        assert IdleStream().next_access()[0] == IDLE_GAP

    def test_bank_block_maps_to_bank(self):
        for bank in range(16):
            for i in range(5):
                assert bank_block(bank, i, 16) % 16 == bank


class TestFlitCombiner:
    def test_halves_data_packet_serialisation(self):
        c = FlitCombiner(width_factor=2)
        pkt = Packet(PacketClass.REQUEST, 0, 1, 8, inject_cycle=0)
        assert c.serialization_cycles(pkt) == 4

    def test_single_flit_unchanged(self):
        c = FlitCombiner(width_factor=2)
        pkt = Packet(PacketClass.REQUEST, 0, 1, 1, inject_cycle=0)
        assert c.serialization_cycles(pkt) == 1

    def test_odd_flit_count_rounds_up(self):
        c = FlitCombiner(width_factor=2)
        pkt = Packet(PacketClass.REQUEST, 0, 1, 9, inject_cycle=0)
        assert c.serialization_cycles(pkt) == 5

    def test_unit_width_is_identity(self):
        c = FlitCombiner(width_factor=1)
        pkt = Packet(PacketClass.REQUEST, 0, 1, 8, inject_cycle=0)
        assert c.serialization_cycles(pkt) == 8

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            FlitCombiner(width_factor=0)
