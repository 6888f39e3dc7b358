"""Tests for the memory-controller model."""

import pytest

from repro.cache.memory import (
    ISSUE_INTERVAL, MemoryController, mc_for_block,
    place_memory_controllers,
)
from repro.cache.messages import MemMsg
from repro.noc.packet import Packet, PacketClass
from repro.noc.topology import Mesh3D
from repro.sim.config import Scheme, make_config


def mem_packet(block, is_write=False):
    msg = MemMsg(block=block, is_write=is_write, bank=0)
    return Packet(PacketClass.MEMORY, 64, 64, 1 if not is_write else 8,
                  inject_cycle=0, payload=msg)


@pytest.fixture
def mc():
    cfg = make_config(Scheme.STTRAM_64TSB, mesh_width=4)
    controller = MemoryController(0, node=16, config=cfg)
    responses = []
    controller.send_response = lambda msg, now: responses.append(
        (msg, now))
    controller.responses = responses
    return controller


class TestLatency:
    def test_read_returns_after_memory_latency(self, mc):
        mc.on_packet(mem_packet(5), now=0)
        for now in range(340):
            mc.step(now)
        assert len(mc.responses) == 1
        msg, when = mc.responses[0]
        assert msg.block == 5
        assert when >= 320

    def test_write_completes_silently(self, mc):
        mc.on_packet(mem_packet(5, is_write=True), now=0)
        for now in range(340):
            mc.step(now)
        assert mc.responses == []
        assert mc.writes == 1

    def test_issue_interval_spaces_requests(self, mc):
        for i in range(3):
            mc.on_packet(mem_packet(i), now=0)
        for now in range(340):
            mc.step(now)
        times = sorted(when for _m, when in mc.responses)
        assert len(times) == 3
        assert times[1] - times[0] >= ISSUE_INTERVAL
        assert times[2] - times[1] >= ISSUE_INTERVAL

    def test_idle_tracking(self, mc):
        assert mc.idle()
        mc.on_packet(mem_packet(1), now=0)
        assert not mc.idle()
        for now in range(340):
            mc.step(now)
        assert mc.idle()
        assert mc.outstanding() == 0


class TestPlacement:
    def test_four_corner_controllers(self):
        cfg = make_config(Scheme.STTRAM_64TSB)
        topo = Mesh3D(8)
        nodes = place_memory_controllers(cfg, topo)
        assert nodes == [64, 71, 120, 127]
        assert all(topo.layer_of(n) == 1 for n in nodes)

    def test_fewer_controllers(self):
        cfg = make_config(Scheme.STTRAM_64TSB, n_memory_controllers=2)
        nodes = place_memory_controllers(cfg, Mesh3D(8))
        assert len(nodes) == 2

    def test_block_interleaving_balanced(self):
        counts = [0] * 4
        for block in range(4000):
            counts[mc_for_block(block, 4)] += 1
        assert all(c == 1000 for c in counts)

    def test_zero_controllers_degenerate(self):
        assert mc_for_block(123, 0) == 0
