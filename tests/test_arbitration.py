"""Tests for the round-robin and bank-aware arbiters (Section 3)."""

from types import SimpleNamespace

import pytest

from repro.core.arbitration import BankAwareArbiter, RoundRobinArbiter
from repro.core.busy import BankBusyTracker
from repro.core.estimators import SimplisticEstimator
from repro.core.regions import RegionMap
from repro.noc.packet import Packet, PacketClass
from repro.noc.topology import Mesh3D
from repro.sim.config import Scheme, make_config


def entry(pkt, in_port=0, vc=0, arrival=0):
    return [in_port, vc, pkt, arrival]


def request(bank_node, is_write=True, bank=None, inject=0):
    pkt = Packet(PacketClass.REQUEST, 0, bank_node, 8 if is_write else 1,
                 inject_cycle=inject, is_write=is_write, bank=bank)
    return pkt


@pytest.fixture
def setup():
    cfg = make_config(Scheme.STTRAM_4TSB_SS, mesh_width=8)
    topo = Mesh3D(8)
    rm = RegionMap(topo, 4, cfg.tsb_placement, cfg.parent_hop_distance)
    tracker = BankBusyTracker(cfg)
    est = SimplisticEstimator()
    arbiter = BankAwareArbiter(cfg, rm, tracker, est)
    return cfg, topo, rm, tracker, arbiter


class TestRoundRobin:
    def test_single_candidate_wins(self):
        rr = RoundRobinArbiter()
        pkt = request(64, bank=0)
        assert rr.choose(0, 0, [entry(pkt)], now=0) == 0

    def test_empty_returns_none(self):
        assert RoundRobinArbiter().choose(0, 0, [], now=0) is None

    def test_rotation_visits_all_vcs(self):
        rr = RoundRobinArbiter()
        entries = [entry(request(64, bank=0), in_port=0, vc=v)
                   for v in range(3)]
        winners = set()
        for now in range(3):
            w = rr.choose(0, 0, entries, now)
            winners.add(entries[w][1])
        assert winners == {0, 1, 2}


class TestBankAware:
    def test_non_parent_falls_back_to_rr(self, setup):
        _cfg, topo, rm, tracker, arbiter = setup
        node = 0  # an ordinary core node, not a parent
        assert node not in rm.children_of
        pkt = request(topo.bank_node(5), bank=5)
        assert arbiter.choose(node, 0, [entry(pkt)], now=0) == 0

    def test_write_charges_busy_tracker(self, setup):
        _cfg, topo, rm, tracker, arbiter = setup
        parent = 91
        child = rm.children_of[parent][0]
        pkt = request(topo.bank_node(child), is_write=True, bank=child)
        arbiter.on_forward(parent, pkt, now=0, out_port=0)
        # 2-hop travel (4 cycles) + 33-cycle write.
        assert tracker.predicted_free_at(child) == 4 + 33

    def test_unmanaged_bank_not_charged(self, setup):
        _cfg, topo, rm, tracker, arbiter = setup
        parent = 91
        other_bank = next(
            b for b in range(64) if b not in rm.children_of[parent])
        pkt = request(topo.bank_node(other_bank), bank=other_bank)
        arbiter.on_forward(parent, pkt, now=0, out_port=0)
        assert tracker.predicted_free_at(other_bank) == 0

    def test_request_to_busy_child_is_delayed(self, setup):
        _cfg, topo, rm, tracker, arbiter = setup
        parent = 91
        child = rm.children_of[parent][0]
        w1 = request(topo.bank_node(child), is_write=True, bank=child)
        arbiter.on_forward(parent, w1, now=0, out_port=0)
        w2 = request(topo.bank_node(child), is_write=True, bank=child)
        # Only candidate and bank predicted busy: idle the output.
        assert arbiter.choose(parent, 0, [entry(w2)], now=1) is None
        assert w2.delayed_cycles == 1
        assert arbiter.delay_cycles >= 1

    def test_request_to_idle_child_prioritised_over_busy(self, setup):
        _cfg, topo, rm, tracker, arbiter = setup
        parent = 91
        busy_child, idle_child = rm.children_of[parent][:2]
        w1 = request(topo.bank_node(busy_child), True, busy_child)
        arbiter.on_forward(parent, w1, now=0, out_port=0)
        to_busy = entry(request(topo.bank_node(busy_child), True,
                                busy_child, inject=0))
        to_idle = entry(request(topo.bank_node(idle_child), True,
                                idle_child, inject=5))
        # Despite being younger, the idle-bank request wins.
        winner = arbiter.choose(parent, 0, [to_busy, to_idle], now=1)
        assert winner == 1
        assert arbiter.reorders >= 1

    def test_delay_expires_when_bank_frees(self, setup):
        _cfg, topo, rm, tracker, arbiter = setup
        parent = 91
        child = rm.children_of[parent][0]
        w1 = request(topo.bank_node(child), True, child)
        arbiter.on_forward(parent, w1, now=0, out_port=0)
        w2 = entry(request(topo.bank_node(child), True, child))
        free_at = tracker.predicted_free_at(child)
        assert arbiter.choose(parent, 0, [w2], now=free_at + 1) == 0

    def test_starvation_valve(self, setup):
        cfg, topo, rm, tracker, arbiter = setup
        parent = 91
        child = rm.children_of[parent][0]
        w1 = request(topo.bank_node(child), True, child)
        arbiter.on_forward(parent, w1, now=0, out_port=0)
        # Keep the bank predicted-busy but let the candidate age out.
        arbiter.on_forward(parent, request(topo.bank_node(child), True,
                                           child), now=30, out_port=0)
        stale = entry(request(topo.bank_node(child), True, child),
                      arrival=0)
        winner = arbiter.choose(
            parent, 0, [stale], now=cfg.max_delay_cycles)
        assert winner == 0

    def test_reads_rank_ahead_of_writes(self, setup):
        _cfg, topo, rm, tracker, arbiter = setup
        parent = 91
        c1, c2 = rm.children_of[parent][:2]
        write = entry(request(topo.bank_node(c1), True, c1, inject=0))
        read = entry(request(topo.bank_node(c2), False, c2, inject=5))
        winner = arbiter.choose(parent, 0, [write, read], now=0)
        assert winner == 1

    def test_coherence_boosted_over_requests(self, setup):
        _cfg, topo, rm, tracker, arbiter = setup
        parent = 91
        child = rm.children_of[parent][0]
        req = entry(request(topo.bank_node(child), False, child,
                            inject=0))
        coh = Packet(PacketClass.COHERENCE, 64, 0, 1, inject_cycle=9)
        winner = arbiter.choose(parent, 0, [req, entry(coh)], now=0)
        assert winner == 1


class TestVCPressure:
    def test_delay_released_under_vc_pressure(self, setup):
        cfg, topo, rm, tracker, arbiter = setup

        class FakeRouter:
            def free_vc_count(self, port, now):
                return 0  # port starved

        arbiter.bind(SimpleNamespace(topo=topo, routers={91: FakeRouter()}))
        parent = 91
        child = rm.children_of[parent][0]
        arbiter.on_forward(parent, request(topo.bank_node(child), True,
                                           child), now=0, out_port=0)
        w2 = entry(request(topo.bank_node(child), True, child))
        # Would normally be delayed; VC pressure forces release.
        assert arbiter.choose(parent, 0, [w2], now=1) == 0
        assert arbiter.vc_pressure_releases >= 1
