"""Tests for busy-duration tracking and the SS/RCA/WB estimators."""

import pytest

from repro.core.arbitration import BankAwareArbiter
from repro.core.busy import BankBusyTracker
from repro.core.estimators import (
    RegionalCongestionEstimator, SimplisticEstimator, WindowEstimator,
    make_estimator,
)
from repro.core.regions import RegionMap
from repro.noc.packet import Packet, PacketClass
from repro.noc.topology import Mesh3D
from repro.sim.config import Estimator, Scheme, make_config
from tests.conftest import queued


def write_pkt(bank, flits=8):
    return Packet(PacketClass.REQUEST, 0, 64 + bank, flits,
                  inject_cycle=0, is_write=True, bank=bank)


def read_pkt(bank):
    return Packet(PacketClass.REQUEST, 0, 64 + bank, 1,
                  inject_cycle=0, is_write=False, bank=bank)


class FixedEstimate(SimplisticEstimator):
    """Stub estimator: a congestion estimate the test sets."""

    def __init__(self):
        self.cycles = 0

    def congestion_estimate(self, parent_node, bank, now):
        return self.cycles


class TestBusyTracker:
    """The busy table as the bank-aware arbiter keeps it: charged by
    ``on_forward`` at the parent, read by ``choose``."""

    PARENT = 91

    @pytest.fixture
    def arbiter(self):
        cfg = make_config(Scheme.STTRAM_4TSB_SS)
        topo = Mesh3D(cfg.mesh_width)
        rm = RegionMap(topo, cfg.n_region_tsbs, cfg.tsb_placement,
                       cfg.parent_hop_distance)
        # Every child of this parent sits two hops below it.
        assert all(rm.expected_child_distance(b) == 2
                   for b in rm.children_of[self.PARENT])
        return BankAwareArbiter(cfg, rm, BankBusyTracker(cfg),
                                FixedEstimate())

    def child(self, arbiter):
        return arbiter.region_map.children_of[self.PARENT][0]

    def forward(self, arbiter, pkt, now):
        arbiter.on_forward(self.PARENT, pkt, now, out_port=0)

    def test_two_hop_travel_is_four_cycles(self, arbiter):
        # One intermediate 2-stage router plus two links (Section 3.5).
        assert arbiter.tracker.travel_cycles(2) == 4

    def test_one_hop_travel(self, arbiter):
        assert arbiter.tracker.travel_cycles(1) == 1

    def test_write_charge(self, arbiter):
        bank = self.child(arbiter)
        self.forward(arbiter, write_pkt(bank), now=10)
        assert arbiter.tracker.predicted_free_at(bank) == 10 + 4 + 33
        assert arbiter.tracker.predictions == [(bank, 10 + 4, False)]

    def test_read_charge_is_short(self, arbiter):
        bank = self.child(arbiter)
        self.forward(arbiter, read_pkt(bank), now=0)
        assert arbiter.tracker.predicted_free_at(bank) == 4 + 3

    def test_congestion_extends_busy_window(self, arbiter):
        bank = self.child(arbiter)
        arbiter.estimator.cycles = 10
        self.forward(arbiter, write_pkt(bank), now=0)
        assert arbiter.tracker.predicted_free_at(bank) == 4 + 10 + 33

    def test_counter_rearms_rather_than_accumulates(self, arbiter):
        bank = self.child(arbiter)
        self.forward(arbiter, write_pkt(bank), now=0)
        self.forward(arbiter, write_pkt(bank), now=1)
        # Re-armed for the latest write, not 2 x 33 queued.
        assert arbiter.tracker.predicted_free_at(bank) == 1 + 4 + 33
        # The second write was predicted to arrive while the bank is busy.
        assert arbiter.tracker.predictions[1] == (bank, 1 + 4, True)

    def test_predicted_busy_window(self, arbiter):
        bank = self.child(arbiter)
        self.forward(arbiter, write_pkt(bank), now=0)
        # A request sent at t arrives at t + 4: busy until 37, so the
        # parent holds it through cycle 32 and releases it at 33.
        for now, winner in ((0, None), (32, None), (33, 0), (40, 0)):
            pkt = queued(write_pkt(bank), arrival=now)
            assert arbiter.choose(self.PARENT, 0, [pkt], now) == winner
        assert arbiter.delay_cycles == 2
        assert arbiter.vc_pressure_releases == 0
        held = queued(write_pkt(bank))
        assert arbiter.release_hint(self.PARENT, 0, [held], 0) == 33

    def test_unknown_bank_is_idle(self, arbiter):
        pkt = queued(write_pkt(self.child(arbiter)))
        assert arbiter.choose(self.PARENT, 0, [pkt], now=0) == 0
        assert arbiter.delay_cycles == 0
        assert arbiter.vc_pressure_releases == 0


class TestSimplistic:
    def test_always_zero(self):
        ss = SimplisticEstimator()
        assert ss.congestion_estimate(91, 5, now=100) == 0


class TestWindow:
    @pytest.fixture
    def wb(self):
        cfg = make_config(Scheme.STTRAM_4TSB_WB, wb_sample_period=3)
        return WindowEstimator(cfg)

    def test_first_packet_tagged(self, wb):
        pkt = write_pkt(1)
        wb.on_forward(91, pkt, now=7)
        assert pkt.wb_timestamp == 7
        assert wb.tags_sent == 1

    def test_sampling_period(self, wb):
        tagged = 0
        for i in range(9):
            pkt = write_pkt(1)
            wb.on_forward(91, pkt, now=i)
            if pkt.wb_timestamp is not None:
                tagged += 1
        # First plus every third thereafter.
        assert tagged == 3

    def test_ack_updates_estimate(self, wb):
        pkt = write_pkt(1)
        wb.on_forward(91, pkt, now=0)
        wb.on_ack(91, 1, elapsed=40, now=40)
        # rtt/2 minus the known base one-way latency.
        assert wb.congestion_estimate(91, 1, now=41) > 0
        assert wb.acks_received == 1

    def test_uncongested_ack_estimates_zero(self, wb):
        wb.on_ack(91, 1, elapsed=8, now=8)
        assert wb.congestion_estimate(91, 1, now=9) == 0

    def test_elapsed_saturates_at_8_bits(self, wb):
        wb.on_ack(91, 1, elapsed=10_000, now=10_000)
        assert wb.congestion_estimate(91, 1, now=0) <= 255 // 2

    def test_non_request_packets_never_tagged(self, wb):
        pkt = Packet(PacketClass.COHERENCE, 0, 64, 1, inject_cycle=0)
        wb.on_forward(91, pkt, now=0)
        assert pkt.wb_timestamp is None

    def test_estimates_are_per_child(self, wb):
        wb.on_ack(91, 1, elapsed=100, now=100)
        assert wb.congestion_estimate(91, 2, now=101) == 0


class TestRCA:
    def test_congested_network_raises_estimate(self):
        from repro.sim.simulator import CMPSimulator
        from repro.workloads.mixes import homogeneous

        cfg = make_config(Scheme.STTRAM_4TSB_RCA, mesh_width=4,
                          capacity_scale=1 / 64)
        sim = CMPSimulator(cfg, homogeneous("tpcc", cfg))
        est = sim.estimator
        assert isinstance(est, RegionalCongestionEstimator)
        rm = sim.region_map
        parent = rm.parent_nodes()[0]
        child = rm.children_of[parent][0]
        idle_estimate = est.congestion_estimate(parent, child, now=0)
        sim.step(400)
        loaded = max(
            est.congestion_estimate(p, c, now=sim.cycle)
            for p in rm.parent_nodes() for c in rm.children_of[p]
        )
        assert loaded >= idle_estimate
        assert loaded > 0

    def test_estimates_clamped_to_8_bits(self):
        cfg = make_config(Scheme.STTRAM_4TSB_RCA)
        est = RegionalCongestionEstimator(cfg)
        assert est.max_value == 255


class TestFactory:
    def test_factory_dispatch(self):
        assert make_estimator(
            make_config(Scheme.STTRAM_64TSB)) is None
        assert isinstance(
            make_estimator(make_config(Scheme.STTRAM_4TSB_SS)),
            SimplisticEstimator)
        assert isinstance(
            make_estimator(make_config(Scheme.STTRAM_4TSB_RCA)),
            RegionalCongestionEstimator)
        assert isinstance(
            make_estimator(make_config(Scheme.STTRAM_4TSB_WB)),
            WindowEstimator)
