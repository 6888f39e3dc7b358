"""In-situ behaviour of the estimation feedback loops.

These run the full simulator and verify the dynamic properties the
schemes rely on: WB timestamps actually round-trip and produce non-zero
congestion estimates under load, the RCA side-band respects its update
period, and the busy tracker's predictions line up with real bank
occupancy.
"""

import pytest

from repro.core.estimators import (
    RegionalCongestionEstimator, WindowEstimator,
)
from repro.sim.config import Scheme, make_config
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous

FAST = dict(mesh_width=4, capacity_scale=1 / 64)


def run_sim(scheme, app="tpcc", cycles=900, **overrides):
    params = dict(FAST)
    params.update(overrides)
    cfg = make_config(scheme, **params)
    sim = CMPSimulator(cfg, homogeneous(app, cfg))
    sim.step(cycles)
    return sim


class TestWindowFeedback:
    def test_estimates_populate_under_load(self):
        sim = run_sim(Scheme.STTRAM_4TSB_WB, wb_sample_period=5)
        est: WindowEstimator = sim.estimator
        assert est.tags_sent > 0
        assert est.acks_received > 0
        # At least one parent/child pair carries a live estimate entry.
        assert est._estimates

    def test_ack_traffic_is_bounded_by_sample_period(self):
        frequent = run_sim(Scheme.STTRAM_4TSB_WB, wb_sample_period=2)
        sparse = run_sim(Scheme.STTRAM_4TSB_WB, wb_sample_period=100)
        assert frequent.estimator.tags_sent >= sparse.estimator.tags_sent

    def test_tracker_predictions_follow_real_busy_banks(self):
        sim = run_sim(Scheme.STTRAM_4TSB_WB)
        tracker = sim.tracker
        # Predictions exist for managed children that received writes.
        assert tracker.busy_until
        # And every predicted bank id is a real bank.
        assert all(0 <= b < sim.config.n_banks
                   for b in tracker.busy_until)

    def test_delays_happen_only_at_parents(self):
        sim = run_sim(Scheme.STTRAM_4TSB_WB)
        assert sim.arbiter.packets_delayed > 0
        # The RR fallback path is exercised too (non-parent routers).
        assert sim.arbiter._pointers


class TestRCAFeedback:
    def test_aggregates_cover_the_mesh(self):
        sim = run_sim(Scheme.STTRAM_4TSB_RCA)
        est: RegionalCongestionEstimator = sim.estimator
        assert len(est.agg) == sim.topo.n_nodes

    def test_update_period_throttles_work(self):
        fast = run_sim(Scheme.STTRAM_4TSB_RCA, rca_update_period=1,
                       cycles=300)
        slow = run_sim(Scheme.STTRAM_4TSB_RCA, rca_update_period=64,
                       cycles=300)
        # Both still produce estimates.
        assert fast.estimator.agg and slow.estimator.agg

    def test_estimates_stay_in_8_bits(self):
        sim = run_sim(Scheme.STTRAM_4TSB_RCA)
        est = sim.estimator
        assert all(0 <= v <= 255 for v in est.agg.values())
        rm = sim.region_map
        for parent in rm.parent_nodes():
            for child in rm.children_of[parent]:
                value = est.congestion_estimate(parent, child, sim.cycle)
                assert 0 <= value <= 255


class TestSchemeSeparation:
    def test_ss_never_estimates_congestion(self):
        sim = run_sim(Scheme.STTRAM_4TSB_SS)
        rm = sim.region_map
        for parent in rm.parent_nodes():
            for child in rm.children_of[parent]:
                assert sim.estimator.congestion_estimate(
                    parent, child, sim.cycle) == 0

    def test_wb_and_ss_charge_different_busy_windows(self):
        ss = run_sim(Scheme.STTRAM_4TSB_SS)
        wb = run_sim(Scheme.STTRAM_4TSB_WB)
        # Both track busy banks; the WB run has live congestion input.
        assert ss.tracker.busy_until and wb.tracker.busy_until

    def test_plain_4tsb_has_no_estimator(self):
        sim = run_sim(Scheme.STTRAM_4TSB)
        assert sim.estimator is None
        assert sim.tracker is None
