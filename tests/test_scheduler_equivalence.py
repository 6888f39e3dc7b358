"""Dense vs event-driven scheduler equivalence (seeded property tests).

The event scheduler (`scheduler="event"`, the default) must be an
*observationally identical* reimplementation of the dense reference loop
(`scheduler="dense"`): same arbitration decisions, same per-packet
latencies, same bank service timeline.  These tests run both schedulers
on identical seeded workloads over a small 16-node mesh and compare

* the full per-packet latency *histogram* (not just the mean -- a pair
  of compensating per-packet errors would survive an average),
* the full ``[start, end)`` service schedule of every bank,
* every ``CoreStats`` field of every core (``stall_cycles``,
  ``ni_stall_cycles`` and ``mshr_stall_cycles`` are the lazily accrued
  sleep counters),
* the bank-aware arbiter's delay counters and the busy tracker's
  prediction log (parked cycles are accrued in bulk),
* the entire ``SimulationResult``.

Inputs cover all six schemes, randomized odd warm-ups and windows
(phase boundaries that split a sleeping core's accrual), runs with the
invariant guard, an observability session or a fault model attached --
each of which the event scheduler folds into its cycle-skip bound --
and phased write bursts on the default 8x8 mesh, where the event run
must also keep skipping as many cycles as it did when recorded.
"""

import random

import pytest

from repro.cache.bank import BankStats
from repro.core.arbitration import BankAwareArbiter
from repro.core.busy import BankBusyTracker
from repro.core.estimators import RegionalCongestionEstimator
from repro.core.regions import build_region_map
from repro.cpu.core import CoreStats
from repro.cpu.trace import IdleStream, ScriptedStream, bank_block
from repro.noc.network import Network
from repro.noc.packet import Packet, PacketClass, reset_packet_ids
from repro.noc.routing import RoutingPolicy
from repro.noc.topology import DOWN, Mesh3D
from repro.obs import Observability
from repro.resilience import FaultConfig
from repro.sim.config import Scheme, TSBPlacement, make_config
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import Workload, homogeneous, mix
from tests.conftest import burst_workload, small_config

CORE_FIELDS = CoreStats.__slots__
BANK_FIELDS = BankStats.__slots__
#: bank-aware arbiter and busy-tracker counters; the event scheduler
#: books a parked port's skipped cycles into them in bulk
#: (``accrue_parked``)
ARBITER_FIELDS = ("delay_cycles", "reorders", "vc_pressure_releases")
TRACKER_FIELDS = ("predictions",)


def _run(config, make_workload, scheduler, cycles=600, warmup=120,
         prewarm=True, instrument=None, **sim_kwargs):
    # Packet ids are process-global; reset so both runs see identical
    # streams (see repro.sim.reset_state).
    reset_packet_ids()
    sim = CMPSimulator(config, make_workload(config), scheduler=scheduler,
                       prewarm=prewarm, **sim_kwargs)
    if instrument is not None:
        instrument(sim)
    result = sim.run(cycles, warmup=warmup)
    return sim, result


def _assert_fields_equal(dense_sim, event_sim):
    """Internal instrumentation, field by field."""
    pairs = zip(dense_sim.cores, event_sim.cores)
    for cid, (dc, ec) in enumerate(pairs):
        for name in CORE_FIELDS:
            assert getattr(dc.stats, name) == getattr(ec.stats, name), (
                f"core {cid} CoreStats.{name} drift")
    for b, (db, eb) in enumerate(zip(dense_sim.banks, event_sim.banks)):
        for name in BANK_FIELDS:
            assert getattr(db.stats, name) == getattr(eb.stats, name), (
                f"bank {b} BankStats.{name} drift")
    if dense_sim.tracker is not None:
        for name in ARBITER_FIELDS:
            assert getattr(dense_sim.arbiter, name) == getattr(
                event_sim.arbiter, name), f"arbiter {name} drift"
        for name in TRACKER_FIELDS:
            assert getattr(dense_sim.tracker, name) == getattr(
                event_sim.tracker, name), f"tracker {name} drift"


def _assert_equivalent(config, make_workload, cycles=600, warmup=120,
                       **run_kwargs):
    dense_sim, dense_result = _run(
        config, make_workload, "dense", cycles, warmup, **run_kwargs)
    event_sim, event_result = _run(
        config, make_workload, "event", cycles, warmup, **run_kwargs)

    dense_hist = dense_sim.network.stats.latency_hist
    event_hist = event_sim.network.stats.latency_hist
    assert dense_hist == event_hist, "per-packet latency drift"

    _assert_fields_equal(dense_sim, event_sim)

    diffs = [
        key for key in dense_result.__dict__
        if dense_result.__dict__[key] != event_result.__dict__[key]
    ]
    assert not diffs, f"SimulationResult drift in {diffs}"
    # The comparison must not be vacuous.
    assert event_result.packets_delivered > 0
    return dense_sim, event_sim


SCHEMES = [
    Scheme.SRAM_64TSB,
    Scheme.STTRAM_64TSB,
    Scheme.STTRAM_4TSB,
    Scheme.STTRAM_4TSB_WB,
    Scheme.STTRAM_4TSB_RCA,
    Scheme.STTRAM_4TSB_SS,
]

#: Burst-workload configs on the default 8x8 mesh, each with the cycles
#: the event run executed of 6500 (warmup 500 + 6000) when recorded.
#: Executing more is a scheduler slowdown even if every field matches.
BURST_CONFIGS = [
    pytest.param(Scheme.SRAM_64TSB, {}, 1331, id="sram-64tsb"),
    pytest.param(Scheme.STTRAM_4TSB_WB, {}, 1691, id="sttram-4tsb-wb"),
    pytest.param(Scheme.STTRAM_4TSB_WB,
                 dict(n_region_tsbs=16, tsb_placement=TSBPlacement.STAGGER),
                 1520, id="sttram-16tsb-stagger-wb"),
]


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_homogeneous_sclust(self, scheme, seed):
        cfg = small_config(scheme)
        _assert_equivalent(
            cfg, lambda c: homogeneous("sclust", c, seed=seed))

    @pytest.mark.parametrize("seed", [3])
    def test_mixed_apps_on_wb(self, seed):
        cfg = small_config(Scheme.STTRAM_4TSB_WB)
        apps = ["tpcc", "sclust", "x264", "canneal"] * (cfg.n_cores // 4)
        _assert_equivalent(cfg, lambda c: mix(apps, c, seed=seed))

    @pytest.mark.parametrize("scheme, overrides, max_executed",
                             BURST_CONFIGS)
    def test_phased_bursts_on_default_mesh(self, scheme, overrides,
                                           max_executed):
        _dense_sim, event_sim = _assert_equivalent(
            make_config(scheme, **overrides),
            lambda c: burst_workload(c, seed=1), cycles=6000, warmup=500)
        assert event_sim.executed_cycles <= max_executed

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_odd_windows(self, seed):
        """Odd warm-ups put the measurement boundary mid-sleep."""
        rng = random.Random(seed)
        for scheme in SCHEMES:
            cycles = rng.randrange(150, 300)
            warmup = 2 * rng.randrange(25, 50) + 1
            _assert_equivalent(
                small_config(scheme),
                lambda c: homogeneous("tpcc", c, seed=seed),
                cycles=cycles, warmup=warmup)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_short_random_windows(self, seed):
        rng = random.Random(seed)
        for scheme in rng.sample(SCHEMES, 3):
            cycles = rng.randrange(40, 80)
            warmup = 2 * rng.randrange(30, 60) + 1
            _assert_equivalent(
                small_config(scheme),
                lambda c: homogeneous("tpcc", c, seed=1),
                cycles=cycles, warmup=warmup)

    @pytest.mark.parametrize("scheme", [Scheme.STTRAM_4TSB_WB,
                                        Scheme.STTRAM_4TSB_RCA],
                             ids=lambda s: s.value)
    def test_with_guard(self, scheme):
        _assert_equivalent(
            small_config(scheme),
            lambda c: homogeneous("tpcc", c, seed=2), guard=True)

    @pytest.mark.parametrize("scheme", [Scheme.STTRAM_4TSB_WB,
                                        Scheme.STTRAM_4TSB_SS],
                             ids=lambda s: s.value)
    def test_with_observability(self, scheme):
        _assert_equivalent(
            small_config(scheme),
            lambda c: homogeneous("sclust", c, seed=4),
            instrument=lambda sim: Observability(epoch=128).attach(sim))

    @pytest.mark.parametrize("faults", [
        FaultConfig(seed=7, crc_rate=0.01),
        FaultConfig(seed=7, tsb_failures=((0, 200),)),
    ], ids=["crc", "tsb"])
    def test_with_fault_model(self, faults):
        dense_sim, _event_sim = _assert_equivalent(
            small_config(Scheme.STTRAM_4TSB_WB),
            lambda c: homogeneous("tpcc", c, seed=3), faults=faults)
        report = dense_sim.fault_plane.report()
        assert report["retransmits"] or report["tsb_remapped"]

    def test_tsb_remap_forwards_in_the_remap_cycle(self):
        """Faults fire before the network steps, so an entry a TSB remap
        moves onto an idle port leaves in the remap cycle itself, as in
        the dense loop."""
        dense_sim, _event_sim = _assert_equivalent(
            small_config(Scheme.STTRAM_4TSB_RCA, bank_queue_entries=3),
            lambda c: homogeneous("tpcc", c, seed=173),
            cycles=200, warmup=0,
            faults=FaultConfig(seed=173, tsb_failures=((3, 88),)))
        assert dense_sim.fault_plane.report()["packets_rerouted"] > 0

    def test_tsb_remap_redecides_parked_arbitrations(self):
        """A TSB remap rewrites the parent/child map; ports parked under
        the old map are re-decided in the remap cycle, as in the dense
        loop (otherwise their delay accrual drifts)."""
        apps = ["mcf", "sjbb", "lbm", "tpcc"] * 4
        _assert_equivalent(
            small_config(Scheme.STTRAM_4TSB_WB),
            lambda c: mix(apps, c, seed=685), cycles=400, warmup=0,
            faults=FaultConfig(seed=685, tsb_failures=((3, 268),)))

    @pytest.mark.parametrize("app", ["gcc", "tpcc"])
    def test_step_between_runs(self, app):
        """``step`` advances on the simulator's own schedule, so a run,
        stepped cycles and a second run read as on the dense oracle (a
        cycle stepped outside the event schedule would be replayed
        when a sleeping core wakes)."""
        cfg = small_config(Scheme.STTRAM_4TSB_WB)
        sims, results = [], []
        for scheduler in ("dense", "event"):
            reset_packet_ids()
            sim = CMPSimulator(cfg, homogeneous(app, cfg, seed=3),
                               scheduler=scheduler)
            sim.run(300, warmup=100)
            sim.step(200)
            results.append(sim.run(300))
            sims.append(sim)
        _assert_fields_equal(*sims)
        assert results[0].__dict__ == results[1].__dict__
        assert results[1].packets_delivered > 0

    @pytest.mark.parametrize("is_write", [False, True],
                             ids=["load", "store"])
    def test_drain_stops_on_the_same_cycle(self, is_write):
        """Both ``drain`` paths stop at the first quiescent cycle."""
        cfg = small_config(Scheme.STTRAM_4TSB_WB)
        block = bank_block(10, 3, cfg.n_banks)

        def make_workload(config):
            streams = [ScriptedStream([(0, block, is_write)])]
            streams += [IdleStream() for _ in range(config.n_cores - 1)]
            return Workload(streams, ["s"] * config.n_cores, "s")

        sims = []
        for scheduler in ("dense", "event"):
            reset_packet_ids()
            sim = CMPSimulator(cfg, make_workload(cfg), scheduler=scheduler,
                               prewarm=False)
            assert sim.drain(max_cycles=5_000)
            sims.append(sim)
        assert sims[0].cycle == sims[1].cycle
        _assert_fields_equal(*sims)

    def test_event_scheduler_skips_cycles_on_idle_workload(self):
        """The fast path actually engages: fewer executed than simulated
        cycles on a workload with long compute gaps."""
        cfg = small_config(Scheme.STTRAM_4TSB_WB)

        def make_workload(config):
            accesses = [(0, bank_block(2, 9, config.n_banks), True),
                        (5_000, bank_block(3, 11, config.n_banks), False)]
            streams = [ScriptedStream(accesses)]
            streams += [IdleStream() for _ in range(config.n_cores - 1)]
            return Workload(streams, ["s"] * config.n_cores, "s")

        reset_packet_ids()
        sim = CMPSimulator(cfg, make_workload(cfg), scheduler="event",
                           prewarm=False)
        sim.run(4_000, warmup=0)
        assert sim.executed_cycles < sim.cycle // 2


class TestBlockedRouterRearm:
    """A router asleep on its bank's full queue (``kblocked``) wakes on
    every dequeue -- including the fault model's redirects, which pop
    the queue outside the normal service path."""

    BANK = 5

    def make_workload(self, config):
        # Core 0's load misses in the cold L2 and leaves an MSHR open on
        # ``block``; the other cores' loads to the same block arrive
        # after the port has failed, fill the queue and back up in the
        # bank's router.  Their redirects merge into the open MSHR, so
        # they inject nothing that could wake the router by accident.
        block = bank_block(self.BANK, 77, config.n_banks)
        streams = [ScriptedStream([(0, block, False)])]
        streams += [ScriptedStream([(60 + core, block, False)])
                    for core in range(1, config.n_cores)]
        return Workload(streams, ["s"] * config.n_cores, "s")

    def test_bank_port_redirect_rearms_blocked_router(self):
        faults = FaultConfig(bank_port_failures=((self.BANK, 30, 900),),
                             bank_redirect_timeout=40)
        woken = []

        def spy(sim):
            node = sim.topo.bank_node(self.BANK)
            bank = sim.banks[self.BANK]
            notify = bank.on_dequeue

            def on_dequeue(now):
                if sim.network.routers[node].kblocked:
                    woken.append(now < bank.port_failed_until)
                notify(now)

            bank.on_dequeue = on_dequeue

        runs = [
            _run(small_config(Scheme.STTRAM_64TSB), self.make_workload,
                 scheduler, cycles=1500, warmup=0, prewarm=False,
                 faults=faults, instrument=spy)
            for scheduler in ("dense", "event")
        ]
        (dense_sim, dense_result), (event_sim, event_result) = runs

        _assert_fields_equal(dense_sim, event_sim)
        assert dense_result.__dict__ == event_result.__dict__
        # Non-vacuous: cores slept through skipped cycles, the queue
        # filled and refused ejections, and a redirect woke the router.
        assert event_sim.executed_cycles < event_sim.cycle // 4
        bank = event_sim.banks[self.BANK]
        assert bank.stats.max_queue_depth == bank.queue_limit
        assert bank.redirected_reads > 0
        assert any(woken)


class TestRCAParkedRelease:
    """Under RCA a parked port sleeps until its exact release, and the
    post-tick re-derivation wakes it when a tick raises the estimate
    enough to release a candidate."""

    def test_parked_port_sleeps_until_release_and_tick_rearms(self):
        cfg = small_config(Scheme.STTRAM_4TSB_RCA)
        topo = Mesh3D(cfg.mesh_width)
        region_map = build_region_map(cfg, topo)
        tracker = BankBusyTracker(cfg)
        estimator = RegionalCongestionEstimator(cfg)
        arbiter = BankAwareArbiter(cfg, region_map, tracker, estimator)
        net = Network(cfg, topo, RoutingPolicy(topo, region_map), arbiter,
                      estimator)
        assert cfg.rca_update_period == 1  # every cycle ticks
        # The core above a region TSB is the parent of the banks close
        # below it; its own requests enter the network at the parent.
        parent = region_map.regions[0].tsb_core_node
        bank = region_map.children_of[parent][0]
        travel = tracker.travel_cycles(
            region_map.expected_child_distance(bank))

        def request(now):
            return Packet(PacketClass.REQUEST, parent, topo.bank_node(bank),
                          cfg.data_packet_flits, inject_cycle=now,
                          is_write=True, bank=bank)

        arbiter.on_forward(parent, request(0), 0, out_port=DOWN)
        free_at = tracker.busy_until[bank]
        release = free_at - travel  # the estimate is 0 before any load
        assert release > 3
        net.inject(request(1), 1)
        router = net.routers[parent]
        # Cycle 1 injects and parks the request; it then sleeps until the
        # release, through ticks that keep the estimate.
        for now in range(1, 4):
            net.step(now)
            assert router.n_resident == 1
            assert estimator.congestion_estimate(parent, bank, now) == 0
            assert router.next_active == release
        assert arbiter.delay_cycles == 1, "parked once, never re-scanned"

        # Congest every link as far as the RCA tick can see: the next
        # tick raises the estimate past the remaining busy window.
        now = 4
        for r in net.routers:
            r.link_busy_until = now + 255
        net.step(now)
        assert now + travel + estimator.congestion_estimate(
            parent, bank, now) >= free_at
        assert router.next_active == now + 1
        net.step(now + 1)
        assert router.n_resident == 0, "the released request forwards"
