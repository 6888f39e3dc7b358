"""End-to-end tests of the assembled CMP simulator."""

import pytest

from repro.cpu.trace import IdleStream, ScriptedStream, bank_block
from repro.noc.packet import PacketClass
from repro.sim.config import Scheme, make_config
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import Workload, homogeneous
from tests.conftest import small_config


def scripted_workload(config, accesses_for_core0):
    n = config.n_cores
    streams = [ScriptedStream(accesses_for_core0)]
    streams += [IdleStream() for _ in range(n - 1)]
    return Workload(streams, ["scripted"] * n, "scripted")


class TestEndToEnd:
    """Scripted round trips, each advanced by ``drain`` on the event
    scheduler (``TestEndToEndDense`` repeats them on the dense oracle)."""

    scheduler = "event"

    def sim(self, cfg, wl):
        return CMPSimulator(cfg, wl, prewarm=False, scheduler=self.scheduler)

    def test_single_load_round_trip(self):
        cfg = small_config(Scheme.STTRAM_64TSB)
        block = bank_block(3, 5, cfg.n_banks)
        wl = scripted_workload(cfg, [(0, block, False)])
        sim = self.sim(cfg, wl)
        assert sim.drain(max_cycles=5_000)
        core = sim.cores[0]
        assert core.stats.l1_misses == 1
        assert core.l1.contains(block)
        assert core.stats.miss_latency_samples == 1
        # Cold miss: network + bank + 320-cycle memory round trip.
        assert core.stats.average_miss_latency() > 320

    def test_l2_hit_is_much_faster(self):
        cfg = small_config(Scheme.STTRAM_64TSB)
        block = bank_block(3, 5, cfg.n_banks)
        wl = scripted_workload(cfg, [(0, block, False)])
        sim = self.sim(cfg, wl)
        sim.banks[3].array.fill(block)
        assert sim.drain(max_cycles=5_000)
        assert sim.cores[0].stats.average_miss_latency() < 100
        assert sim.banks[3].stats.l2_hits == 1

    def test_store_write_reaches_bank(self):
        cfg = small_config(Scheme.STTRAM_64TSB)
        block = bank_block(7, 9, cfg.n_banks)
        wl = scripted_workload(cfg, [(0, block, True)])
        sim = self.sim(cfg, wl)
        assert sim.drain(max_cycles=5_000)
        bank = sim.banks[7]
        assert bank.stats.writes == 1
        assert bank.array.is_dirty(block)

    def test_region_restricted_request_traverses_tsb(self):
        cfg = small_config(Scheme.STTRAM_4TSB)
        block = bank_block(10, 3, cfg.n_banks)
        sim = self.sim(cfg, scripted_workload(cfg, [(0, block, False)]))
        sim.drain(max_cycles=5_000)
        assert sim.banks[10].stats.reads == 1

    def test_drain_reports_completion(self):
        cfg = small_config(Scheme.STTRAM_64TSB)
        wl = scripted_workload(cfg, [])
        sim = self.sim(cfg, wl)
        assert sim.drain(max_cycles=100)


class TestEndToEndDense(TestEndToEnd):
    scheduler = "dense"


class TestDeterminism:
    def test_same_seed_same_result(self):
        def run():
            cfg = small_config(Scheme.STTRAM_4TSB_WB)
            sim = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=9))
            return sim.run(800, warmup=300)

        a, b = run(), run()
        assert a.instructions == b.instructions
        assert a.packets_delivered == b.packets_delivered
        assert a.avg_packet_latency == b.avg_packet_latency

    def test_different_seeds_differ(self):
        cfg = small_config(Scheme.STTRAM_4TSB_WB)
        sim1 = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=1))
        sim2 = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=2))
        r1 = sim1.run(800, warmup=300)
        r2 = sim2.run(800, warmup=300)
        assert r1.instructions != r2.instructions


class TestPrewarm:
    def test_prewarm_populates_l2(self):
        cfg = small_config(Scheme.STTRAM_64TSB)
        sim = CMPSimulator(cfg, homogeneous("tpcc", cfg))
        assert sum(b.array.occupancy() for b in sim.banks) > 100

    def test_prewarm_populates_l1_and_directory(self):
        cfg = small_config(Scheme.STTRAM_64TSB)
        sim = CMPSimulator(cfg, homogeneous("tpcc", cfg))
        core = sim.cores[0]
        assert core.l1.occupancy() > 0
        hot = core.stream.hot_blocks()[0]
        home = sim.banks[sim.bank_for_block(hot)]
        assert core.core_id in home.directory.sharers_of(hot)

    def test_prewarm_skips_scripted_streams(self):
        cfg = small_config(Scheme.STTRAM_64TSB)
        wl = scripted_workload(cfg, [(0, 1, False)])
        sim = CMPSimulator(cfg, wl, prewarm=True)
        assert sum(b.array.occupancy() for b in sim.banks) == 0


class TestMeasurementWindow:
    def test_ipc_measured_after_warmup(self):
        cfg = small_config(Scheme.STTRAM_64TSB)
        sim = CMPSimulator(cfg, homogeneous("x264", cfg))
        res = sim.run(500, warmup=200)
        assert res.cycles == 500
        assert len(res.ipc) == cfg.n_cores
        assert 0 < res.instruction_throughput() \
            <= cfg.n_cores * cfg.commit_width

    def test_stats_reset_at_window_start(self):
        cfg = small_config(Scheme.STTRAM_64TSB)
        sim = CMPSimulator(cfg, homogeneous("x264", cfg))
        res = sim.run(400, warmup=400)
        # Network stats only cover the measurement window.
        assert res.packets_delivered <= sim.network.stats.total_injected \
            + res.packets_delivered


class TestWbAckPlumbing:
    def test_wb_scheme_generates_acks(self):
        cfg = small_config(Scheme.STTRAM_4TSB_WB, wb_sample_period=2)
        sim = CMPSimulator(cfg, homogeneous("tpcc", cfg))
        sim.run(600, warmup=0)
        assert sim.estimator.tags_sent > 0
        assert sim.estimator.acks_received > 0

    def test_non_wb_scheme_sends_no_acks(self):
        cfg = small_config(Scheme.STTRAM_4TSB_SS)
        sim = CMPSimulator(cfg, homogeneous("tpcc", cfg))
        sim.run(600, warmup=0)
        assert sim.network.stats.injected[PacketClass.ACK] == 0


class TestValidation:
    def test_workload_size_mismatch_rejected(self):
        cfg = small_config(Scheme.STTRAM_64TSB)
        wl = Workload([IdleStream()], ["x"], "x")
        with pytest.raises(ValueError):
            CMPSimulator(cfg, wl)
