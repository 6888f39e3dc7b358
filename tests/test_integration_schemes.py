"""Cross-module integration tests: the six design scenarios end to end.

These run the full stack on a scaled 4x4 mesh and assert the *relations*
the paper's evaluation rests on, not absolute numbers.
"""

import pytest

from repro.noc.packet import PacketClass
from repro.sim.config import (
    ALL_SCHEMES, Scheme, WriteBufferConfig, make_config,
)
from repro.sim.parallel import SweepPoint, build_simulator
from repro.sim.simulator import CMPSimulator
from repro.sim.sweep import SweepGrid, run_sweep
from repro.workloads.mixes import case2, homogeneous

FAST = dict(mesh_width=4, capacity_scale=1 / 64)
CYCLES = 1200
WARMUP = 600


def run_point(app="tpcc", scheme=Scheme.STTRAM_64TSB, **overrides):
    point = SweepPoint.build(app, scheme, CYCLES, WARMUP, 1,
                             dict(FAST, **overrides))
    return build_simulator(point).run(CYCLES, warmup=WARMUP)


@pytest.fixture(scope="module")
def tpcc_sweep():
    return run_sweep(SweepGrid(apps=["tpcc"], cycles=CYCLES,
                               warmup=WARMUP, overrides=FAST))


@pytest.fixture(scope="module")
def tpcc(tpcc_sweep):
    """Summary per scheme label."""
    return tpcc_sweep.data["tpcc"]


class TestSchemeRelations:
    def test_all_schemes_make_progress(self, tpcc):
        for scheme, result in tpcc.items():
            assert result["instructions"] > 0, scheme
            assert result["packets_delivered"] > 0, scheme

    def test_sttram_writes_create_bank_queueing(self, tpcc):
        sram = tpcc[Scheme.SRAM_64TSB.value]
        stt = tpcc[Scheme.STTRAM_64TSB.value]
        assert stt["avg_bank_queue_wait"] > 3 * sram["avg_bank_queue_wait"]

    def test_sttram_capacity_raises_hit_rate(self, tpcc):
        sram = tpcc[Scheme.SRAM_64TSB.value]
        stt = tpcc[Scheme.STTRAM_64TSB.value]
        assert stt["l2_hit_rate"] > sram["l2_hit_rate"]

    def test_only_estimator_schemes_delay_packets(self, tpcc):
        for scheme in (Scheme.SRAM_64TSB, Scheme.STTRAM_64TSB,
                       Scheme.STTRAM_4TSB):
            assert tpcc[scheme.value]["delayed_cycle_sum"] == 0
        for scheme in (Scheme.STTRAM_4TSB_SS, Scheme.STTRAM_4TSB_RCA,
                       Scheme.STTRAM_4TSB_WB):
            assert tpcc[scheme.value]["delayed_cycle_sum"] > 0

    def test_estimator_schemes_cut_bank_queueing(self, tpcc):
        plain = tpcc[Scheme.STTRAM_4TSB.value]
        wb = tpcc[Scheme.STTRAM_4TSB_WB.value]
        assert wb["avg_bank_queue_wait"] < plain["avg_bank_queue_wait"]

    def test_sttram_saves_uncore_energy(self, tpcc_sweep):
        energy = tpcc_sweep.normalized("uncore_energy_j",
                                       Scheme.SRAM_64TSB.value)["tpcc"]
        for scheme in ALL_SCHEMES[1:]:
            assert energy[scheme.value] < 0.75, scheme

    def test_normalisation_baseline_is_one(self, tpcc_sweep):
        assert tpcc_sweep.normalized(
            "instruction_throughput", Scheme.SRAM_64TSB.value,
        )["tpcc"][Scheme.SRAM_64TSB.value] == pytest.approx(1.0)


class TestReadIntensiveApps:
    def test_capacity_gain_for_read_heavy_app(self):
        # The capacity effect needs the larger working sets of the
        # paper-size mesh; the 4x4 fast config understates it.
        sweep = run_sweep(SweepGrid(
            apps=["mcf"], schemes=(Scheme.SRAM_64TSB, Scheme.STTRAM_64TSB),
            cycles=2000, warmup=1000,
            overrides=dict(mesh_width=8, capacity_scale=1 / 16)))
        norm = sweep.normalized("instruction_throughput",
                                Scheme.SRAM_64TSB.value)["mcf"]
        # Paper: read-intensive benchmarks benefit from the 4x capacity.
        assert norm[Scheme.STTRAM_64TSB.value] > 0.95


class TestWriteBufferComparator:
    def test_buff20_reduces_queue_wait(self):
        plain = run_point()
        buffered = run_point(write_buffer=WriteBufferConfig())
        assert buffered.avg_bank_queue_wait < plain.avg_bank_queue_wait
        assert buffered.bank_drains > 0

    def test_preemption_fires_under_load(self):
        result = run_point(write_buffer=WriteBufferConfig())
        assert result.write_buffer_preemptions > 0


class TestCoherenceTraffic:
    def test_shared_workload_generates_coherence(self):
        # Shared-pool stores invalidate sharers.
        cfg = make_config(Scheme.STTRAM_64TSB, **FAST)
        sim = CMPSimulator(cfg, homogeneous("tpcc", cfg))
        sim.run(CYCLES, warmup=0)
        coh = sim.network.stats.injected[PacketClass.COHERENCE]
        assert coh > 0

    def test_private_workload_generates_no_invalidations(self):
        cfg = make_config(Scheme.STTRAM_64TSB, **FAST)
        sim = CMPSimulator(cfg, homogeneous("mcf", cfg))
        sim.run(CYCLES, warmup=0)
        invals = sum(
            b.directory.invalidations_sent for b in sim.banks)
        forwards = sum(b.directory.forwards_sent for b in sim.banks)
        assert invals == 0 and forwards == 0


class TestFairnessCase2:
    def test_case2_mix_runs_all_four_apps(self):
        cfg = make_config(Scheme.STTRAM_64TSB, **FAST)
        sim = CMPSimulator(cfg, case2(cfg))
        result = sim.run(CYCLES, warmup=WARMUP)
        by_app = result.ipc_by_app()
        assert set(by_app) == {"lbm", "hmmer", "bzip2", "libquantum"}
        assert all(v > 0 for v in by_app.values())
