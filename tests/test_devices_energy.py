"""Tests for the Table 2 device models and the energy model."""

import pytest

from repro.cache.device import (
    SRAM_1MB, STTRAM_4MB, comparison_table, device_for,
)
from repro.energy.model import EnergyModel
from repro.sim.config import (
    CacheTechnology, Scheme, WriteBufferConfig, make_config,
)


class TestTable2:
    def test_sram_row(self):
        assert SRAM_1MB.capacity_bytes == 1 << 20
        assert SRAM_1MB.area_mm2 == 3.03
        assert SRAM_1MB.read_cycles == 3
        assert SRAM_1MB.write_cycles == 3
        assert SRAM_1MB.leakage_mw == 444.6
        assert not SRAM_1MB.nonvolatile

    def test_sttram_row(self):
        assert STTRAM_4MB.capacity_bytes == 4 << 20
        assert STTRAM_4MB.area_mm2 == 3.39
        assert STTRAM_4MB.read_cycles == 3
        assert STTRAM_4MB.write_cycles == 33
        assert STTRAM_4MB.write_energy_nj == 0.765
        assert STTRAM_4MB.nonvolatile

    def test_sttram_is_denser(self):
        assert STTRAM_4MB.density_mb_per_mm2 \
            > 3 * SRAM_1MB.density_mb_per_mm2

    def test_sttram_write_penalty_is_11x(self):
        # The paper's 33-vs-3-cycle asymmetry (Section 3.2).
        assert STTRAM_4MB.write_read_latency_ratio() == 11.0

    def test_sttram_leaks_less(self):
        assert STTRAM_4MB.leakage_mw < SRAM_1MB.leakage_mw / 2

    def test_device_for(self):
        assert device_for(CacheTechnology.SRAM) is SRAM_1MB
        assert device_for(CacheTechnology.STTRAM) is STTRAM_4MB

    def test_comparison_table_rows(self):
        rows = comparison_table()
        assert len(rows) == 2
        assert rows[0]["name"] == "1MB SRAM"
        assert rows[1]["write_cycles"] == 33


class TestEnergyModel:
    def _energy(self, scheme, **kwargs):
        cfg = make_config(scheme)
        model = EnergyModel(cfg)
        defaults = dict(cycles=10_000, bank_reads=1_000,
                        bank_writes=1_000, router_flits=50_000,
                        link_flits=50_000)
        defaults.update(kwargs)
        return model.compute(**defaults)

    def test_sttram_uncore_energy_below_sram(self):
        sram = self._energy(Scheme.SRAM_64TSB)
        stt = self._energy(Scheme.STTRAM_64TSB)
        assert stt.total < sram.total

    def test_leakage_dominates_and_drives_the_saving(self):
        sram = self._energy(Scheme.SRAM_64TSB)
        stt = self._energy(Scheme.STTRAM_64TSB)
        assert sram.cache_leakage > sram.cache_dynamic
        # Table 2 ratio: 190.5 / 444.6.
        assert stt.cache_leakage / sram.cache_leakage \
            == pytest.approx(190.5 / 444.6)

    def test_sttram_writes_cost_more_dynamic_energy(self):
        sram = self._energy(Scheme.SRAM_64TSB, bank_reads=0)
        stt = self._energy(Scheme.STTRAM_64TSB, bank_reads=0)
        assert stt.cache_dynamic > sram.cache_dynamic

    def test_rca_wiring_overhead(self):
        plain = self._energy(Scheme.STTRAM_4TSB_WB)
        rca = self._energy(Scheme.STTRAM_4TSB_RCA)
        assert rca.network_leakage > plain.network_leakage

    def test_write_buffer_energy_counted(self):
        cfg = make_config(Scheme.STTRAM_64TSB,
                          write_buffer=WriteBufferConfig())
        model = EnergyModel(cfg)
        e = model.compute(cycles=10_000, bank_reads=0, bank_writes=0,
                          router_flits=0, link_flits=0,
                          write_buffer_accesses=100)
        assert e.write_buffer > 0

    def test_breakdown_dict(self):
        e = self._energy(Scheme.STTRAM_64TSB)
        d = e.as_dict()
        assert d["total_j"] == pytest.approx(
            d["cache_dynamic_j"] + d["cache_leakage_j"]
            + d["network_dynamic_j"] + d["network_leakage_j"]
            + d["write_buffer_j"])

    def test_fifty_percent_class_saving_at_paper_ratios(self):
        # With realistic event counts the STT-RAM un-core saving should
        # land near the paper's ~54% (leakage-driven).
        sram = self._energy(Scheme.SRAM_64TSB)
        stt = self._energy(Scheme.STTRAM_64TSB)
        saving = 1 - stt.total / sram.total
        assert 0.35 < saving < 0.65
