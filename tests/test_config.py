"""Tests for repro.sim.config."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.sim.config import (
    ALL_SCHEMES, CacheTechnology, Estimator, Scheme, SystemConfig,
    TSBPlacement, WriteBufferConfig, make_config, parse_scheme,
)


class TestDefaults:
    def test_table1_baseline(self):
        cfg = SystemConfig()
        assert cfg.mesh_width == 8
        assert cfg.n_cores == 64
        assert cfg.n_banks == 64
        assert cfg.n_routers == 128
        assert cfg.n_vcs == 6
        assert cfg.data_packet_flits == 8
        assert cfg.addr_packet_flits == 1
        assert cfg.memory_latency_cycles == 320
        assert cfg.n_memory_controllers == 4

    def test_hop_latency_is_three_cycles(self):
        # 2-stage router + 1-cycle link (Section 3.2).
        assert SystemConfig().hop_cycles == 3

    def test_sttram_write_latency(self):
        cfg = SystemConfig(cache_technology=CacheTechnology.STTRAM)
        assert cfg.l2_read_cycles == 3
        assert cfg.l2_write_cycles == 33

    def test_sram_write_latency(self):
        cfg = SystemConfig(cache_technology=CacheTechnology.SRAM)
        assert cfg.l2_read_cycles == 3
        assert cfg.l2_write_cycles == 3

    def test_sttram_bank_is_4x_sram_capacity(self):
        sram = SystemConfig(cache_technology=CacheTechnology.SRAM)
        stt = SystemConfig(cache_technology=CacheTechnology.STTRAM)
        assert stt.l2_bank_bytes == 4 * sram.l2_bank_bytes


class TestSchemes:
    def test_all_six_scenarios_exist(self):
        assert len(ALL_SCHEMES) == 6
        assert ALL_SCHEMES[0] is Scheme.SRAM_64TSB

    def test_sram_baseline_unrestricted(self):
        cfg = make_config(Scheme.SRAM_64TSB)
        assert cfg.cache_technology is CacheTechnology.SRAM
        assert cfg.n_region_tsbs is None
        assert cfg.estimator is Estimator.NONE

    def test_4tsb_schemes_have_four_regions(self):
        for scheme in (Scheme.STTRAM_4TSB, Scheme.STTRAM_4TSB_SS,
                       Scheme.STTRAM_4TSB_RCA, Scheme.STTRAM_4TSB_WB):
            cfg = make_config(scheme)
            assert cfg.n_region_tsbs == 4
            assert cfg.cache_technology is CacheTechnology.STTRAM

    def test_estimator_selection(self):
        assert make_config(Scheme.STTRAM_4TSB_SS).estimator \
            is Estimator.SIMPLE
        assert make_config(Scheme.STTRAM_4TSB_RCA).estimator \
            is Estimator.RCA
        assert make_config(Scheme.STTRAM_4TSB_WB).estimator \
            is Estimator.WINDOW

    def test_overrides_apply(self):
        cfg = make_config(Scheme.STTRAM_4TSB_WB, mesh_width=4,
                          capacity_scale=0.5)
        assert cfg.mesh_width == 4
        assert cfg.capacity_scale == 0.5

    def test_small_mesh_shrinks_regions(self):
        cfg = make_config(Scheme.STTRAM_4TSB_WB, mesh_width=2)
        assert cfg.n_region_tsbs == 1

    def test_explicit_region_count_respected(self):
        cfg = make_config(Scheme.STTRAM_4TSB_WB, mesh_width=4,
                          n_region_tsbs=8)
        assert cfg.n_region_tsbs == 8


class TestValidation:
    def test_rejects_tiny_mesh(self):
        with pytest.raises(ConfigError):
            SystemConfig(mesh_width=1).validate()

    def test_rejects_non_dividing_regions(self):
        with pytest.raises(ConfigError):
            SystemConfig(mesh_width=8, n_region_tsbs=7).validate()

    def test_rejects_bad_capacity_scale(self):
        with pytest.raises(ConfigError):
            SystemConfig(capacity_scale=0.0).validate()
        with pytest.raises(ConfigError):
            SystemConfig(capacity_scale=1.5).validate()

    def test_rejects_non_power_of_two_blocks(self):
        with pytest.raises(ConfigError):
            SystemConfig(block_bytes=100).validate()

    def test_rejects_zero_hop_distance(self):
        with pytest.raises(ConfigError):
            SystemConfig(parent_hop_distance=0).validate()

    def test_valid_default_passes(self):
        cfg = SystemConfig()
        assert cfg.validate() is cfg

    @pytest.mark.parametrize("field", [
        "vc_buffer_flits", "data_packet_flits", "addr_packet_flits",
        "router_pipeline_cycles", "ni_queue_entries",
        "bank_queue_entries", "l2_associativity", "l1_associativity",
        "commit_width", "instruction_window", "memory_latency_cycles",
        "n_memory_controllers", "max_outstanding_memory",
        "wb_sample_period", "rca_update_period", "max_delay_cycles",
    ])
    def test_rejects_nonpositive_structural_knobs(self, field):
        with pytest.raises(ConfigError):
            SystemConfig(**{field: 0}).validate()
        with pytest.raises(ConfigError):
            SystemConfig(**{field: -3}).validate()

    def test_rejects_non_integer_knobs(self):
        # 2.5 VCs is not a hardware configuration.
        with pytest.raises(ConfigError):
            SystemConfig(vc_buffer_flits=2.5).validate()

    def test_rejects_negative_link_cycles(self):
        with pytest.raises(ConfigError):
            SystemConfig(link_cycles=-1).validate()
        SystemConfig(link_cycles=0).validate()  # express links ok

    def test_rejects_bad_load_dep_prob(self):
        with pytest.raises(ConfigError):
            SystemConfig(load_dep_prob=1.5).validate()
        with pytest.raises(ConfigError):
            SystemConfig(load_dep_prob=-0.1).validate()

    def test_rejects_untileable_region_grid(self):
        # 5 regions cannot tile a 8x8 bank layer into rectangles.
        with pytest.raises(ConfigError):
            SystemConfig(mesh_width=8, n_region_tsbs=5).validate()

    def test_rejects_hybrid_ways_at_associativity(self):
        with pytest.raises(ConfigError):
            SystemConfig(hybrid_sram_ways=16, l2_associativity=16) \
                .validate()
        SystemConfig(hybrid_sram_ways=2, l2_associativity=16).validate()

    def test_rejects_bad_write_termination_fraction(self):
        with pytest.raises(ConfigError):
            SystemConfig(write_termination_min_fraction=0.0).validate()
        with pytest.raises(ConfigError):
            SystemConfig(write_termination_min_fraction=1.2).validate()


class TestParseScheme:
    def test_accepts_labels_case_insensitively(self):
        assert parse_scheme("SRAM-64TSB") is Scheme.SRAM_64TSB
        assert parse_scheme("mram-4tsb") is Scheme.STTRAM_4TSB
        assert parse_scheme("MRAM-4TSB-WB") is Scheme.STTRAM_4TSB_WB

    def test_accepts_enum_names(self):
        assert parse_scheme("STTRAM_4TSB_RCA") is Scheme.STTRAM_4TSB_RCA
        assert parse_scheme("sram_64tsb") is Scheme.SRAM_64TSB

    def test_rejects_unknown_label_with_catalogue(self):
        with pytest.raises(ConfigError) as err:
            parse_scheme("BOGUS")
        # The error names the valid labels so the CLI message is usable.
        assert Scheme.SRAM_64TSB.value in str(err.value)


class TestCLIExitCodes:
    """ReproError anywhere under a CLI command exits 2, not a
    traceback (the contract scripts and CI gates rely on)."""

    def test_impossible_config_exits_2(self, capsys):
        from repro.cli import main

        rc = main(["run", "--app", "x264", "--mesh-width", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_sweep_scheme_exits_2(self, capsys):
        from repro.cli import main

        rc = main(["sweep", "--apps", "x264", "--schemes", "BOGUS",
                   "--workers", "1", "--no-cache"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestComparators:
    def test_write_buffer_helper(self):
        # BUFF-20 is the override write_buffer=WriteBufferConfig().
        cfg = make_config(Scheme.STTRAM_64TSB,
                          write_buffer=WriteBufferConfig())
        assert cfg.write_buffer is not None
        assert cfg.write_buffer.entries == 20
        assert cfg.write_buffer.read_preemption

    def test_write_buffer_custom_size(self):
        cfg = make_config(
            Scheme.STTRAM_64TSB,
            write_buffer=WriteBufferConfig(entries=8,
                                           read_preemption=False))
        assert cfg.write_buffer.entries == 8
        assert not cfg.write_buffer.read_preemption

    def test_configs_are_frozen(self):
        cfg = SystemConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.mesh_width = 4


class TestScaling:
    def test_l1_scales_gently(self):
        full = SystemConfig()
        scaled = SystemConfig(capacity_scale=1 / 64)
        assert scaled.l1_effective_bytes < full.l1_effective_bytes
        # sqrt scaling: 1/8 of full size, not 1/64
        assert scaled.l1_effective_bytes == full.l1_bytes // 8

    def test_l2_scaled_capacity_floor(self):
        cfg = SystemConfig(capacity_scale=1e-6).validate()
        assert cfg.l2_bank_bytes >= cfg.block_bytes * cfg.l2_associativity

    def test_sram_equivalent_identical_across_technologies(self):
        sram = make_config(Scheme.SRAM_64TSB, capacity_scale=1 / 16)
        stt = make_config(Scheme.STTRAM_64TSB, capacity_scale=1 / 16)
        assert (sram.sram_equivalent_bank_bytes
                == stt.sram_equivalent_bank_bytes)
