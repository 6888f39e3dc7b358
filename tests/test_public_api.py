"""The public API surface: everything README/examples rely on."""

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_scheme_values_match_paper_labels(self):
        labels = [s.value for s in repro.ALL_SCHEMES]
        assert labels == [
            "SRAM-64TSB", "MRAM-64TSB", "MRAM-4TSB", "MRAM-4TSB-SS",
            "MRAM-4TSB-RCA", "MRAM-4TSB-WB",
        ]

    def test_quickstart_snippet_shape(self):
        # The snippet from the package docstring / README, on a shorter
        # window and two of the six schemes.
        sweep = repro.run_sweep(repro.SweepGrid(
            apps=["x264"],
            schemes=(repro.Scheme.SRAM_64TSB,
                     repro.Scheme.STTRAM_4TSB_WB),
            cycles=300, warmup=100,
            overrides=dict(mesh_width=4, capacity_scale=1 / 64),
        ))
        series = sweep.normalized("instruction_throughput", "SRAM-64TSB")
        assert set(series["x264"]) == {"SRAM-64TSB", "MRAM-4TSB-WB"}
        assert series["x264"]["SRAM-64TSB"] == 1.0

    def test_subpackage_exports(self):
        from repro import analysis, cache, core, cpu, noc, workloads

        for module in (analysis, cache, core, cpu, noc, workloads):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_make_config_roundtrip_through_public_names(self):
        cfg = repro.make_config(repro.Scheme.STTRAM_4TSB_WB,
                                mesh_width=4)
        assert cfg.estimator is repro.Estimator.WINDOW
        buffered = repro.make_config(
            repro.Scheme.STTRAM_64TSB,
            write_buffer=repro.WriteBufferConfig(entries=20))
        assert buffered.write_buffer.entries == 20
