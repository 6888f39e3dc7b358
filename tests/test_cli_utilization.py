"""Tests for the CLI and the link-utilisation probe."""

import json

import pytest

from repro.analysis.utilization import LinkUtilizationProbe
from repro.cli import main
from repro.sim.config import Scheme, make_config
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous

FAST = ["--mesh-width", "4", "--capacity-scale", "0.015625",
        "--cycles", "400", "--warmup", "150"]


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "MRAM-4TSB-WB" in out
        assert "tpcc" in out
        assert "libquantum" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "tpcc" in out and "51.47" in out

    def test_run_human_readable(self, capsys):
        assert main(["run", "--app", "x264",
                     "--scheme", "MRAM-64TSB"] + FAST) == 0
        out = capsys.readouterr().out
        assert "instruction_throughput" in out

    def test_run_json(self, capsys):
        assert main(["run", "--app", "x264", "--scheme", "SRAM-64TSB",
                     "--json"] + FAST) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cycles"] == 400
        assert data["instruction_throughput"] > 0
        assert "x264" in data["ipc_by_app"]

    def test_compare(self, capsys):
        assert main(["compare", "--app", "x264"] + FAST) == 0
        out = capsys.readouterr().out
        for scheme in ("SRAM-64TSB", "MRAM-4TSB-WB"):
            assert scheme in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--app", "tpcc"] + FAST) == 0
        out = capsys.readouterr().out
        assert "queued" in out
        assert "165+" in out

    def test_fig3_honours_seed(self, capsys):
        outputs = []
        for seed in ("1", "2"):
            assert main(["fig3", "--app", "tpcc", "--seed", seed]
                        + FAST) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--app", "tpcc", "--scheme", "bogus"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestUtilizationProbe:
    def _probed_sim(self, scheme):
        cfg = make_config(scheme, mesh_width=4, capacity_scale=1 / 64)
        sim = CMPSimulator(cfg, homogeneous("tpcc", cfg))
        probe = LinkUtilizationProbe(sim)
        sim.step(600)
        return sim, probe

    def test_counts_flits(self):
        sim, probe = self._probed_sim(Scheme.STTRAM_64TSB)
        assert probe.flit_counts
        assert probe.cycles_observed > 0
        total = sum(probe.flit_counts.values())
        assert total > 0

    def test_utilization_bounded(self):
        _sim, probe = self._probed_sim(Scheme.STTRAM_64TSB)
        for sample in probe.samples():
            assert 0.0 <= sample.utilization <= 1.2  # combining can
            # push TSB links slightly above 1 flit/cycle equivalent

    def test_hottest_sorted(self):
        _sim, probe = self._probed_sim(Scheme.STTRAM_64TSB)
        hottest = probe.hottest(5)
        values = [s.utilization for s in hottest]
        assert values == sorted(values, reverse=True)

    def test_restricted_routing_concentrates_traffic(self):
        _sim64, probe64 = self._probed_sim(Scheme.STTRAM_64TSB)
        _sim4, probe4 = self._probed_sim(Scheme.STTRAM_4TSB)
        # The 4-TSB restriction concentrates requests: its hottest link
        # beats the unrestricted design's.
        assert probe4.hottest(1)[0].utilization \
            >= 0.9 * probe64.hottest(1)[0].utilization

    def test_window_matches_the_run_it_observes(self):
        """A probe created mid-run counts exactly the window after it:
        every flit sent over a link (ejections are not link traffic)
        and every cycle advanced."""
        cfg = make_config(Scheme.STTRAM_64TSB, mesh_width=4,
                          capacity_scale=1 / 64)
        sim = CMPSimulator(cfg, homogeneous("tpcc", cfg, seed=1))
        sim.step(300)
        probe = LinkUtilizationProbe(sim)
        result = sim.run(600)
        assert result.flits_forwarded > 0
        assert sum(probe.flit_counts.values()) == result.flits_forwarded
        assert probe.cycles_observed == result.cycles == 600

    def test_labels_and_layer_average(self):
        sim, probe = self._probed_sim(Scheme.STTRAM_64TSB)
        sample = probe.hottest(1)[0]
        label = sample.label(sim.topo)
        assert label.startswith("L")
        avg0 = probe.layer_average(sim.topo, 0)
        avg1 = probe.layer_average(sim.topo, 1)
        assert avg0 >= 0 and avg1 >= 0
        assert probe.saturation_count(threshold=0.0) \
            == len(probe.samples())
