"""Tests for the analysis module (Figures 3 and 7 tooling)."""

import pytest

from repro.analysis.access_dist import (
    FIG3_BINS, access_distribution, average_requests_at_distance,
    distribution_for_app,
)
from repro.analysis.breakdown import (
    LatencyBreakdown, normalized_breakdowns,
)
from repro.analysis.tables import (
    format_histogram, format_table, normalized_series,
)
from repro.sim.config import Scheme
from repro.sim.parallel import SweepPoint, build_simulator


class TestAccessDistribution:
    def test_bins_match_paper(self):
        assert FIG3_BINS == (16, 33, 66, 99, 132, 165)

    def test_gap_binning(self):
        # One bank: write at 0, accesses at 5 (bin<16), 40 (bin<66),
        # 400 (165+).
        log = [(0, True), (5, False), (40, False), (400, False)]
        dist = access_distribution([log])
        assert dist.total_accesses == 3
        assert dist.counts[0] == 1   # <16
        assert dist.counts[2] == 1   # <66
        assert dist.counts[-1] == 1  # 165+
        assert dist.writes == 1

    def test_gap_measured_from_latest_write(self):
        log = [(0, True), (100, True), (110, False)]
        dist = access_distribution([log])
        # The read is 10 cycles after the *second* write.
        assert dist.counts[0] == 1

    def test_accesses_before_any_write_ignored(self):
        log = [(0, False), (5, False), (10, True), (12, False)]
        dist = access_distribution([log])
        assert dist.total_accesses == 1

    def test_queued_fraction(self):
        log = [(0, True), (5, False), (20, False), (200, False)]
        dist = access_distribution([log])
        # Two of three accesses arrive within the 33-cycle service.
        assert dist.queued_fraction(33) == pytest.approx(2 / 3)

    def test_percentages_sum_to_100(self):
        log = [(0, True)] + [(i * 7, False) for i in range(1, 30)]
        dist = access_distribution([log])
        assert sum(dist.percentages) == pytest.approx(100.0)

    def test_empty_logs(self):
        dist = access_distribution([[], []])
        assert dist.total_accesses == 0
        assert dist.queued_fraction() == 0.0
        assert dist.percentages == [0.0] * 7

    def test_bursty_app_has_higher_queued_fraction(self):
        def point(app):
            return SweepPoint.build(
                app, Scheme.STTRAM_64TSB, 1500, 600, 1,
                {"mesh_width": 4, "capacity_scale": 1 / 64})

        bursty = distribution_for_app(point("tpcc"))
        calm = distribution_for_app(point("mcf"))
        assert bursty.queued_fraction() > calm.queued_fraction()


class TestRequestsAtDistance:
    def test_sampling_after_a_run_matches_the_dense_oracle(self):
        """Figure 3 samples router contents right after ``run``: the
        sampled traffic must be the oracle's on the event schedule."""
        point = SweepPoint.build(
            "tpcc", Scheme.STTRAM_64TSB, 600, 200, 1,
            {"mesh_width": 4, "capacity_scale": 1 / 64})
        values = []
        for scheduler in ("dense", "event"):
            sim = build_simulator(point, scheduler=scheduler)
            sim.run(point.cycles, warmup=point.warmup)
            values.append(average_requests_at_distance(
                sim, hops=2, samples=40, interval=5))
        assert values[0] > 0
        assert values[1] == values[0]


class TestBreakdown:
    def test_percentages(self):
        b = LatencyBreakdown(network_latency=30, queuing_latency=70)
        pct = b.percentages()
        assert pct["network"] == pytest.approx(30.0)
        assert pct["queuing"] == pytest.approx(70.0)
        assert b.total == 100

    def test_zero_total(self):
        b = LatencyBreakdown(0.0, 0.0)
        assert b.percentages() == {"network": 0.0, "queuing": 0.0}

    def test_normalized_breakdowns(self):
        class R:
            def __init__(self, net, queue):
                self._net, self._q = net, queue

            def latency_breakdown(self):
                return {"network_latency": self._net,
                        "bank_queuing_latency": self._q}

        results = {"base": R(40, 60), "better": R(40, 30)}
        series = normalized_breakdowns(results, "base")
        assert series["base"]["queuing"] == pytest.approx(60.0)
        # Queuing halved relative to baseline.
        assert series["better"]["queuing"] == pytest.approx(30.0)
        assert series["better"]["network"] == pytest.approx(40.0)


class TestTables:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 3.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.500" in text

    def test_normalized_series(self):
        series = normalized_series({"x": 2.0, "y": 4.0}, lambda v: v)
        assert series == {"x": 1.0, "y": 2.0}

    def test_normalized_series_empty(self):
        assert normalized_series({}, lambda v: v) == {}

    def test_format_histogram(self):
        text = format_histogram(["16", "33"], [10.0, 20.0], title="H")
        assert text.startswith("H")
        assert "20.0%" in text
