"""Tests for the Section 4.1 system metrics (Eqs. 1-3)."""

import pytest

from repro.sim.metrics import (
    geometric_mean, instruction_throughput, max_slowdown, slowdowns,
    slowest_ipc, weighted_speedup,
)


class TestInstructionThroughput:
    def test_sum(self):
        assert instruction_throughput([0.5, 0.25, 0.25]) == 1.0

    def test_empty(self):
        assert instruction_throughput([]) == 0.0

    def test_folds_in_core_order(self):
        # A compensated sum (builtin sum() on Python >= 3.12) gives 1.0.
        assert instruction_throughput([1e16, 1.0, -1e16]) == 0.0


class TestWeightedSpeedup:
    def test_equal_means_count(self):
        shared = {"a": 0.5, "b": 0.8}
        assert weighted_speedup(shared, shared) == pytest.approx(2.0)

    def test_half_speed(self):
        shared = {"a": 0.25}
        alone = {"a": 0.5}
        assert weighted_speedup(shared, alone) == pytest.approx(0.5)

    def test_missing_alone_raises(self):
        with pytest.raises(KeyError):
            weighted_speedup({"a": 1.0}, {})

    def test_zero_alone_skipped(self):
        assert weighted_speedup({"a": 1.0}, {"a": 0.0}) == 0.0


class TestSlowdown:
    def test_per_app_slowdowns(self):
        shared = {"a": 0.25, "b": 0.5}
        alone = {"a": 0.5, "b": 0.5}
        s = slowdowns(shared, alone)
        assert s["a"] == pytest.approx(2.0)
        assert s["b"] == pytest.approx(1.0)

    def test_max_slowdown(self):
        shared = {"a": 0.25, "b": 0.5}
        alone = {"a": 0.5, "b": 0.5}
        assert max_slowdown(shared, alone) == pytest.approx(2.0)

    def test_stalled_app_is_infinite(self):
        assert max_slowdown({"a": 0.0}, {"a": 1.0}) == float("inf")

    def test_empty(self):
        assert max_slowdown({}, {}) == 0.0


class TestHelpers:
    def test_slowest_ipc(self):
        assert slowest_ipc([0.9, 0.2, 0.5]) == 0.2
        assert slowest_ipc([]) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)
