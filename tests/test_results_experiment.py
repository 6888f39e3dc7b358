"""Tests for SimulationResult derivations."""

import pytest

from repro.sim.config import Scheme
from repro.sim.parallel import SweepPoint, build_simulator

FAST = dict(mesh_width=4, capacity_scale=1 / 64)


@pytest.fixture(scope="module")
def result():
    point = SweepPoint.build("sclust", Scheme.STTRAM_64TSB, 900, 400, 1,
                             FAST)
    return build_simulator(point).run(point.cycles, warmup=point.warmup)


class TestSimulationResult:
    def test_ipc_consistency(self, result):
        assert result.instruction_throughput() == pytest.approx(
            sum(result.ipc))
        assert result.slowest_ipc() == min(result.ipc)
        assert result.total_instructions() == sum(result.instructions)

    def test_ipc_by_app_single_app(self, result):
        by_app = result.ipc_by_app()
        assert list(by_app) == ["sclust"]
        assert by_app["sclust"] == pytest.approx(
            sum(result.ipc) / len(result.ipc))

    def test_l2_hit_rate_bounds(self, result):
        assert 0.0 <= result.l2_hit_rate() <= 1.0

    def test_latency_breakdown_keys(self, result):
        parts = result.latency_breakdown()
        assert set(parts) == {"network_latency", "bank_queuing_latency"}
        assert parts["network_latency"] > 0

    def test_energy_populated(self, result):
        assert result.energy is not None
        assert result.uncore_energy() > 0
        assert result.energy.cache_leakage > 0

    def test_uncore_latency_positive(self, result):
        assert result.uncore_latency() > 0

