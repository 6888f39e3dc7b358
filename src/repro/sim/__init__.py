"""Simulator assembly, configuration, metrics and sweeps."""

from repro.sim.config import (
    ALL_SCHEMES, CacheTechnology, Estimator, Scheme, SystemConfig,
    TSBPlacement, WriteBufferConfig, make_config, parse_scheme,
)
from repro.sim.guard import GuardConfig, InvariantGuard
from repro.sim.metrics import (
    instruction_throughput, max_slowdown, slowdowns, weighted_speedup,
)
from repro.sim.parallel import (
    SweepCache, SweepPoint, SweepRunStats,
    build_simulator, code_version, default_cache_dir, run_points,
)
from repro.sim.results import SimulationResult
from repro.sim.simulator import CMPSimulator
from repro.sim.sweep import SweepGrid, SweepResults, run_sweep


def reset_state() -> None:
    """Reset module-global simulation state between independent runs.

    The simulator keeps almost all state per-instance; the one
    process-wide global is the monotonically increasing packet-id
    counter (``repro.noc.packet``), which makes packet ids depend on
    every simulation constructed earlier in the process.
    :func:`build_simulator` and ``bench/specs.py`` call this before each
    build so seeded simulations are bit-identical no matter what ran
    before them.
    """
    from repro.noc.packet import reset_packet_ids

    reset_packet_ids()


__all__ = [
    "SystemConfig", "Scheme", "ALL_SCHEMES", "CacheTechnology",
    "Estimator", "TSBPlacement", "WriteBufferConfig", "make_config",
    "parse_scheme", "CMPSimulator", "GuardConfig", "InvariantGuard",
    "SimulationResult", "build_simulator", "instruction_throughput",
    "weighted_speedup", "max_slowdown", "slowdowns", "SweepGrid",
    "SweepResults", "run_sweep", "SweepPoint", "SweepCache",
    "SweepRunStats", "run_points", "code_version", "default_cache_dir",
    "reset_state",
]
