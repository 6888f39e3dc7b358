"""Simulator assembly, configuration, metrics and experiments."""

from repro.sim.config import (
    ALL_SCHEMES, CacheTechnology, Estimator, Scheme, SystemConfig,
    TSBPlacement, WriteBufferConfig, make_config, parse_scheme,
    with_extra_vc, with_write_buffer,
)
from repro.sim.guard import GuardConfig, InvariantGuard
from repro.sim.experiment import (
    SchemeComparison, app_factory, compare_schemes, run_scheme,
    run_workload,
)
from repro.sim.metrics import (
    instruction_throughput, max_slowdown, slowdowns, weighted_speedup,
)
from repro.sim.parallel import (
    SweepCache, SweepPoint, SweepRunStats,
    code_version, default_cache_dir, run_points,
)
from repro.sim.results import SimulationResult
from repro.sim.simulator import CMPSimulator
from repro.sim.sweep import SweepGrid, SweepResults, run_sweep


def reset_state() -> None:
    """Reset module-global simulation state between independent runs.

    The simulator keeps almost all state per-instance; the one
    process-wide global is the monotonically increasing packet-id
    counter (``repro.noc.packet``), which makes packet ids depend on
    every simulation constructed earlier in the process.  Benchmarks
    and reproducibility-sensitive harnesses (``benchmarks/conftest.py``,
    ``bench/specs.py``, sweep workers) call this before each run so
    seeded simulations are bit-identical no matter what ran before them.
    """
    from repro.noc.packet import reset_packet_ids

    reset_packet_ids()


__all__ = [
    "SystemConfig", "Scheme", "ALL_SCHEMES", "CacheTechnology",
    "Estimator", "TSBPlacement", "WriteBufferConfig", "make_config",
    "parse_scheme", "with_write_buffer", "with_extra_vc",
    "CMPSimulator", "GuardConfig", "InvariantGuard",
    "SimulationResult", "SchemeComparison", "compare_schemes",
    "run_scheme", "run_workload", "app_factory",
    "instruction_throughput", "weighted_speedup", "max_slowdown",
    "slowdowns", "SweepGrid", "SweepResults", "run_sweep",
    "SweepPoint", "SweepCache", "SweepRunStats",
    "run_points", "code_version", "default_cache_dir", "reset_state",
]
