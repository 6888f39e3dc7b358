"""repro: reproduction of "Architecting On-Chip Interconnects for
Stacked 3D STT-RAM Caches in CMPs" (Mishra et al., ISCA 2011).

A pure-Python cycle-level model of a two-layer 3D CMP -- 64 cores over
64 STT-RAM L2 cache banks connected by a wormhole-switched NoC -- plus
the paper's network-level write-latency mitigation: region/TSB
serialisation, busy-duration estimation (SS/RCA/WB) and bank-aware
router arbitration.

Quickstart::

    from repro import SweepGrid, run_sweep

    sweep = run_sweep(SweepGrid(apps=["tpcc"], overrides=dict(
        mesh_width=4, capacity_scale=1 / 64)))
    print(sweep.normalized("instruction_throughput", "SRAM-64TSB"))
"""

from repro.sim import (
    ALL_SCHEMES, CacheTechnology, CMPSimulator, Estimator, Scheme,
    SimulationResult, SweepGrid, SweepPoint, SweepResults, SystemConfig,
    TSBPlacement, WriteBufferConfig, build_simulator,
    instruction_throughput, make_config, max_slowdown, run_sweep,
    weighted_speedup,
)
from repro.workloads import (
    BenchmarkSpec, Workload, all_benchmarks, case1, case2, case3_mixes,
    get_benchmark, homogeneous, make_workload, mix, suite_benchmarks,
)

__version__ = "1.0.0"

__all__ = [
    "SystemConfig", "Scheme", "ALL_SCHEMES", "CacheTechnology",
    "Estimator", "TSBPlacement", "WriteBufferConfig", "make_config",
    "CMPSimulator", "SimulationResult", "build_simulator",
    "instruction_throughput", "weighted_speedup", "max_slowdown",
    "SweepGrid", "SweepPoint", "SweepResults", "run_sweep",
    "BenchmarkSpec", "get_benchmark", "suite_benchmarks",
    "all_benchmarks", "Workload", "homogeneous", "mix", "case1", "case2",
    "case3_mixes", "make_workload", "__version__",
]
