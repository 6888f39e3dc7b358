"""Workload characterisation (Table 3) and synthetic stream generation."""

from repro.workloads.benchmarks import (
    PARSEC, SERVER, SPEC, BenchmarkSpec, all_benchmarks,
    characterization_table, get_benchmark, suite_benchmarks,
)
from repro.workloads.mixes import (
    CASE1_APPS, CASE2_APPS, Workload, case1, case2, case3_mixes,
    homogeneous, make_workload, mix,
)
from repro.workloads.synthetic import SyntheticStream

__all__ = [
    "BenchmarkSpec", "get_benchmark", "suite_benchmarks", "all_benchmarks",
    "characterization_table", "SERVER", "PARSEC", "SPEC",
    "Workload", "homogeneous", "mix", "case1", "case2", "case3_mixes",
    "make_workload",
    "CASE1_APPS", "CASE2_APPS", "SyntheticStream",
]
