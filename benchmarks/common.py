"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper at the
paper's full 8x8x2 mesh, with the L2 capacity (and the synthetic working
sets with it) scaled by ``CAPACITY_SCALE`` and a measurement window of
``CYCLES`` cycles after ``WARMUP`` -- a pure-Python cycle simulator
cannot run 50M instructions per core (see DESIGN.md, "Substitutions").

Every run is a :class:`~repro.sim.parallel.SweepPoint` built by
``build_simulator``; results are memoised per point, so the figures
that share scenario runs (6, 7, 8) pay for them once.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.config import Scheme
from repro.sim.parallel import SweepPoint, build_simulator
from repro.sim.results import SimulationResult

MESH_WIDTH = 8
CAPACITY_SCALE = 1 / 16
CYCLES = 2500
WARMUP = 1000
SEED = 1

#: Application subsets used for the figure reproductions (the paper
#: plots more columns of the same suites; these span the read/write and
#: bursty/calm corners).
SERVER_APPS = ("tpcc", "sjas", "sap", "sjbb")
PARSEC_APPS = ("sclust", "ferret", "canneal", "x264")
SPEC_APPS = ("lbm", "hmmer", "mcf", "libquantum")

_results: Dict[SweepPoint, SimulationResult] = {}


def point(scheme: Scheme, workload: str, seed: int = SEED,
          **overrides) -> SweepPoint:
    """One figure-scale point; ``workload`` is any name
    :func:`repro.workloads.make_workload` knows."""
    params = dict(mesh_width=MESH_WIDTH, capacity_scale=CAPACITY_SCALE)
    params.update(overrides)
    return SweepPoint.build(workload, scheme, CYCLES, WARMUP, seed, params)


def run(scheme: Scheme, workload: str, seed: int = SEED,
        **overrides) -> SimulationResult:
    """Run one workload under one scheme (memoised by its point)."""
    spec = point(scheme, workload, seed, **overrides)
    result = _results.get(spec)
    if result is None:
        sim = build_simulator(spec)
        result = _results[spec] = sim.run(spec.cycles, warmup=spec.warmup)
    return result


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
