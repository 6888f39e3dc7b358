"""Workload construction: homogeneous runs and the Case 1-3 mixes.

Section 4.2 evaluates three multi-programmed scenarios:

* **Case 1**: 16 copies each of four write-intensive applications
  (soplex, cactus, lbm, hmmer) -- the worst case for a naive SRAM to
  STT-RAM swap.
* **Case 2**: 16 copies each of two bursty+write-intensive (lbm, hmmer)
  and two read-intensive (bzip2, libquantum) applications -- the
  fairness study (Figure 10).
* **Case 3**: 32 mixes of 8 applications x 8 copies, spread across
  read-intensive, write-intensive and balanced categories.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Optional, Sequence

from repro.cpu.trace import AccessStream
from repro.errors import WorkloadError
from repro.sim.config import SystemConfig
from repro.workloads.benchmarks import (
    BenchmarkSpec, all_benchmarks, get_benchmark,
)
from repro.workloads.synthetic import SyntheticStream

CASE1_APPS = ("soplex", "cactus", "lbm", "hmmer")
CASE2_APPS = ("lbm", "hmmer", "bzip2", "libquantum")

#: Shared-pool size (blocks) for shared-memory applications, scaled to
#: the L2 so the pool is L2-resident but far exceeds any L1.
SHARED_POOL_L2_FRACTION = 0.25


class Workload:
    """Per-core access streams plus bookkeeping for metrics.

    Attributes:
        streams: One :class:`AccessStream` per core.
        app_of_core: Benchmark name running on each core.
        name: Human-readable workload label.
    """

    def __init__(self, streams: List[AccessStream],
                 app_of_core: List[str], name: str):
        if len(streams) != len(app_of_core):
            raise WorkloadError("streams/app list length mismatch")
        self.streams = streams
        self.app_of_core = app_of_core
        self.name = name

    @property
    def n_cores(self) -> int:
        return len(self.streams)

    def cores_of_app(self, app: str) -> List[int]:
        return [i for i, a in enumerate(self.app_of_core) if a == app]

    def apps(self) -> List[str]:
        seen: List[str] = []
        for app in self.app_of_core:
            if app not in seen:
                seen.append(app)
        return seen


def _shared_pool_blocks(config: SystemConfig) -> int:
    total_l2_blocks = (
        config.n_banks * config.l2_bank_bytes // config.block_bytes
    )
    return max(128, int(total_l2_blocks * SHARED_POOL_L2_FRACTION))


def make_stream(spec: BenchmarkSpec, core: int, config: SystemConfig,
                seed: int) -> SyntheticStream:
    """Build the canonical synthetic stream for one (app, core) slot."""
    shared_blocks = _shared_pool_blocks(config) if spec.shared else None
    return SyntheticStream(
        spec, core, config, seed=seed, shared_pool_blocks=shared_blocks,
    )


def homogeneous(app: str, config: SystemConfig, seed: int = 1) -> Workload:
    """All cores run (copies/threads of) one application.

    For shared applications (server/PARSEC) the copies share an address
    pool, modelling one multi-threaded process; SPEC copies are private
    (the paper's 64-copies-per-CMP methodology).
    """
    spec = get_benchmark(app)
    streams = [
        make_stream(spec, core, config, seed)
        for core in range(config.n_cores)
    ]
    return Workload(streams, [spec.name] * config.n_cores, spec.name)


def mix(apps: Sequence[str], config: SystemConfig, seed: int = 1,
        name: Optional[str] = None) -> Workload:
    """Evenly interleave several applications across the cores."""
    if not apps:
        raise WorkloadError("empty application mix")
    specs = [get_benchmark(a) for a in apps]
    streams: List[AccessStream] = []
    app_of_core: List[str] = []
    for core in range(config.n_cores):
        spec = specs[core % len(specs)]
        streams.append(make_stream(spec, core, config, seed))
        app_of_core.append(spec.name)
    return Workload(
        streams, app_of_core, name or "+".join(s.name for s in specs)
    )


def case1(config: SystemConfig, seed: int = 1) -> Workload:
    """Worst case: four co-scheduled write-intensive applications."""
    return mix(CASE1_APPS, config, seed, name="case1")


def case2(config: SystemConfig, seed: int = 1) -> Workload:
    """Bursty write-intensive + read-intensive fairness mix."""
    return mix(CASE2_APPS, config, seed, name="case2")


def case3_mixes(config: SystemConfig, n_mixes: int = 32,
                apps_per_mix: int = 8, seed: int = 7) -> List[Workload]:
    """The paper's 32 random mixes spread over the design space.

    8 mixes are read-intensive, 8 write-intensive and the rest draw from
    the full benchmark set (read + write + compute intensive).
    """
    rng = random.Random(seed)
    pool = all_benchmarks()
    read_heavy = [b.name for b in pool if b.read_intensive]
    write_heavy = [b.name for b in pool if b.write_intensive]
    everything = [b.name for b in pool]
    workloads = []
    for i in range(n_mixes):
        if i < n_mixes // 4:
            source, tag = read_heavy, "read"
        elif i < n_mixes // 2:
            source, tag = write_heavy, "write"
        else:
            source, tag = everything, "mixed"
        k = min(apps_per_mix, len(source))
        chosen = rng.sample(source, k)
        workloads.append(
            mix(chosen, config, seed=seed + i, name=f"case3-{tag}-{i}")
        )
    return workloads


def make_workload(name: str, config: SystemConfig, seed: int = 1) -> Workload:
    """The registry of workload names a sweep point can carry.

    ``name`` is a Table 3 application run on every core, ``case1``,
    ``case2``, or ``case3-<n_mixes>x<apps_per_mix>-<index>``, which is
    ``case3_mixes(config, n_mixes, apps_per_mix, seed)[index]``.  A
    malformed or out-of-range Case 3 name, like an unknown application,
    raises :class:`~repro.errors.WorkloadError`.
    """
    if name in ("case1", "case2"):
        return (case1 if name == "case1" else case2)(config, seed)
    match = re.fullmatch(r"case3-(\d+)x(\d+)-(\d+)", name)
    if match:
        n_mixes, apps_per_mix, index = map(int, match.groups())
        if index < n_mixes:
            return case3_mixes(config, n_mixes, apps_per_mix, seed)[index]
    if name.startswith("case3-"):
        raise WorkloadError(
            f"bad Case 3 workload {name!r}: expected "
            "case3-<n_mixes>x<apps_per_mix>-<index>, index < n_mixes")
    return homogeneous(name, config, seed)
