"""The paper's 42-application characterisation (Table 3).

Each application is described by its L1 misses, L2 misses, L2 writes and
L2 reads per kilo-instruction, plus a burstiness class ("High"/"Low"
based on the latency between two consecutive requests to an L2 bank).
These are the paper's own measured numbers for applications running alone
on the baseline CMP with an STT-RAM L2, and they fully parameterise the
synthetic access streams in :mod:`repro.workloads.synthetic`.

Note the identity visible in Table 3: ``l1mpki == l2wpki + l2rpki`` --
every L1 miss turns into exactly one L2 access, classified as a read
(demand fetch) or a write (write-back).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import WorkloadError

SERVER = "server"
PARSEC = "parsec"
SPEC = "spec"


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table 3 row."""

    name: str
    suite: str
    l1mpki: float
    l2mpki: float
    l2wpki: float
    l2rpki: float
    bursty: bool
    #: True for workloads with a shared address space (threads of one
    #: application); multi-programmed SPEC copies are private.
    shared: bool

    @property
    def write_fraction(self) -> float:
        """Fraction of L2 accesses that are writes (write-backs)."""
        if self.l1mpki <= 0:
            return 0.0
        return min(0.95, self.l2wpki / self.l1mpki)

    @property
    def read_intensive(self) -> bool:
        return self.l2rpki > 2.0 * self.l2wpki

    @property
    def write_intensive(self) -> bool:
        return self.l2wpki >= self.l2rpki


def _spec_row(name, suite, l1, l2m, l2w, l2r, bursty):
    return BenchmarkSpec(
        name=name, suite=suite, l1mpki=l1, l2mpki=l2m, l2wpki=l2w,
        l2rpki=l2r, bursty=(bursty == "High"),
        shared=(suite in (SERVER, PARSEC)),
    )


#: Table 3, transcribed row by row.
_TABLE3: Tuple[BenchmarkSpec, ...] = (
    _spec_row("tpcc", SERVER, 51.47, 6.06, 40.9, 10.57, "High"),
    _spec_row("sjas", SERVER, 41.54, 4.48, 35.06, 6.48, "High"),
    _spec_row("sap", SERVER, 29.91, 3.84, 23.57, 6.15, "High"),
    _spec_row("sjbb", SERVER, 25.52, 7.01, 19.42, 6.09, "High"),
    _spec_row("sclust", PARSEC, 29.28, 8.34, 15.23, 14.05, "High"),
    _spec_row("vips", PARSEC, 13.51, 8.07, 6.61, 6.89, "High"),
    _spec_row("canneal", PARSEC, 12.8, 5.47, 6.52, 6.27, "Low"),
    _spec_row("dedup", PARSEC, 12.8, 4.59, 7.42, 5.36, "High"),
    _spec_row("ferret", PARSEC, 11.62, 9.16, 6.39, 5.22, "Low"),
    _spec_row("facesim", PARSEC, 10.62, 6.82, 6.15, 4.46, "Low"),
    _spec_row("swptns", PARSEC, 5.47, 6.35, 2.46, 3.00, "Low"),
    _spec_row("bscls", PARSEC, 5.29, 3.73, 2.80, 2.48, "Low"),
    _spec_row("bdtrk", PARSEC, 5.62, 5.71, 2.81, 2.81, "Low"),
    _spec_row("rtrce", PARSEC, 5.65, 4.98, 3.62, 2.03, "Low"),
    _spec_row("x264", PARSEC, 4.17, 4.62, 1.87, 2.29, "Low"),
    _spec_row("fldnmt", PARSEC, 4.89, 4.41, 2.68, 2.2, "Low"),
    _spec_row("frqmn", PARSEC, 2.29, 3.96, 1.31, 0.98, "Low"),
    _spec_row("gemsfdtd", SPEC, 104.04, 94.62, 0.8, 103.23, "Low"),
    _spec_row("mcf", SPEC, 99.81, 64.47, 5.45, 94.37, "Low"),
    _spec_row("soplex", SPEC, 48.54, 16.88, 19.59, 28.95, "Low"),
    _spec_row("cactus", SPEC, 43.81, 15.64, 18.65, 25.16, "Low"),
    _spec_row("lbm", SPEC, 36.49, 18.88, 30.76, 5.73, "High"),
    _spec_row("hmmer", SPEC, 34.36, 3.31, 12.5, 21.86, "High"),
    _spec_row("xalancbmk", SPEC, 29.7, 21.07, 3.02, 26.68, "Low"),
    _spec_row("leslie", SPEC, 26.09, 18.06, 7.65, 18.45, "Low"),
    _spec_row("sphinx", SPEC, 25.55, 10.91, 0.97, 24.58, "High"),
    _spec_row("gobmk", SPEC, 22.81, 8.68, 8.02, 14.79, "High"),
    _spec_row("astar", SPEC, 20.03, 4.21, 6.11, 13.92, "Low"),
    _spec_row("bzip2", SPEC, 19.29, 10.02, 2.66, 16.63, "High"),
    _spec_row("milc", SPEC, 19.12, 18.67, 0.05, 19.06, "Low"),
    _spec_row("libquantum", SPEC, 12.5, 12.5, 0.0, 12.5, "Low"),
    _spec_row("omnetpp", SPEC, 10.92, 10.15, 0.25, 10.67, "Low"),
    _spec_row("povray", SPEC, 9.63, 7.86, 0.88, 8.75, "High"),
    _spec_row("gcc", SPEC, 9.39, 8.51, 0.06, 9.34, "High"),
    _spec_row("namd", SPEC, 8.85, 5.11, 0.65, 8.19, "High"),
    _spec_row("gromacs", SPEC, 5.36, 3.18, 0.32, 5.05, "High"),
    _spec_row("tonto", SPEC, 5.26, 0.55, 3.52, 1.74, "High"),
    _spec_row("h264", SPEC, 4.81, 2.74, 2.03, 2.78, "High"),
    _spec_row("dealII", SPEC, 4.41, 2.36, 0.35, 4.06, "High"),
    _spec_row("sjeng", SPEC, 3.93, 2.0, 0.92, 3.01, "Low"),
    _spec_row("wrf", SPEC, 1.8, 0.75, 0.88, 0.92, "Low"),
    _spec_row("calculix", SPEC, 0.33, 0.23, 0.03, 0.29, "Low"),
)

BENCHMARKS: Dict[str, BenchmarkSpec] = {b.name: b for b in _TABLE3}

#: Aliases used in the paper's prose and figures.
_ALIASES = {
    "streamcluster": "sclust",
    "swaptions": "swptns",
    "blackscholes": "bscls",
    "bodytrack": "bdtrk",
    "raytrace": "rtrce",
    "fluidanimate": "fldnmt",
    "freqmine": "frqmn",
    "sphinx3": "sphinx",
    "libqntm": "libquantum",
    "gems": "gemsfdtd",
    "xalan": "xalancbmk",
    "omnet": "omnetpp",
    "bzip": "bzip2",
}


_BY_LOWER = {b.name.lower(): b for b in _TABLE3}


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look a benchmark up by Table 3 name (case-insensitive) or alias."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    spec = _BY_LOWER.get(key)
    if spec is None:
        raise WorkloadError(f"unknown benchmark {name!r}")
    return spec


def suite_benchmarks(suite: str) -> List[BenchmarkSpec]:
    """All Table 3 entries of one suite (server / parsec / spec)."""
    if suite not in (SERVER, PARSEC, SPEC):
        raise WorkloadError(f"unknown suite {suite!r}")
    return [b for b in _TABLE3 if b.suite == suite]


def all_benchmarks() -> List[BenchmarkSpec]:
    return list(_TABLE3)


def characterization_table() -> List[dict]:
    """Rows for regenerating Table 3 from the spec data."""
    return [
        {
            "benchmark": b.name,
            "suite": b.suite,
            "l1mpki": b.l1mpki,
            "l2mpki": b.l2mpki,
            "l2wpki": b.l2wpki,
            "l2rpki": b.l2rpki,
            "bursty": "High" if b.bursty else "Low",
        }
        for b in _TABLE3
    ]
