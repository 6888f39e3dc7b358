#!/usr/bin/env python3
"""Multi-app scheme comparison through the parallel sweep engine.

Runs the same apps x schemes grid twice -- first against a cold
content-addressed result cache (simulating every point, fanned out
across a process pool), then again against the warm cache (no
simulation at all) -- and prints the timing of both alongside the
paper-style normalised throughput table.

Usage:
    python examples/parallel_sweep.py [workers] [cache_dir]
"""

import argparse
import tempfile

from repro import ALL_SCHEMES, Scheme
from repro.analysis.tables import format_table
from repro.sim.parallel import SweepRunStats
from repro.sim.sweep import SweepGrid, run_sweep


def timed_run(grid, label, workers, cache_dir):
    stats = SweepRunStats()
    sweep = run_sweep(grid, workers=workers, cache=True,
                      cache_dir=cache_dir, stats=stats)
    print(
        f"{label:14s} {stats.points} points in "
        f"{stats.wall_seconds:6.2f}s  ({stats.points_per_sec:8.2f} "
        f"points/sec, {stats.cache_hits} cached, "
        f"{stats.simulated} simulated, workers={stats.workers})"
    )
    return sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workers", nargs="?", type=int, default=0,
                        help="pool size (0 = one per CPU)")
    parser.add_argument("cache_dir", nargs="?", default=None)
    args = parser.parse_args()

    grid = SweepGrid(
        apps=["tpcc", "sclust", "mcf", "hmmer"],
        schemes=ALL_SCHEMES,
        cycles=2000, warmup=800,
        overrides={"mesh_width": 4, "capacity_scale": 1 / 64},
    )

    ctx = (tempfile.TemporaryDirectory(prefix="repro-sweep-")
           if args.cache_dir is None else None)
    root = args.cache_dir if ctx is None else ctx.name
    try:
        cold = timed_run(grid, "cold cache", args.workers, root)
        warm = timed_run(grid, "warm cache", args.workers, root)
        assert warm.fingerprint() == cold.fingerprint(), (
            "cache replay must be byte-identical"
        )

        norm = warm.normalized("instruction_throughput",
                               baseline=Scheme.SRAM_64TSB.value)
        rows = [
            [app] + [round(norm[app][s], 3) for s in warm.schemes()]
            for app in warm.apps()
        ]
        print()
        print(format_table(["app"] + warm.schemes(), rows,
                           title="throughput normalised to SRAM-64TSB"))
    finally:
        if ctx is not None:
            ctx.cleanup()


if __name__ == "__main__":
    main()
