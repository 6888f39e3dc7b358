#!/usr/bin/env python3
"""Fleet telemetry end to end: spans, progress, trace.

Runs one apps x schemes grid through the parallel sweep engine with a
span collector and live progress on stderr, then shows where the wall
time went:

* a span rollup (count + total seconds per span name, parent and
  workers merged);
* the points each worker simulated, counted from its spans;
* a Chrome/Perfetto trace file with one track per worker process.

Telemetry is a pure reader: the sweep re-runs with no collector and no
progress, and the fingerprints are asserted identical.

Usage:
    python examples/sweep_telemetry.py [workers] [--progress rich]
        [--trace-out sweep-trace.json]
"""

import argparse
from collections import Counter

from repro.obs.progress import ProgressRenderer
from repro.obs.telemetry import SweepTelemetry, validate_chrome_trace
from repro.sim.parallel import SweepRunStats
from repro.sim.sweep import SweepGrid, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workers", nargs="?", type=int, default=2,
                        help="pool size (0 = one per CPU)")
    parser.add_argument("--progress", choices=("plain", "rich"),
                        default="rich")
    parser.add_argument("--trace-out", default="sweep-trace.json")
    args = parser.parse_args()

    grid = SweepGrid(
        apps=["tpcc", "sclust", "mcf", "hmmer"],
        cycles=2000, warmup=800,
        overrides={"mesh_width": 4, "capacity_scale": 1 / 64},
    )

    telemetry = SweepTelemetry()
    stats = SweepRunStats()
    sweep = run_sweep(grid, ProgressRenderer(stats, mode=args.progress),
                      workers=args.workers, cache=False, stats=stats,
                      telemetry=telemetry)

    print(f"\n{stats.points} points in {stats.wall_seconds:.2f}s "
          f"({stats.points_per_sec:.2f} points/sec, "
          f"workers={stats.workers})")

    print("\nwhere the wall time went (merged span rollup):")
    for name, roll in sorted(telemetry.rollups().items(),
                             key=lambda kv: -kv[1]["total_s"]):
        print(f"  {name:24s} x{roll['count']:<4d} "
              f"{roll['total_s']:8.3f}s")

    print("\nper-worker points "
          f"(fleet of {len(telemetry.workers())}):")
    simulated = Counter(span["worker"] for span in telemetry.spans()
                        if span["name"] == "engine.simulate")
    for pid in telemetry.workers():
        print(f"  w{pid:<11d} {simulated[pid]} points")
    assert sum(simulated.values()) == stats.simulated

    telemetry.write_chrome(args.trace_out)
    slices, tracks, errors = validate_chrome_trace(args.trace_out)
    assert not errors, errors
    print(f"\nwrote {args.trace_out}: {slices} slices on {tracks} "
          "worker tracks (load it in ui.perfetto.dev)")

    bare = run_sweep(grid, workers=args.workers, cache=False)
    assert bare.fingerprint() == sweep.fingerprint(), (
        "telemetry must be a pure reader"
    )
    print(f"\nfingerprint without a collector identical: "
          f"{sweep.fingerprint()[:16]}")


if __name__ == "__main__":
    main()
