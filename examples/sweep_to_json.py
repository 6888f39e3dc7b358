#!/usr/bin/env python3
"""Run a scheme/application sweep and persist the results as JSON.

Demonstrates the batch-experiment API: simulate a grid once, save it,
and re-derive normalised series from the saved file without
re-simulating.

Usage:
    python examples/sweep_to_json.py [output.json]
"""

import sys

from repro import ALL_SCHEMES, Scheme
from repro.analysis.tables import format_table
from repro.sim.sweep import SweepGrid, SweepResults, run_sweep


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "sweep_results.json"
    grid = SweepGrid(
        apps=["tpcc", "sclust", "mcf"],
        schemes=ALL_SCHEMES,
        cycles=2000, warmup=800,
        overrides={"mesh_width": 8, "capacity_scale": 1 / 16},
    )
    sweep = run_sweep(
        grid,
        progress=lambda spec, source, wall_ms, worker: print(
            f"  {spec.app} / {spec.scheme.value}"),
    )
    sweep.save(path)
    print(f"saved {path}")

    # Re-load and analyse from disk only.
    loaded = SweepResults.load(path)
    norm = loaded.normalized("instruction_throughput",
                             baseline=Scheme.SRAM_64TSB.value)
    rows = [
        [app] + [round(norm[app][s], 3) for s in loaded.schemes()]
        for app in loaded.apps()
    ]
    print()
    print(format_table(["app"] + loaded.schemes(), rows,
                       title="throughput normalised to SRAM-64TSB "
                             "(from JSON)"))

    # Tail latency straight from the persisted summaries: the p99 shows
    # the bank-queueing pathology the averages smooth over.
    p99 = loaded.metric("latency_p99")
    rows = [
        [app] + [round(p99[app][s]) for s in loaded.schemes()]
        for app in loaded.apps()
    ]
    print()
    print(format_table(["app"] + loaded.schemes(), rows,
                       title="p99 packet latency in cycles (from JSON)"))


if __name__ == "__main__":
    main()
