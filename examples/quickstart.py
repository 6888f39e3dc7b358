#!/usr/bin/env python3
"""Quickstart: compare the six design scenarios on one workload.

Builds the paper's two-layer 64-core / 64-bank CMP (scaled caches so it
runs in seconds), drives it with a synthetic tpcc-like workload, and
prints throughput, bank queueing and energy for every scheme normalised
to the SRAM baseline.

Usage:
    python examples/quickstart.py [app] [mesh_width]
"""

import sys

from repro import ALL_SCHEMES, Scheme, SweepGrid, run_sweep
from repro.analysis.tables import format_table


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "tpcc"
    mesh_width = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    print(f"Running {app} under all six schemes "
          f"({mesh_width}x{mesh_width} mesh per layer)...")
    sweep = run_sweep(SweepGrid(
        apps=[app], cycles=2500, warmup=1000,
        overrides=dict(mesh_width=mesh_width, capacity_scale=1 / 16),
    ))

    baseline = Scheme.SRAM_64TSB.value
    throughput = sweep.normalized("instruction_throughput", baseline)[app]
    energy = sweep.normalized("uncore_energy_j", baseline)[app]
    results = sweep.data[app]
    rows = []
    for scheme in ALL_SCHEMES:
        label = scheme.value
        result = results[label]
        rows.append([
            label,
            round(throughput[label], 3),
            round(result["avg_bank_queue_wait"], 1),
            round(result["avg_packet_latency"], 1),
            round(result["latency_p95"]),
            round(result["latency_p99"]),
            result["delayed_cycle_sum"],
            round(energy[label], 3),
        ])
    print()
    print(format_table(
        ["scheme", "throughput", "bank queue (cyc)", "pkt latency",
         "p95", "p99", "delayed cyc", "energy"],
        rows,
        title=f"{app}: normalised to {Scheme.SRAM_64TSB.value}",
    ))
    print()
    wb = results[Scheme.STTRAM_4TSB_WB.value]
    plain = results[Scheme.STTRAM_4TSB.value]
    saved = plain["avg_bank_queue_wait"] - wb["avg_bank_queue_wait"]
    print(f"The WB estimator trimmed {saved:.1f} cycles of average bank "
          "queueing relative to the restriction-only MRAM-4TSB baseline.")
    if wb["estimator_accuracy"]:
        acc = wb["estimator_accuracy"]
        print(f"Its busy predictions were right {100 * acc['accuracy']:.1f}% "
              f"of the time ({acc['over_predictions']} over- and "
              f"{acc['under_predictions']} under-predictions of "
              f"{acc['samples']} forwarded requests).")


if __name__ == "__main__":
    main()
