#!/usr/bin/env python3
"""Fairness study: the paper's Case-2 multi-programmed mix (Figure 10).

Co-schedules bursty write-intensive applications (lbm, hmmer) with
read-intensive ones (bzip2, libquantum) and reports each application's
slowdown relative to running alone, under plain STT-RAM and under the
WB scheme.

Usage:
    python examples/fairness_case2.py
"""

from repro import Scheme, SweepGrid, run_sweep
from repro.analysis.tables import format_table
from repro.sim.metrics import max_slowdown, slowdowns
from repro.workloads import CASE2_APPS

CYCLES, WARMUP = 2500, 1000
PARAMS = dict(mesh_width=8, capacity_scale=1 / 16)


def run_case(scheme: Scheme):
    sweep = run_sweep(SweepGrid(
        apps=["case2", *CASE2_APPS], schemes=(scheme,), cycles=CYCLES,
        warmup=WARMUP, overrides=PARAMS))
    ipc = sweep.metric("ipc_by_app")
    shared = ipc["case2"][scheme.value]
    alone = {app: ipc[app][scheme.value][app] for app in shared}
    return slowdowns(shared, alone), max_slowdown(shared, alone)


def main() -> None:
    rows = []
    apps = None
    for scheme in (Scheme.STTRAM_64TSB, Scheme.STTRAM_4TSB_WB):
        print(f"running {scheme.value} (mix + 4 stand-alone runs)...")
        per_app, worst = run_case(scheme)
        apps = sorted(per_app)
        rows.append([scheme.value]
                    + [round(per_app[a], 3) for a in apps]
                    + [round(worst, 3)])
    print()
    print(format_table(["scheme"] + apps + ["max"], rows,
                       title="Case 2 slowdown per application "
                             "(lower is fairer)"))


if __name__ == "__main__":
    main()
