#!/usr/bin/env python3
"""Trace one run per estimator and compare busy-prediction accuracy.

The paper's bank-aware arbiter delays a request when its parent router
predicts the target STT-RAM bank will still be busy when the packet
arrives (Section 3.5).  That prediction folds in a congestion estimate
from one of three schemes -- SS (none), RCA (regional aggregation), WB
(timestamp/ACK sampling).  This example attaches an observability
session to one run per scheme, joins every prediction against the
bank's ground-truth service intervals, and prints

* a per-estimator accuracy table (correct / over- / under-predictions),
* the per-bank busy-fraction heatmap of the WB run's last epoch, and
* the WB run's epoch time-series.

Usage:
    python examples/trace_estimator_accuracy.py [app] [mesh_width]
"""

import sys

from repro.obs import Observability
from repro.obs.report import (
    format_accuracy_table, format_bank_heatmap, format_epoch_table,
)
from repro.sim.config import Scheme
from repro.sim.parallel import SweepPoint, build_simulator

SCHEMES = (
    ("SS", Scheme.STTRAM_4TSB_SS),
    ("RCA", Scheme.STTRAM_4TSB_RCA),
    ("WB", Scheme.STTRAM_4TSB_WB),
)


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "tpcc"
    mesh_width = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    summaries = []
    wb_obs = None
    for label, scheme in SCHEMES:
        print(f"tracing {app} under {scheme.value} ({label})...")
        point = SweepPoint.build(
            app, scheme, 2500, 1000, 1,
            dict(mesh_width=mesh_width, capacity_scale=1 / 16))
        sim = build_simulator(point)
        obs = Observability(epoch=256)
        obs.attach(sim)
        result = sim.run(point.cycles, warmup=point.warmup)
        summaries.append(result.estimator_accuracy)
        if scheme is Scheme.STTRAM_4TSB_WB:
            wb_obs = obs

    print()
    print(format_accuracy_table(summaries))
    print()
    print("An over-prediction delays a packet for nothing; an under-"
          "prediction\nlets it queue at a busy bank -- the paper's WB "
          "scheme buys accuracy\nwith its timestamp/ACK round trips.")
    print()
    last = wb_obs.samples[-1]
    print(format_bank_heatmap(last.bank_busy_frac, mesh_width,
                              title="WB run, final epoch: bank busy "
                                    "fraction"))
    print()
    print(format_epoch_table(wb_obs.samples, max_rows=12))


if __name__ == "__main__":
    main()
