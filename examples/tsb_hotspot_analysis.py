#!/usr/bin/env python3
"""TSB hotspot analysis: why staggered placement helps (Figures 11-12).

Restricting requests to four region TSBs concentrates traffic on the
core-layer columns feeding the TSB nodes and on the cache-layer links
fanning back out.  This script probes per-link utilisation under corner
vs staggered placement and prints the hottest links of each.

Usage:
    python examples/tsb_hotspot_analysis.py [app]
"""

import sys

from repro import Scheme, SweepPoint, build_simulator
from repro.analysis.tables import format_table
from repro.analysis.utilization import LinkUtilizationProbe
from repro.sim.config import TSBPlacement


def probe(app: str, placement: TSBPlacement):
    point = SweepPoint.build(
        app, Scheme.STTRAM_4TSB_WB, 2000, 1000, 1,
        dict(mesh_width=8, capacity_scale=1 / 16, tsb_placement=placement))
    sim = build_simulator(point)
    sim.step(point.warmup)  # warm up before attaching the probe
    link_probe = LinkUtilizationProbe(sim)
    sim.step(point.cycles)
    return sim, link_probe


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "tpcc"
    for placement in (TSBPlacement.CORNER, TSBPlacement.STAGGER):
        sim, link_probe = probe(app, placement)
        rows = [
            [s.label(sim.topo), round(s.utilization, 3)]
            for s in link_probe.hottest(8)
        ]
        print()
        print(format_table(
            ["link", "utilisation"], rows,
            title=f"{app} / {placement.value} TSBs: hottest links"))
        print(f"links above 80% utilisation: "
              f"{link_probe.saturation_count(0.8)}")
        print(f"core-layer avg {link_probe.layer_average(sim.topo, 0):.3f}"
              f", cache-layer avg "
              f"{link_probe.layer_average(sim.topo, 1):.3f}")


if __name__ == "__main__":
    main()
