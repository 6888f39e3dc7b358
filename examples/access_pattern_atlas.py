#!/usr/bin/env python3
"""Access-pattern atlas: regenerate Figure 3 for chosen applications.

For each application, prints the histogram of same-bank access gaps
following a write (the paper's burstiness fingerprint) and the fraction
of accesses that inevitably queue behind a 33-cycle STT-RAM write.

Usage:
    python examples/access_pattern_atlas.py [app ...]
"""

import sys

from repro.analysis.access_dist import distribution_for_app
from repro.analysis.tables import format_histogram
from repro.sim.config import Scheme
from repro.sim.parallel import SweepPoint

LABELS = ("<16", "<33", "<66", "<99", "<132", "<165", "165+")
DEFAULT_APPS = ("tpcc", "sclust", "x264", "libquantum")


def main() -> None:
    apps = sys.argv[1:] or list(DEFAULT_APPS)
    for app in apps:
        dist = distribution_for_app(SweepPoint.build(
            app, Scheme.STTRAM_64TSB, 2500, 1000, 1,
            dict(mesh_width=8, capacity_scale=1 / 16)))
        print()
        print(format_histogram(
            LABELS, dist.percentages,
            title=f"{app}: gap after a write to the same bank "
                  f"(queued fraction "
                  f"{100 * dist.queued_fraction():.1f}%)"))


if __name__ == "__main__":
    main()
