"""Figure 13: sensitivity to the parent-child hop distance H.

(a) the number of re-orderable request packets a parent sees grows with
H (more children per parent); (b) accurate congestion estimation decays
beyond two hops, making H=2 the sweet spot the paper adopts.
"""

from repro.analysis.access_dist import average_requests_at_distance
from repro.analysis.tables import format_table
from repro.sim.config import Scheme
from repro.sim.parallel import build_simulator

from common import once, point, run

APPS = ("tpcc", "sclust")


def _requests_at_distances():
    sim = build_simulator(point(Scheme.STTRAM_4TSB, "tpcc"))
    sim.step(800)
    return {
        hops: average_requests_at_distance(sim, hops, samples=100,
                                           interval=5)
        for hops in (1, 2, 3)
    }


def _ipc_sweep():
    return {
        (app, hops): run(Scheme.STTRAM_4TSB_WB, app,
                         parent_hop_distance=hops)
        for app in APPS for hops in (1, 2, 3)
    }


def test_fig13_hop_distance_sensitivity(benchmark):
    counts, sweep = once(
        benchmark, lambda: (_requests_at_distances(), _ipc_sweep()))

    print()
    print(format_table(
        ["hops", "avg #requests in router"],
        [[h, round(counts[h], 3)] for h in (1, 2, 3)],
        title="Figure 13a: re-orderable requests vs destination distance"))
    rows = []
    for app in APPS:
        base = sweep[(app, 2)].instruction_throughput()
        rows.append([app] + [
            round(sweep[(app, h)].instruction_throughput() / base, 3)
            for h in (1, 2, 3)
        ])
    print(format_table(
        ["app", "H=1", "H=2", "H=3"], rows,
        title="Figure 13b: throughput vs hop distance (normalised to "
              "H=2)"))

    # (a) More requests are visible at larger distances: the population
    # a parent could re-order grows with H (allowing sampling noise at
    # the tail).
    assert counts[2] >= counts[1]
    assert counts[3] >= 0.75 * counts[2]

    # (b) H=2 is competitive: within a few percent of the best choice
    # for every application (the paper picks it as the sweet spot).
    for app in APPS:
        best = max(sweep[(app, h)].instruction_throughput()
                   for h in (1, 2, 3))
        assert sweep[(app, 2)].instruction_throughput() > 0.9 * best, app
