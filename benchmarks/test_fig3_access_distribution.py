"""Figure 3: distribution of bank accesses following a write.

For each application, histogram (over the paper's 16/33/66/99/132/165+
cycle bins) of how soon after a write to a bank the next accesses to the
same bank arrive, plus the average number of request packets in a
cache-layer router destined two hops away -- the two quantities that
decide whether re-ordering can hide the 33-cycle writes.
"""

from repro.analysis.access_dist import (
    access_distribution, average_requests_at_distance,
)
from repro.analysis.tables import format_histogram, format_table
from repro.sim.config import Scheme
from repro.sim.parallel import build_simulator
from repro.workloads.benchmarks import get_benchmark

from common import once, point

APPS = ("tpcc", "sjbb", "sclust", "x264", "lbm", "hmmer", "libquantum")
LABELS = ("<16", "<33", "<66", "<99", "<132", "<165", "165+")


def _analyse(app):
    spec = point(Scheme.STTRAM_64TSB, app)
    sim = build_simulator(spec, log_bank_accesses=True)
    sim.run(spec.cycles, warmup=spec.warmup)
    dist = access_distribution([b.access_log for b in sim.banks])
    nreq = average_requests_at_distance(sim, hops=2, samples=60,
                                        interval=5)
    return dist, nreq


def _run_all():
    return {app: _analyse(app) for app in APPS}


def test_fig3_access_distribution(benchmark):
    data = once(benchmark, _run_all)

    print()
    rows = []
    for app in APPS:
        dist, nreq = data[app]
        rows.append([app] + [round(p, 1) for p in dist.percentages]
                    + [round(100 * dist.queued_fraction(), 1),
                       round(nreq, 2)])
    print(format_table(
        ["app"] + list(LABELS) + ["%queued", "#req@2hop"], rows,
        title="Figure 3: same-bank access gap after a write "
              "(% of accesses)"))
    tpcc_dist, _ = data["tpcc"]
    print()
    print(format_histogram(LABELS, tpcc_dist.percentages,
                           title="tpcc gap histogram"))

    # Bursty applications have a large share of accesses arriving inside
    # the 33-cycle write service; calm ones do not (paper: avg 17%, up
    # to 27%; x264 only ~4%).
    for app in APPS:
        dist, _ = data[app]
        if get_benchmark(app).bursty:
            assert dist.queued_fraction() > 0.10, app
        else:
            assert dist.queued_fraction() < 0.25, app
    assert data["tpcc"][0].queued_fraction() \
        > 3 * data["x264"][0].queued_fraction()

    # There are re-orderable requests parked in cache-layer routers for
    # the bursty server workloads (paper inset: ~3-6 requests).
    assert data["tpcc"][1] > 0.05
