"""Figure 10: maximum application slowdown in the Case-2 mix.

The paper's fairness result: with plain STT-RAM, the bursty
write-intensive applications (lbm, hmmer) hog network and bank resources
and the read-intensive ones (bzip2, libquantum) are slowed down almost
as much despite their lower miss rates; the WB scheme's prioritisation
of requests to idle banks restores a measure of fairness.
"""

from repro.analysis.tables import format_table
from repro.sim.config import Scheme
from repro.sim.metrics import max_slowdown, slowdowns

from common import once, run

SCHEMES = (Scheme.STTRAM_64TSB, Scheme.STTRAM_4TSB_WB)


def _run_all():
    out = {}
    for scheme in SCHEMES:
        result = run(scheme, "case2")
        shared = result.ipc_by_app()
        alone = {
            app: run(scheme, app).ipc_by_app()[app]
            for app in shared
        }
        out[scheme] = {
            "slowdowns": slowdowns(shared, alone),
            "max": max_slowdown(shared, alone),
        }
    return out


def test_fig10_max_slowdown(benchmark):
    data = once(benchmark, _run_all)

    print()
    apps = sorted(data[SCHEMES[0]]["slowdowns"])
    rows = [
        [scheme.value]
        + [round(data[scheme]["slowdowns"][a], 3) for a in apps]
        + [round(data[scheme]["max"], 3)]
        for scheme in SCHEMES
    ]
    print(format_table(
        ["scheme"] + apps + ["max"], rows,
        title="Figure 10: per-application slowdown in Case 2"))

    for scheme in SCHEMES:
        assert data[scheme]["max"] > 0
        for app, value in data[scheme]["slowdowns"].items():
            assert value > 0, (scheme, app)

    # The read-intensive applications' slowdown should not exceed the
    # write-intensive ones' by much once the WB scheme prioritises them.
    wb = data[Scheme.STTRAM_4TSB_WB]["slowdowns"]
    read_side = max(wb["bzip2"], wb["libquantum"])
    write_side = max(wb["lbm"], wb["hmmer"])
    assert read_side < 2.0 * write_side
