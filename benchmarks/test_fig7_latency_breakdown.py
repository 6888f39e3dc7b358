"""Figure 7: packet latency broken into network vs bank-queuing parts.

The paper's observation: replacing SRAM with STT-RAM inflates the
queuing component (long writes hold the bank while requests wait at the
interface); the proposed schemes recover a large share of it by feeding
idle banks first.
"""

from repro.analysis.breakdown import breakdown_of, normalized_breakdowns
from repro.analysis.tables import format_table
from repro.sim.config import ALL_SCHEMES, Scheme

from common import once, run

APPS = ("sap", "sjbb", "sclust", "lbm", "hmmer")


def _run_all():
    return {
        app: {scheme: run(scheme, app) for scheme in ALL_SCHEMES}
        for app in APPS
    }


def test_fig7_latency_breakdown(benchmark):
    data = once(benchmark, _run_all)

    print()
    rows = []
    for app in APPS:
        series = normalized_breakdowns(data[app], Scheme.SRAM_64TSB)
        for scheme in ALL_SCHEMES:
            rows.append([
                app, scheme.value,
                round(series[scheme]["network"], 1),
                round(series[scheme]["queuing"], 1),
            ])
    print(format_table(
        ["app", "scheme", "net lat", "queue lat"], rows,
        title="Figure 7: latency breakdown (SRAM-64TSB row is exact "
              "percentages; others normalised to it)"))

    for app in APPS:
        sram = breakdown_of(data[app][Scheme.SRAM_64TSB])
        stt = breakdown_of(data[app][Scheme.STTRAM_64TSB])
        wb = breakdown_of(data[app][Scheme.STTRAM_4TSB_WB])
        plain4 = breakdown_of(data[app][Scheme.STTRAM_4TSB])
        # Queuing worsens when SRAM banks become STT-RAM banks.
        assert stt.queuing_latency > sram.queuing_latency, app
        # The WB scheme recovers queuing latency vs the 4TSB baseline.
        assert wb.queuing_latency < plain4.queuing_latency * 1.05, app

    # Paper: the schemes reduce the queueing component by up to ~35%.
    reductions = [
        1 - breakdown_of(data[app][Scheme.STTRAM_4TSB_WB]).queuing_latency
        / breakdown_of(data[app][Scheme.STTRAM_4TSB]).queuing_latency
        for app in APPS
    ]
    assert max(reductions) > 0.10
