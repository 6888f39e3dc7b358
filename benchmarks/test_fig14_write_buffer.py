"""Figure 14: comparison against the Sun et al. read-preemptive
20-entry SRAM write buffer (BUFF-20) and the +1 VC resource trade.

Reports the un-core latency (core -> bank -> core round trip of L1
misses) normalised to plain STT-RAM without write buffering, for:
BUFF-20, the WB network scheme, and WB with one extra VC per port.
"""

from repro.analysis.tables import format_table
from repro.sim.config import Scheme, WriteBufferConfig

from common import once, run

APPS = ("tpcc", "sjas", "sclust", "lbm")
VARIANTS = ("STT-RAM", "BUFF-20", "WB", "WB +1VC")


def _run_all():
    data = {}
    for app in APPS:
        base = run(Scheme.STTRAM_64TSB, app)
        buffered = run(Scheme.STTRAM_64TSB, app,
                       write_buffer=WriteBufferConfig())
        wb = run(Scheme.STTRAM_4TSB_WB, app)
        wb_vc = run(Scheme.STTRAM_4TSB_WB, app, n_vcs=7)
        data[app] = {
            "STT-RAM": base, "BUFF-20": buffered, "WB": wb,
            "WB +1VC": wb_vc,
        }
    return data


def test_fig14_write_buffer_comparison(benchmark):
    data = once(benchmark, _run_all)

    print()
    rows = []
    for app in APPS:
        base = data[app]["STT-RAM"].uncore_latency()
        rows.append([app] + [
            round(data[app][v].uncore_latency() / base, 3)
            for v in VARIANTS
        ])
    print(format_table(
        ["app"] + list(VARIANTS), rows,
        title="Figure 14: un-core latency normalised to STT-RAM "
              "(no write buffer)"))
    preempts = [(app, data[app]["BUFF-20"].write_buffer_preemptions)
                for app in APPS]
    print("read preemptions:", preempts)

    for app in APPS:
        base = data[app]["STT-RAM"]
        buffered = data[app]["BUFF-20"]
        # The write buffer absorbs writes at SRAM speed: bank queueing
        # drops sharply.
        assert buffered.avg_bank_queue_wait < base.avg_bank_queue_wait, app
        assert buffered.uncore_latency() < base.uncore_latency(), app
        # Read preemption fires under bursty write pressure.
        assert buffered.write_buffer_preemptions > 0, app

    # The network scheme reduces bank queueing without any per-bank
    # buffer resources (its remaining gap to BUFF-20 in this model is
    # the 4-TSB restriction's bandwidth cost; see EXPERIMENTS.md).
    for app in APPS:
        wb = data[app]["WB"]
        assert wb.avg_bank_queue_wait \
            < data[app]["STT-RAM"].avg_bank_queue_wait * 1.05, app

    # +1 VC never collapses relative to plain WB (paper: a further
    # ~1.6% latency gain for 97% less area than BUFF-20).
    for app in APPS:
        assert data[app]["WB +1VC"].uncore_latency() \
            < 1.25 * data[app]["WB"].uncore_latency(), app
