"""Figure 6: system throughput of the six design scenarios.

Prints, per suite, each application's throughput under all six schemes
normalised to the SRAM-64TSB baseline -- the same series as the paper's
Figure 6 (IPC for server and PARSEC, instruction throughput for the
multi-programmed SPEC runs).

Shape checks (who wins / direction), not absolute numbers:
* STT-RAM's long writes create bank queueing that SRAM never sees;
* the STT-RAM-aware schemes (SS/RCA/WB) recover bank queueing relative
  to the restriction-only MRAM-4TSB baseline;
* read-intensive applications keep most or all of the 4x capacity gain.
"""

from repro.analysis.tables import format_table
from repro.sim.config import ALL_SCHEMES, Scheme
from repro.sim.metrics import geometric_mean

from common import PARSEC_APPS, SERVER_APPS, SPEC_APPS, once, run

SUITES = (("SERVER", SERVER_APPS), ("PARSEC", PARSEC_APPS),
          ("SPEC", SPEC_APPS))


def _run_all():
    data = {}
    for _suite, apps in SUITES:
        for app in apps:
            data[app] = {
                scheme: run(scheme, app) for scheme in ALL_SCHEMES
            }
    return data


def test_fig6_throughput_all_schemes(benchmark):
    data = once(benchmark, _run_all)

    print()
    for suite, apps in SUITES:
        rows = []
        per_scheme = {s: [] for s in ALL_SCHEMES}
        for app in apps:
            base = data[app][Scheme.SRAM_64TSB].instruction_throughput()
            row = [app]
            for scheme in ALL_SCHEMES:
                value = data[app][scheme].instruction_throughput() / base
                row.append(round(value, 3))
                per_scheme[scheme].append(value)
            rows.append(row)
        rows.append(
            ["geomean"] + [round(geometric_mean(per_scheme[s]), 3)
                           for s in ALL_SCHEMES])
        print(format_table(
            ["app"] + [s.value for s in ALL_SCHEMES], rows,
            title=f"Figure 6 ({suite}): throughput normalised to "
                  "SRAM-64TSB"))
        print()

    # --- Shape assertions -------------------------------------------------
    # Write-intensive server workloads suffer from the naive SRAM->STT
    # swap (paper: all server benchmarks degrade).
    tpcc = data["tpcc"]
    assert tpcc[Scheme.STTRAM_64TSB].instruction_throughput() \
        < tpcc[Scheme.SRAM_64TSB].instruction_throughput()

    # Bank queueing appears with STT-RAM writes.
    assert tpcc[Scheme.STTRAM_64TSB].avg_bank_queue_wait \
        > 5 * tpcc[Scheme.SRAM_64TSB].avg_bank_queue_wait

    # The estimator schemes cut bank queueing vs the restriction-only
    # 4TSB baseline on bursty write-heavy applications.
    for app in ("tpcc", "sjas"):
        plain = data[app][Scheme.STTRAM_4TSB].avg_bank_queue_wait
        wb = data[app][Scheme.STTRAM_4TSB_WB].avg_bank_queue_wait
        assert wb < plain, app

    # Read-intensive SPEC applications retain the capacity benefit.
    mcf = data["mcf"]
    assert mcf[Scheme.STTRAM_64TSB].instruction_throughput() \
        > 0.9 * mcf[Scheme.SRAM_64TSB].instruction_throughput()

    # The proposed schemes only ever delay packets when an estimator
    # runs.
    assert data["tpcc"][Scheme.STTRAM_4TSB].delayed_cycle_sum == 0
    assert data["tpcc"][Scheme.STTRAM_4TSB_WB].delayed_cycle_sum > 0
