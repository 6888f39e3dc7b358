"""Figure 9: weighted speedup and instruction throughput for the
multi-programmed Case 1-3 workloads.

Case 1 co-schedules four write-intensive applications (the worst case
for the naive SRAM->STT-RAM swap); Case 2 mixes bursty write-intensive
with read-intensive applications; Case 3 aggregates random mixes across
the design space.
"""

from repro.analysis.tables import format_table
from repro.sim.config import Scheme
from repro.sim.metrics import weighted_speedup

from common import SEED, once, run

SCHEMES = (Scheme.SRAM_64TSB, Scheme.STTRAM_64TSB, Scheme.STTRAM_4TSB,
           Scheme.STTRAM_4TSB_WB)


def _alone_ipc(scheme, apps):
    return {app: run(scheme, app).ipc_by_app()[app] for app in apps}


def _case_metrics(scheme, workload, seed):
    result = run(scheme, workload, seed)
    shared = result.ipc_by_app()
    alone = _alone_ipc(scheme, tuple(shared))
    return {
        "ws": weighted_speedup(shared, alone),
        "it": result.instruction_throughput(),
        "result": result,
    }


def _run_all():
    cases = {}
    # Case 3 is one 4-app mix of a 2-mix draw, at the seed
    # ``case3_mixes`` defaults to.
    for name, workload, seed in (
        ("case1", "case1", SEED),
        ("case2", "case2", SEED),
        ("case3", "case3-2x4-1", 7),
    ):
        cases[name] = {
            scheme: _case_metrics(scheme, workload, seed)
            for scheme in SCHEMES
        }
    return cases


def test_fig9_weighted_speedup_and_throughput(benchmark):
    cases = once(benchmark, _run_all)

    print()
    for name, by_scheme in cases.items():
        base_ws = by_scheme[Scheme.SRAM_64TSB]["ws"]
        base_it = by_scheme[Scheme.SRAM_64TSB]["it"]
        rows = [
            [s.value,
             round(m["ws"] / base_ws, 3),
             round(m["it"] / base_it, 3)]
            for s, m in by_scheme.items()
        ]
        print(format_table(
            ["scheme", "WS (norm)", "IT (norm)"], rows,
            title=f"Figure 9 ({name}): normalised to SRAM-64TSB"))
        print()

    # Case 1: co-scheduled write-intensive applications show no gain
    # from the naive swap (paper: WS can degrade by ~9%).
    case1_metrics = cases["case1"]
    assert case1_metrics[Scheme.STTRAM_64TSB]["ws"] \
        <= 1.05 * case1_metrics[Scheme.SRAM_64TSB]["ws"]

    # The WB scheme recovers throughput relative to the restricted
    # STT-RAM baseline in the write-heavy cases.
    for name in ("case1", "case2"):
        by_scheme = cases[name]
        assert by_scheme[Scheme.STTRAM_4TSB_WB]["it"] \
            > 0.95 * by_scheme[Scheme.STTRAM_4TSB]["it"], name

    # Every configuration makes progress.
    for name, by_scheme in cases.items():
        for scheme, metrics in by_scheme.items():
            assert metrics["it"] > 0, (name, scheme)
            assert metrics["ws"] > 0, (name, scheme)
