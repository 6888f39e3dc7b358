"""Ablation: the related-work write mitigations vs the network scheme.

Stacks up, on a bursty write-intensive workload, every mitigation the
paper discusses: early write termination (circuit level), the hybrid
SRAM/STT-RAM partition, the BUFF-20 write buffer (Sun et al.), the
paper's WB network scheme, and combinations -- all against plain
STT-RAM.  The paper's argument is that the network scheme composes with
the others; this bench quantifies that in this model.
"""

from repro.analysis.tables import format_table
from repro.sim.config import Scheme, WriteBufferConfig

from common import once, run

APP = "tpcc"


def _run_all():
    return {
        "plain STT-RAM": run(Scheme.STTRAM_64TSB, APP),
        "write termination": run(
            Scheme.STTRAM_64TSB, APP, write_termination=True),
        "hybrid 4 SRAM ways": run(
            Scheme.STTRAM_64TSB, APP, hybrid_sram_ways=4),
        "BUFF-20": run(Scheme.STTRAM_64TSB, APP,
                       write_buffer=WriteBufferConfig()),
        "WB network scheme": run(Scheme.STTRAM_4TSB_WB, APP),
        "WB + termination": run(
            Scheme.STTRAM_4TSB_WB, APP, write_termination=True),
        "WB + hybrid": run(
            Scheme.STTRAM_4TSB_WB, APP, hybrid_sram_ways=4),
    }


def test_ablation_write_mitigations(benchmark):
    data = once(benchmark, _run_all)

    print()
    base = data["plain STT-RAM"]
    rows = [
        [name,
         round(r.instruction_throughput()
               / base.instruction_throughput(), 3),
         round(r.avg_bank_queue_wait, 1),
         round(r.uncore_latency() / base.uncore_latency(), 3)]
        for name, r in data.items()
    ]
    print(format_table(
        ["mitigation", "throughput", "bank queue", "uncore latency"],
        rows, title=f"Write-mitigation ablation on {APP} "
                    "(vs plain STT-RAM)"))

    # Every bank-side mitigation cuts queueing vs plain STT-RAM.
    for name in ("write termination", "hybrid 4 SRAM ways", "BUFF-20"):
        assert data[name].avg_bank_queue_wait \
            < base.avg_bank_queue_wait, name

    # The network scheme composes: adding termination or the hybrid
    # partition on top of WB does not hurt (and usually helps).
    wb = data["WB network scheme"]
    for name in ("WB + termination", "WB + hybrid"):
        assert data[name].instruction_throughput() \
            > 0.9 * wb.instruction_throughput(), name

    for name, result in data.items():
        assert result.total_instructions() > 0, name
