"""Ablation: buffering resources -- VCs per port and bank-queue depth.

The paper's Section 4.4 argues that adding network resources (one more
VC per port) is a far better use of area than per-bank write buffers;
this bench sweeps both the VC count and the bank-interface queue depth
under the WB scheme and reports where the returns flatten.
"""

from repro.analysis.tables import format_table
from repro.sim.config import Scheme

from common import once, run

APP = "tpcc"
VC_SWEEP = (4, 6, 7, 8)
QUEUE_SWEEP = (2, 4, 8, 16)


def _run_all():
    vcs = {n: run(Scheme.STTRAM_4TSB_WB, APP, n_vcs=n)
           for n in VC_SWEEP}
    queues = {n: run(Scheme.STTRAM_4TSB_WB, APP, bank_queue_entries=n)
              for n in QUEUE_SWEEP}
    return vcs, queues


def test_ablation_buffering_resources(benchmark):
    vcs, queues = once(benchmark, _run_all)

    print()
    base = vcs[6].instruction_throughput()  # Table 1 default: 6 VCs
    print(format_table(
        ["VCs/port", "throughput", "pkt latency", "bank queue"],
        [[n,
          round(r.instruction_throughput() / base, 3),
          round(r.avg_packet_latency, 1),
          round(r.avg_bank_queue_wait, 1)] for n, r in vcs.items()],
        title=f"VC sweep on {APP} (normalised to 6 VCs)"))
    print()
    base_q = queues[4].instruction_throughput()
    print(format_table(
        ["bank queue", "throughput", "pkt latency", "bank queue wait"],
        [[n,
          round(r.instruction_throughput() / base_q, 3),
          round(r.avg_packet_latency, 1),
          round(r.avg_bank_queue_wait, 1)] for n, r in queues.items()],
        title=f"Bank-queue sweep on {APP} (normalised to 4 entries)"))

    # Starved VCs hurt: 4 VCs should not beat 8 VCs meaningfully.
    assert vcs[4].instruction_throughput() \
        <= 1.1 * vcs[8].instruction_throughput()

    # Deeper bank queues absorb bursts: measured wait grows with depth
    # (the wait migrates from the network into the bank interface).
    assert queues[16].avg_bank_queue_wait \
        >= queues[2].avg_bank_queue_wait

    for runs in (vcs, queues):
        for key, result in runs.items():
            assert result.total_instructions() > 0, key
