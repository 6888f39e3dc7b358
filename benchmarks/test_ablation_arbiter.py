"""Ablation: the bank-aware arbiter's design choices.

DESIGN.md calls out three policy ingredients layered on the paper's
basic delay rule; this bench isolates each on a bursty server workload:

* **read priority** -- letting reads pass write-data packets among
  eligible candidates (the network-level analogue of read preemption);
* **VC-pressure release** -- parking delayed packets only while the
  input port keeps free VCs (vs parking unconditionally);
* **delay cap** -- the starvation valve on how long a packet may be
  withheld.
"""

from repro.analysis.tables import format_table
from repro.sim.config import Scheme

from common import once, run

APP = "tpcc"


def _run_all():
    variants = {
        "full policy": {},
        "no read priority": {"arbiter_read_priority": False},
        "park unconditionally": {"arbiter_min_free_vcs": 0},
        "paranoid parking (4 free)": {"arbiter_min_free_vcs": 4},
        "short delay cap (33)": {"max_delay_cycles": 33},
        "long delay cap (132)": {"max_delay_cycles": 132},
    }
    return {
        name: run(Scheme.STTRAM_4TSB_WB, APP, **overrides)
        for name, overrides in variants.items()
    }


def test_ablation_arbiter_policies(benchmark):
    data = once(benchmark, _run_all)

    print()
    base = data["full policy"].instruction_throughput()
    rows = [
        [name,
         round(r.instruction_throughput() / base, 3),
         round(r.avg_bank_queue_wait, 1),
         round(r.avg_miss_latency, 0),
         r.delayed_cycle_sum]
        for name, r in data.items()
    ]
    print(format_table(
        ["variant", "throughput", "bank queue", "miss lat",
         "delayed cyc"],
        rows, title=f"Arbiter ablation on {APP} (MRAM-4TSB-WB)"))

    # Every variant functions and delays packets.
    for name, result in data.items():
        assert result.total_instructions() > 0, name
        assert result.delayed_cycle_sum > 0, name

    # A longer delay cap means more accumulated delay cycles than a
    # short one.
    assert data["long delay cap (132)"].delayed_cycle_sum \
        > data["short delay cap (33)"].delayed_cycle_sum

    # No variant should collapse: within 40% of the full policy.
    for name, result in data.items():
        assert result.instruction_throughput() > 0.6 * base, name
