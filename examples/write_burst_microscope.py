#!/usr/bin/env python3
"""Microscope on the paper's Figure 2 scenario.

One core emits a burst of writes to a single STT-RAM bank followed by
reads to other banks in the same region.  With the oblivious router the
reads trail the 8-flit write packets; with the bank-aware arbiter the
parent router delays the writes (the bank is busy anyway) and the reads
overtake them.  The script prints per-transaction completion times under
both policies.

Usage:
    python examples/write_burst_microscope.py
"""

from repro import CMPSimulator, Scheme, make_config
from repro.cache.messages import Transaction
from repro.cpu.trace import IdleStream, bank_block
from repro.noc.packet import PacketClass
from repro.workloads.mixes import Workload


def run(scheme: Scheme):
    cfg = make_config(scheme, mesh_width=8, capacity_scale=1 / 64)
    n = cfg.n_cores
    workload = Workload([IdleStream() for _ in range(n)],
                        ["micro"] * n, "micro")
    sim = CMPSimulator(cfg, workload, prewarm=False)

    # Region 0's TSB lands at cache node 91; its two-hop children are
    # banks 11, 18 and 25 (nodes 75, 82, 89) -- write to one child and
    # read the others, all L2-resident.
    busy_bank, idle_a, idle_b = 11, 18, 25
    for bank in (busy_bank, idle_a, idle_b):
        for i in range(40):
            sim.banks[bank].array.fill(bank_block(bank, i + 100, n))

    txns = []

    def send_write(block, now):
        txn = Transaction(0, block, True, "store", now)
        sim._send(PacketClass.REQUEST, 0, sim.topo.bank_node(busy_bank),
                  cfg.data_packet_flits, True, None, txn, now)
        txns.append(("write", busy_bank, txn))

    def send_read(bank, block, now):
        txn = Transaction(0, block, False, "read", now)
        sim._send(PacketClass.REQUEST, 0, sim.topo.bank_node(bank),
                  cfg.addr_packet_flits, False, None, txn, now)
        txns.append(("read", bank, txn))

    # The Figure 2 request sequence at the source router.
    for i in range(3):
        send_write(bank_block(busy_bank, i + 100, n), 0)
    send_read(idle_a, bank_block(idle_a, 100, n), 0)
    send_read(idle_b, bank_block(idle_b, 100, n), 0)
    send_read(busy_bank, bank_block(busy_bank, 110, n), 0)

    sim.step(1200)
    return sim, txns


def main() -> None:
    for scheme in (Scheme.STTRAM_4TSB, Scheme.STTRAM_4TSB_SS):
        sim, txns = run(scheme)
        print(f"\n=== {scheme.value} ===")
        for kind, bank, txn in txns:
            start = txn.service_start
            print(f"  {kind:5s} -> bank {bank:2d}: service starts at "
                  f"cycle {start}")
        if sim.tracker is not None:
            print(f"  packets the arbiter delayed: "
                  f"{sim.arbiter.packets_delayed}, "
                  f"re-ordering decisions: {sim.arbiter.reorders}")


if __name__ == "__main__":
    main()
