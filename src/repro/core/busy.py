"""Per-parent busy-duration bookkeeping for child STT-RAM banks.

Section 3.5: each parent router keeps a busy-bit and a counter per child
bank.  When it forwards a request to a child it charges the bank for the
travel time (``4`` cycles base for a two-hop path, plus the congestion
estimate supplied by the active estimation scheme) and the bank service
time (33-cycle writes dominate).  Subsequent requests to the same child
are predicted to find the bank busy until the counter expires.  The
bank-aware arbiter makes both decisions on this table:
``BankAwareArbiter.on_forward`` charges it and ``choose`` predicts from
it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.config import SystemConfig


class BankBusyTracker:
    """Predicted ``busy_until`` cycle per bank, maintained by parents.

    Because the region/TSB scheme guarantees that every request for a bank
    flows through that bank's unique parent, a single shared table indexed
    by bank is exactly equivalent to per-parent tables and cheaper to
    simulate.
    """

    def __init__(self, config: SystemConfig):
        self.read_cycles = config.l2_read_cycles
        self.write_cycles = config.l2_write_cycles
        self.hop_cycles = config.hop_cycles
        self.busy_until: Dict[int, int] = {}
        #: Always-on prediction log consumed by the accuracy analysis:
        #: one ``(bank, predicted arrival cycle, predicted busy)`` row per
        #: forwarded managed request, appended by
        #: ``BankAwareArbiter.on_forward``.
        self.predictions: List[Tuple[int, int, bool]] = []

    def travel_cycles(self, hops: int) -> int:
        """Base parent->child latency: intermediate routers plus links.

        For the paper's two-hop case this is 4 cycles: one intermediate
        2-stage router and two 1-cycle link traversals (Section 3.5).
        """
        if hops <= 0:
            return 0
        # hops-1 intermediate routers, each a full pipeline, plus links.
        return (hops - 1) * (self.hop_cycles - 1) + hops

    def predicted_free_at(self, bank: int) -> int:
        return self.busy_until.get(bank, 0)
