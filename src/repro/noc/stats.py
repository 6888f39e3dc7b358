"""Network statistics collection."""

from __future__ import annotations

from typing import Dict

from repro.noc.packet import Packet, PacketClass
from repro.obs.metrics import percentiles_from_hist


class NetworkStats:
    """Counters and latency accumulators for one simulation run."""

    __slots__ = (
        "injected", "delivered", "latency_sum", "hop_sum",
        "flits_forwarded", "link_traversals", "tsb_combined_flit_pairs",
        "delayed_cycle_sum", "max_latency", "latency_hist",
    )

    def __init__(self):
        self.injected: Dict[PacketClass, int] = {k: 0 for k in PacketClass}
        self.delivered: Dict[PacketClass, int] = {k: 0 for k in PacketClass}
        self.latency_sum: Dict[PacketClass, int] = {k: 0 for k in PacketClass}
        self.hop_sum = 0
        self.flits_forwarded = 0
        self.link_traversals = 0
        self.tsb_combined_flit_pairs = 0
        self.delayed_cycle_sum = 0
        self.max_latency = 0
        #: latency value -> number of delivered packets with that latency
        #: (the scheduler-equivalence tests compare these distributions,
        #: which catch per-packet drift that aggregate means average out)
        self.latency_hist: Dict[int, int] = {}

    def on_inject(self, pkt: Packet, now: int) -> None:
        self.injected[pkt.klass] += 1

    def on_deliver(self, pkt: Packet, now: int) -> None:
        self.delivered[pkt.klass] += 1
        latency = pkt.latency(now)
        self.latency_sum[pkt.klass] += latency
        self.hop_sum += pkt.hops
        self.delayed_cycle_sum += pkt.delayed_cycles
        hist = self.latency_hist
        hist[latency] = hist.get(latency, 0) + 1
        if latency > self.max_latency:
            self.max_latency = latency

    # ------------------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered.values())

    def in_flight(self) -> int:
        return self.total_injected - self.total_delivered

    def average_latency(self, klass=None) -> float:
        """Mean NI-to-NI packet latency, optionally for one class."""
        if klass is None:
            total = sum(self.latency_sum.values())
            count = self.total_delivered
        else:
            total = self.latency_sum[klass]
            count = self.delivered[klass]
        return total / count if count else 0.0

    def average_hops(self) -> float:
        count = self.total_delivered
        return self.hop_sum / count if count else 0.0

    def latency_percentiles(self) -> Dict[float, float]:
        """p50/p95/p99 of the NI-to-NI latency distribution."""
        return percentiles_from_hist(self.latency_hist)

    def as_dict(self) -> dict:
        percentiles = self.latency_percentiles()
        return {
            "injected": dict(self.injected),
            "delivered": dict(self.delivered),
            "avg_latency": self.average_latency(),
            "latency_p50": percentiles[50.0],
            "latency_p95": percentiles[95.0],
            "latency_p99": percentiles[99.0],
            "avg_hops": self.average_hops(),
            "flits_forwarded": self.flits_forwarded,
            "link_traversals": self.link_traversals,
            "combined_flit_pairs": self.tsb_combined_flit_pairs,
            "delayed_cycle_sum": self.delayed_cycle_sum,
            "max_latency": self.max_latency,
            "latency_hist": dict(self.latency_hist),
        }
