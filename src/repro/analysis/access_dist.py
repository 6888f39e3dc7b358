"""Cache-access distribution analysis (paper Figure 3, Section 3.3).

Two questions decide whether the re-ordering scheme can work for an
application:

1. How soon after a *write* to a bank do subsequent accesses to the same
   bank arrive?  Accesses within the 33-cycle write service inevitably
   queue; the histogram over Figure 3's bins (16, 33, 66, 99, 132, 165+)
   quantifies that.
2. How many request packets, on average, does a router in the cache
   layer hold whose destination is exactly H hops away?  That is the
   re-ordering opportunity (the inset numbers of Figure 3 and the
   Figure 13(a) sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: Figure 3 bin upper bounds in cycles; the last bin is open-ended.
FIG3_BINS = (16, 33, 66, 99, 132, 165)


@dataclass
class AccessDistribution:
    """Histogram of same-bank access gaps following a write."""

    bins: Tuple[int, ...]
    counts: List[int]
    total_accesses: int
    writes: int

    @property
    def percentages(self) -> List[float]:
        if not self.total_accesses:
            return [0.0] * (len(self.bins) + 1)
        return [100.0 * c / self.total_accesses for c in self.counts]

    def queued_fraction(self, write_cycles: int = 33) -> float:
        """Fraction of accesses arriving within one write service of a
        preceding write to the same bank (the paper's 17%-average /
        27%-max observation)."""
        if not self.total_accesses:
            return 0.0
        queued = sum(
            count for bound, count in zip(self.bins, self.counts)
            if bound <= write_cycles
        )
        return queued / self.total_accesses


def access_distribution(
    bank_logs: Sequence[Sequence[Tuple[int, bool]]],
    bins: Tuple[int, ...] = FIG3_BINS,
) -> AccessDistribution:
    """Build the Figure 3 histogram from per-bank access logs.

    Args:
        bank_logs: For each bank, the chronological ``(cycle, is_write)``
            service log (collected with ``log_bank_accesses=True``).
        bins: Bin upper bounds in cycles.
    """
    counts = [0] * (len(bins) + 1)
    total = 0
    writes = 0
    for log in bank_logs:
        last_write: int = -1
        for cycle, is_write in log:
            if last_write >= 0:
                gap = cycle - last_write
                total += 1
                for i, bound in enumerate(bins):
                    if gap < bound:
                        counts[i] += 1
                        break
                else:
                    counts[-1] += 1
            if is_write:
                writes += 1
                last_write = cycle
    return AccessDistribution(
        bins=tuple(bins), counts=counts, total_accesses=total,
        writes=writes,
    )


def average_requests_at_distance(sim, hops: int, samples: int = 200,
                                 interval: int = 5) -> float:
    """Average #request packets per cache-layer router whose destination
    bank is exactly ``hops`` hops away (Figure 3 insets / Figure 13a).

    Advances the simulation ``samples * interval`` cycles, sampling the
    router-resident request population.
    """
    from repro.noc.packet import PacketClass

    topo = sim.topo
    total = 0.0
    observations = 0
    for _ in range(samples):
        sim.step(interval)
        for router in sim.network.routers:
            if topo.layer_of(router.node) != 1 or router.n_resident == 0:
                continue
            count = 0
            for entries in router.out_entries:
                for pkt in entries:
                    if (
                        pkt.klass is PacketClass.REQUEST
                        and pkt.bank is not None
                        and topo.manhattan(router.node, pkt.dst) == hops
                    ):
                        count += 1
            total += count
            observations += 1
    return total / observations if observations else 0.0


def distribution_for_app(point) -> AccessDistribution:
    """Run one :class:`~repro.sim.parallel.SweepPoint` and return its
    Figure 3 histogram."""
    from repro.sim.parallel import build_simulator

    sim = build_simulator(point, log_bank_accesses=True)
    sim.run(point.cycles, warmup=point.warmup)
    return access_distribution([b.access_log for b in sim.banks])
