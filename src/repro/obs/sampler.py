"""Epoch sampler: compact time-series snapshots of live system state.

Every ``epoch`` cycles the sampler captures one :class:`EpochSample`:
per-router buffered-flit occupancy, per-bank busy fraction over the
epoch (from the ground-truth service intervals), per-region TSB link
load, cumulative estimator accuracy and packet counters.

Scheduler invariance
--------------------
The sampler is driven from *executed* cycles only.  Under the dense
scheduler that is every cycle, so samples land exactly on epoch
boundaries.  Under the event scheduler a boundary cycle may be skipped
(provably nothing happened), in which case the sample is taken at the
first executed cycle past the boundary and records its true ``cycle``
and ``span`` -- busy fractions and rates stay exact because they are
normalised by the real span, not the nominal epoch.  Samples taken at
the same cycle under both schedulers are identical; samples displaced by
cycle skipping differ only in their boundary cycle (and say so).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.noc.topology import DOWN
from repro.obs.accuracy import AccuracySummary


class EpochSample:
    """One snapshot; all rate fields are normalised by ``span``."""

    __slots__ = (
        "cycle", "span", "executed", "injected", "delivered",
        "router_occupancy", "bank_busy_frac", "tsb_flits_per_cycle",
        "estimator_accuracy",
    )

    def __init__(self, cycle: int, span: int, executed: int,
                 injected: int, delivered: int,
                 router_occupancy: List[int],
                 bank_busy_frac: List[float],
                 tsb_flits_per_cycle: Optional[List[float]],
                 estimator_accuracy: Optional[Dict]):
        self.cycle = cycle
        self.span = span
        self.executed = executed
        self.injected = injected
        self.delivered = delivered
        self.router_occupancy = router_occupancy
        self.bank_busy_frac = bank_busy_frac
        self.tsb_flits_per_cycle = tsb_flits_per_cycle
        self.estimator_accuracy = estimator_accuracy

    def as_dict(self) -> Dict:
        return {
            "cycle": self.cycle,
            "span": self.span,
            "executed": self.executed,
            "injected": self.injected,
            "delivered": self.delivered,
            "router_occupancy": list(self.router_occupancy),
            "bank_busy_frac": [round(f, 6) for f in self.bank_busy_frac],
            "tsb_flits_per_cycle": (
                None if self.tsb_flits_per_cycle is None
                else [round(f, 6) for f in self.tsb_flits_per_cycle]
            ),
            "estimator_accuracy": self.estimator_accuracy,
        }


class EpochSampler:
    """Samples a bound simulator every ``epoch`` cycles."""

    def __init__(self, epoch: int = 256):
        if epoch < 1:
            raise ValueError("epoch must be >= 1")
        self.epoch = epoch
        self.samples: List[EpochSample] = []
        self._sim = None
        self._last = 0
        self._next = 0
        self._executed = 0
        # Incremental cursors (reset with the measurement stats).
        self._interval_ptr: List[int] = []
        self._prediction_ptr = 0
        self._pending_predictions: List = []
        self._accuracy: Optional[AccuracySummary] = None
        #: each region's TSB DOWN link (``Network.link_flits`` index) as
        #: bound, or None without regions; and its count at the last
        #: sample
        self._tsb_links: Optional[List[int]] = None
        self._tsb_base: List[int] = []

    # ------------------------------------------------------------------

    def bind(self, sim) -> None:
        self._sim = sim
        regions = sim.region_map
        self._tsb_links = None if regions is None else [
            (region.tsb_core_node << 3) | DOWN for region in regions.regions
        ]
        self.reset(sim.cycle)

    def reset(self, now: int) -> None:
        """Re-baseline at a measurement boundary (stats were replaced)."""
        sim = self._sim
        self.samples = []
        self._last = now
        self._next = (now // self.epoch + 1) * self.epoch
        self._executed = 0
        self._interval_ptr = [0] * len(sim.banks)
        self._prediction_ptr = 0
        self._pending_predictions = []
        if sim.estimator is not None and sim.tracker is not None:
            self._accuracy = AccuracySummary(sim.estimator.name)
        else:
            self._accuracy = None
        if self._tsb_links is not None:
            flits = sim.network.link_flits
            self._tsb_base = [flits[link] for link in self._tsb_links]

    # ------------------------------------------------------------------

    def on_cycle(self, now: int) -> None:
        """Called once per *executed* cycle, before components step."""
        self._executed += 1
        if now >= self._next:
            self._snapshot(now)
            self._next = (now // self.epoch + 1) * self.epoch

    def final_sample(self, now: int) -> None:
        """Force a closing sample at the end of a run."""
        if now > self._last:
            self._snapshot(now)
            self._next = (now // self.epoch + 1) * self.epoch

    # ------------------------------------------------------------------

    def _snapshot(self, now: int) -> None:
        sim = self._sim
        span = now - self._last
        net = sim.network

        occupancy = [r.n_flits for r in net.routers]
        busy_frac = self._bank_busy_fractions(now, span)

        tsb: Optional[List[float]] = None
        if self._tsb_links is not None:
            flits = net.link_flits
            base = self._tsb_base
            tsb = []
            for region, link in enumerate(self._tsb_links):
                total = flits[link]
                tsb.append((total - base[region]) / span)
                base[region] = total
        accuracy = self._resolve_accuracy(now)

        self.samples.append(EpochSample(
            cycle=now,
            span=span,
            executed=self._executed,
            injected=net.stats.total_injected,
            delivered=net.stats.total_delivered,
            router_occupancy=occupancy,
            bank_busy_frac=busy_frac,
            tsb_flits_per_cycle=tsb,
            estimator_accuracy=accuracy,
        ))
        self._last = now
        self._executed = 0

    def _bank_busy_fractions(self, now: int, span: int) -> List[float]:
        """Per-bank fraction of [last, now) spent in service.

        Walks each bank's append-only service-interval log from a saved
        cursor, so the whole run is O(total intervals), not O(samples x
        intervals).  The cursor stays on any interval still open past
        ``now`` (it may still be truncated by a read preemption, which
        can only move its end *earlier*, and never earlier than a cycle
        we already accounted for).
        """
        window = max(1, span)
        out: List[float] = []
        for b, bank in enumerate(self._sim.banks):
            intervals = bank.stats.service_intervals
            ptr = self._interval_ptr[b]
            busy = 0
            while ptr < len(intervals):
                start, end = intervals[ptr]
                lo = max(start, self._last)
                hi = min(end, now)
                if hi > lo:
                    busy += hi - lo
                if end > now:
                    break
                ptr += 1
            self._interval_ptr[b] = ptr
            out.append(busy / window)
        return out

    def _resolve_accuracy(self, now: int) -> Optional[Dict]:
        """Fold newly-resolvable predictions into the running summary.

        A prediction is resolvable once its arrival cycle has passed;
        later ones wait in a pending list.  Ground truth is read from
        the banks' service-interval logs (linear scan per bank per
        resolution is fine: arrivals lag ``now`` by tens of cycles, so
        the matching interval sits at the tail of the log).
        """
        summary = self._accuracy
        if summary is None:
            return None
        from repro.obs.accuracy import busy_at

        tracker = self._sim.tracker
        predictions = tracker.predictions
        fresh = predictions[self._prediction_ptr:]
        self._prediction_ptr = len(predictions)
        pending = self._pending_predictions + fresh
        still_pending = []
        banks = self._sim.banks
        splits: Dict[int, tuple] = {}
        for bank, arrival, predicted in pending:
            if arrival >= now:
                still_pending.append((bank, arrival, predicted))
                continue
            split = splits.get(bank)
            if split is None:
                ivals = banks[bank].stats.service_intervals
                split = ([iv[0] for iv in ivals], [iv[1] for iv in ivals])
                splits[bank] = split
            summary.add(predicted, busy_at(split[0], split[1], arrival))
        self._pending_predictions = still_pending
        return summary.as_dict()
