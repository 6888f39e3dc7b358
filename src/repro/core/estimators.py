"""Congestion estimation schemes for the busy-duration prediction.

Section 3.5 of the paper introduces three ways a parent router can
estimate the congestion component of the parent->child latency:

* **SS** (Simplistic Scheme): ignore congestion entirely (estimate 0).
* **RCA** (Regional Congestion Aware): aggregate buffer-utilisation
  estimates propagated from neighbouring routers over dedicated 8-bit
  side-band wires (after Gratz/Grot/Keckler, HPCA'08).
* **WB** (Window Based): every ``N`` packets, tag one request with an
  8-bit timestamp; the child acknowledges it, and the parent estimates
  congestion as half the round-trip time minus the known base latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.noc.packet import Packet, PacketClass
from repro.obs.events import EV_EST_UPDATE
from repro.sim.config import Estimator, SystemConfig


class CongestionEstimator:
    """Interface shared by the three schemes."""

    name = "none"

    #: observability emit callable; None when tracing is detached
    trace = None

    #: Cycle period at which :meth:`tick` must be invoked, or ``None``
    #: when the estimator needs no per-cycle updates at all (the network
    #: then never calls ``tick`` and the event-driven scheduler does not
    #: wake for it).
    tick_period = None

    def bind(self, network) -> None:
        """Give the estimator access to live network state."""
        self.network = network

    def congestion_estimate(self, parent_node: int, bank: int,
                            now: int) -> int:
        """Estimated congestion cycles on the parent->child path."""
        return 0

    def on_forward(self, parent_node: int, pkt: Packet, now: int) -> None:
        """Hook: a parent forwarded a request packet toward a child."""

    def on_ack(self, parent_node: int, bank: int, elapsed: int,
               now: int) -> None:
        """Hook: a WB acknowledgement arrived back at the parent."""

    def tick(self, now: int) -> None:
        """Per-cycle update (RCA propagation)."""

    def on_topology_change(self, banks, now: int) -> None:
        """Hook: the parent set of ``banks`` changed (TSB remap).

        Fault-injection only; estimators drop state keyed under the
        stale parents so new samples rebuild it for the new paths.
        """


class SimplisticEstimator(CongestionEstimator):
    """SS: the parent assumes zero congestion.

    Packets are delayed for exactly the base travel time plus the 33-cycle
    write service; under load they arrive early and queue at the bank.
    """

    name = "ss"


#: ``0.5 * v`` for every 8-bit local value ``v``: each entry is the same
#: IEEE product the int * float multiply gives.
_HALF = [0.5 * i for i in range(256)]


class RegionalCongestionEstimator(CongestionEstimator):
    """RCA: neighbour-aggregated buffer utilisation.

    Every ``update_period`` cycles each router publishes a local congestion
    value (flits queued at the router plus residual output-link busy time).
    Neighbouring values are aggregated with equal weights (as in the paper)
    into a regional value clamped to 8 bits; a parent estimates the
    congestion toward a child as half the sum of the aggregated values at
    the intermediate node and at the child itself.

    The tick reads two counters per router (``Router.n_flits`` and
    ``Router.link_busy_until``) and folds the neighbours' previous
    aggregates in one unrolled loop per degree (3, 4 or 5 in a two-layer
    mesh).  Its float arithmetic is pinned operation for operation by
    ``tests/test_rca_tick.py`` against the original dict-based tick:
    ``total`` starts at ``0.0`` and adds the previous aggregates in
    ``neighbors_of`` order (never through ``sum()``, whose float
    algorithm changed in Python 3.12), the mean divides by the degree,
    and each aggregate is ``min(max_value, 0.5 * local + 0.5 * mean)``.
    Every float operation takes float operands on both sides: CPython
    specialises those, and not mixed int/float ones.  DESIGN.md, "RCA
    tick: two router counters and a type-stable fold", gives why each
    substitution is exact.

    Estimates change only at a tick, so ``Network.step`` re-derives
    every parked port's release hint right after one.
    """

    name = "rca"

    def __init__(self, config: SystemConfig):
        self.update_period = max(1, config.rca_update_period)
        self.tick_period = self.update_period
        self.max_value = 255  # 8-bit side-band wires
        self.network = None
        #: bank -> (intermediate node, child node) cached per parent query.
        self._path_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._ticked = False

    def bind(self, network) -> None:
        self.network = network
        #: degree -> (node, router, neighbours in ``neighbors_of``
        #: order...) rows; ``Mesh3D`` has widths of 2 and up, so every
        #: node has 2-4 in-layer neighbours and one vertical one
        rows: Dict[int, list] = {3: [], 4: [], 5: []}
        for node, neigh in enumerate(network.neighbors_of):
            rows[len(neigh)].append((node, network.routers[node], *neigh))
        self._rows3 = tuple(rows[3])
        self._rows4 = tuple(rows[4])
        self._rows5 = tuple(rows[5])
        n = len(network.routers)
        #: node-indexed aggregates of the last tick, and the buffer the
        #: next tick writes before the two swap
        self._agg: List[float] = [0.0] * n
        self._next: List[float] = [0.0] * n

    @property
    def agg(self) -> Dict[int, float]:
        """Node -> regional aggregate; empty before the first tick."""
        return dict(enumerate(self._agg)) if self._ticked else {}

    def tick(self, now: int) -> None:
        if self.network is None or now % self.update_period:
            return
        prev = self._agg
        if not self._ticked:
            # The first tick has no previous aggregates and seeds them
            # from the local values.
            for node, router in enumerate(self.network.routers):
                value = router.n_flits
                busy = router.link_busy_until - now
                if busy > 0:
                    value += busy
                prev[node] = float(value) if value < 255 else 255.0
            self._ticked = True
        # One aggregation step per update: equal weighting of the local
        # value and the mean of the neighbours' previous aggregates gives
        # the coarse regional view of the original RCA proposal.
        half = _HALF
        out = self._next
        for node, router, a, b, c in self._rows3:
            value = router.n_flits
            busy = router.link_busy_until - now
            if busy > 0:
                value += busy
            value = (half[value] if value < 255 else 127.5) + 0.5 * (
                (0.0 + prev[a] + prev[b] + prev[c]) / 3.0)
            out[node] = value if value < 255.0 else 255.0
        for node, router, a, b, c, d in self._rows4:
            value = router.n_flits
            busy = router.link_busy_until - now
            if busy > 0:
                value += busy
            value = (half[value] if value < 255 else 127.5) + 0.5 * (
                (0.0 + prev[a] + prev[b] + prev[c] + prev[d]) / 4.0)
            out[node] = value if value < 255.0 else 255.0
        for node, router, a, b, c, d, e in self._rows5:
            value = router.n_flits
            busy = router.link_busy_until - now
            if busy > 0:
                value += busy
            value = (half[value] if value < 255 else 127.5) + 0.5 * (
                (0.0 + prev[a] + prev[b] + prev[c] + prev[d] + prev[e])
                / 5.0)
            out[node] = value if value < 255.0 else 255.0
        self._next = prev
        self._agg = out

    def on_topology_change(self, banks, now: int) -> None:
        drop = set(banks)
        for key in [k for k in self._path_cache if k[1] in drop]:
            del self._path_cache[key]

    def _path_nodes(self, parent_node: int, bank: int) -> Tuple[int, ...]:
        key = (parent_node, bank)
        cached = self._path_cache.get(key)
        if cached is None:
            topo = self.network.topo
            bank_node = topo.bank_node(bank)
            if topo.layer_of(parent_node) == 1:
                path = topo.xy_path(parent_node, bank_node)
            else:
                # Parent is the region-TSB core node: descend then X-Y.
                below = parent_node + topo.nodes_per_layer
                path = [parent_node] + topo.xy_path(below, bank_node)
            cached = tuple(path[1:])  # downstream nodes only
            self._path_cache[key] = cached
        return cached

    def congestion_estimate(self, parent_node: int, bank: int,
                            now: int) -> int:
        nodes = self._path_cache.get((parent_node, bank))
        if nodes is None:
            if self.network is None:
                return 0
            nodes = self._path_nodes(parent_node, bank)
        agg = self._agg
        total = 0.0
        for n in nodes:
            total += agg[n]
        total /= 2.0
        return int(total) if total < 255.0 else 255


class WindowEstimator(CongestionEstimator):
    """WB: timestamp/ACK round-trip sampling with window size 1.

    For every ``sample_period`` request packets a parent forwards toward a
    given child, one is tagged with the current cycle (8-bit timestamp in
    hardware; we model saturation at 255 cycles).  The child's network
    interface answers with a single-flit ACK carrying the tag, and the
    parent sets its congestion estimate for that child to
    ``max(0, rtt/2 - base_one_way_latency)``.
    """

    name = "wb"

    def __init__(self, config: SystemConfig):
        self.sample_period = max(1, config.wb_sample_period)
        self.max_elapsed = (1 << config.wb_timestamp_bits) - 1
        self.hop_cycles = config.hop_cycles
        #: (parent, bank) -> packets forwarded since the last tag.
        self._counters: Dict[Tuple[int, int], int] = {}
        #: (parent, bank) -> latest congestion estimate in cycles.
        self._estimates: Dict[Tuple[int, int], int] = {}
        #: instrumentation
        self.tags_sent = 0
        self.acks_received = 0
        self.network = None

    def on_forward(self, parent_node: int, pkt: Packet, now: int) -> None:
        if pkt.klass is not PacketClass.REQUEST or pkt.bank is None:
            return
        key = (parent_node, pkt.bank)
        count = self._counters.get(key, 0) + 1
        if count >= self.sample_period or key not in self._estimates:
            pkt.wb_timestamp = now
            self.tags_sent += 1
            count = 0
            self._estimates.setdefault(key, 0)
        self._counters[key] = count

    def on_ack(self, parent_node: int, bank: int, elapsed: int,
               now: int) -> None:
        elapsed = min(elapsed, self.max_elapsed)
        # One-way latency is roughly half the round trip; the congestion
        # component is what exceeds the known two-hop base latency.
        base_one_way = 2 * self.hop_cycles - self.hop_cycles // 2
        estimate = max(0, elapsed // 2 - base_one_way)
        self._estimates[(parent_node, bank)] = estimate
        self.acks_received += 1
        trace = self.trace
        if trace is not None:
            trace(now, EV_EST_UPDATE, {
                "node": parent_node, "bank": bank,
                "estimate": estimate, "elapsed": elapsed,
            })
        # A changed estimate can make a parked request eligible earlier
        # than the parent router's cached wake hint assumed; wake it.
        if self.network is not None:
            self.network.poke_router(parent_node, now + 1)

    def on_topology_change(self, banks, now: int) -> None:
        drop = set(banks)
        for table in (self._counters, self._estimates):
            for key in [k for k in table if k[1] in drop]:
                del table[key]

    def congestion_estimate(self, parent_node: int, bank: int,
                            now: int) -> int:
        return self._estimates.get((parent_node, bank), 0)


def make_estimator(config: SystemConfig) -> Optional[CongestionEstimator]:
    """Instantiate the estimator selected by the configuration."""
    kind = config.estimator
    if kind is Estimator.NONE:
        return None
    if kind is Estimator.SIMPLE:
        return SimplisticEstimator()
    if kind is Estimator.RCA:
        return RegionalCongestionEstimator(config)
    if kind is Estimator.WINDOW:
        return WindowEstimator(config)
    raise ValueError(f"unknown estimator {kind}")  # pragma: no cover
