"""Router arbitration policies: round-robin and STT-RAM bank-aware.

The paper's mechanism (Sections 3.1-3.2) replaces the local, memory-
technology-oblivious round-robin arbiter with one that, at *parent*
routers, withholds request packets headed to a predicted-busy child bank
and instead grants the crossbar/VC to requests for idle banks, coherence
traffic and memory-controller traffic.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.busy import BankBusyTracker
from repro.core.estimators import CongestionEstimator
from repro.core.regions import RegionMap
from repro.noc.packet import Packet, PacketClass
from repro.obs.events import EV_ARB_REORDER, EV_EST_PREDICT
from repro.noc.router import NEVER
from repro.sim.config import SystemConfig

# An arbitration entry as kept by the router output queues:
# [in_port, vc, packet, arrival_cycle]
ENTRY_PKT = 2
ENTRY_ARRIVAL = 3


class RoundRobinArbiter:
    """Oblivious baseline: rotate over the requesting (port, vc) pairs."""

    name = "rr"

    def __init__(self):
        #: (node << 3 | out_port) -> rotation pointer
        self._pointers = {}
        self.network = None
        #: observability emit callable; None when tracing is detached
        self.trace = None
        #: node-indexed forward hook, or None where a forward needs none
        #: (everywhere, for plain RR).  Rebound in place: the network
        #: captures this list once, at construction.
        self.forward_hook_at: List = []

    def bind(self, network) -> None:
        """Give the arbiter access to live router state and publish its
        node-indexed dispatch tables, ``choose_at`` and
        ``forward_hook_at``, which the route loop and ``_forward``
        index once per decision."""
        self.network = network
        n_nodes = network.topo.n_nodes
        self.choose_at = [self.choose] * n_nodes
        self.forward_hook_at[:] = [None] * n_nodes

    def choose(self, node: int, out_port: int, entries: List[list],
               now: int) -> Optional[int]:
        """Pick the index of the winning entry, or None to idle.

        ``entries`` only contains candidates that are ready and whose
        downstream VC is available.
        """
        if not entries:
            return None
        key = (node << 3) | out_port
        winner = 0
        if len(entries) > 1:
            pointer = self._pointers.get(key, 0)
            # Rotate over (in_port, vc) identities for classic RR
            # fairness.  (in_port, vc) pairs are unique within one output
            # queue, so the minimum rotation distance picks the same
            # winner a full sort would -- without building the order list.
            best = (entries[0][0] * 64 + entries[0][1] - pointer) % 4096
            for i in range(1, len(entries)):
                e = entries[i]
                distance = (e[0] * 64 + e[1] - pointer) % 4096
                if distance < best:
                    best = distance
                    winner = i
        e = entries[winner]
        self._pointers[key] = (e[0] * 64 + e[1] + 1) % 4096
        return winner


class BankAwareArbiter(RoundRobinArbiter):
    """STT-RAM-aware packet re-ordering at parent routers (Section 3.2).

    At a parent router, a ``REQUEST`` whose destination bank is one of the
    parent's children and is predicted busy at the packet's arrival time
    is *delayed*: it is removed from the candidate pool while any other
    candidate exists, and the output is left idle rather than feeding a
    busy bank when only delayed candidates remain.  A starvation valve
    releases any packet delayed longer than ``max_delay_cycles``.

    Non-parent routers fall back to plain round-robin.
    """

    name = "bank-aware"

    def __init__(
        self,
        config: SystemConfig,
        region_map: RegionMap,
        tracker: BankBusyTracker,
        estimator: CongestionEstimator,
    ):
        super().__init__()
        self.config = config
        self.region_map = region_map
        self.tracker = tracker
        self.estimator = estimator
        self.max_delay = config.max_delay_cycles
        #: instrumentation
        self.delay_cycles = 0
        self.reorders = 0
        self.vc_pressure_releases = 0
        #: Delay a packet only while its input port retains at least this
        #: many free VCs: the paper buffers delayed requests in the
        #: *available* VCs, and parking packets on a starved port would
        #: block unrelated through-traffic (tree saturation).
        self.min_free_vcs = config.arbiter_min_free_vcs
        self.read_priority = config.arbiter_read_priority
        #: parent node -> frozenset of managed child banks (set lookup on
        #: the per-candidate hot path instead of a tuple scan)
        self._children = {
            node: frozenset(banks)
            for node, banks in region_map.children_of.items()
        }
        #: bank -> base parent->child travel cycles.  Hop distance and
        #: travel time are static per bank, so the hot paths replace the
        #: ``expected_child_distance``/``travel_cycles`` call pair with
        #: one list index.
        self._travel = [
            tracker.travel_cycles(region_map.expected_child_distance(b))
            for b in range(config.n_banks)
        ]
        self._read_cycles = tracker.read_cycles
        self._write_cycles = tracker.write_cycles

    # ------------------------------------------------------------------

    def on_forward(self, node: int, pkt: Packet, now: int,
                   out_port: int) -> None:
        """Charge the child bank's busy counter and let the estimator tag
        packets.

        The parent keeps one busy counter per child (Section 3.5): it is
        re-armed for the most recently forwarded request and does not
        accumulate a virtual queue -- under a sustained write stream the
        parent would otherwise predict the bank busy arbitrarily far
        into the future and degenerate into delaying everything.

        Each charge logs ``(bank, predicted arrival, predicted busy)``
        in ``tracker.predictions``: the state *before* the charge, i.e.
        the prediction the arbiter acted on when it released this
        packet.  Forwards happen identically under both schedulers
        (``choose`` calls do not: the event scheduler accrues parked
        cycles in bulk), so the log is recorded here.
        """
        bank = pkt.bank
        if pkt.klass is not PacketClass.REQUEST or bank is None:
            return
        children = self._children.get(node)
        if children is None or bank not in children:
            return
        tracker = self.tracker
        est = self.estimator.congestion_estimate(node, bank, now)
        arrival = now + self._travel[bank] + est
        busy_until = tracker.busy_until
        prev = busy_until.get(bank, 0)
        predicted = arrival < prev
        tracker.predictions.append((bank, arrival, predicted))
        service = self._write_cycles if pkt.is_write else self._read_cycles
        if arrival + service > prev:
            busy_until[bank] = arrival + service
        self.estimator.on_forward(node, pkt, now)
        trace = self.trace
        if trace is not None:
            trace(now, EV_EST_PREDICT, {
                "node": node, "bank": bank, "estimate": est,
                "arrival": arrival, "predicted_busy": predicted,
            })

    def bind(self, network) -> None:
        super().bind(network)
        # Parent nodes take the bank-aware path and charge the busy
        # tracker on forward; every other node is plain round-robin,
        # dispatched without the per-call delegation, and has no hook.
        rr_choose = RoundRobinArbiter.choose.__get__(self)
        choose_at = self.choose_at = [rr_choose] * len(self.choose_at)
        for node in self._children:
            choose_at[node] = self._choose_parent
            self.forward_hook_at[node] = self.on_forward

    def refresh_topology(self) -> None:
        """Rebuild parent/child state after a region-map change.

        Fault injection (stuck-at TSB remap) rewrites the region map's
        parent/child assignment; the arbiter's cached child sets, travel
        times and per-node dispatch tables must follow.
        """
        region_map = self.region_map
        self._children = {
            node: frozenset(banks)
            for node, banks in region_map.children_of.items()
        }
        self._travel = [
            self.tracker.travel_cycles(
                region_map.expected_child_distance(b))
            for b in range(self.config.n_banks)
        ]
        if self.network is not None:
            self.bind(self.network)

    def choose(self, node: int, out_port: int, entries: List[list],
               now: int) -> Optional[int]:
        if node not in self._children:
            return super().choose(node, out_port, entries, now)
        return self._choose_parent(node, out_port, entries, now)

    def _choose_parent(self, node: int, out_port: int, entries: List[list],
                       now: int) -> Optional[int]:
        if not entries:
            return None
        children = self._children[node]
        if len(entries) == 1:
            # Sole candidate: it wins outright unless it is a managed
            # request headed to a possibly-busy bank (then the general
            # path decides whether to park it).
            entry = entries[0]
            pkt = entry[ENTRY_PKT]
            bank = pkt.bank
            if (
                pkt.klass is not PacketClass.REQUEST
                or bank is None
                or bank not in children
                or now - entry[ENTRY_ARRIVAL] >= self.max_delay
                or self.tracker.busy_until.get(bank, 0) <= now
            ):
                return 0

        router = (
            self.network.routers[node] if self.network is not None else None
        )
        tracker = self.tracker
        estimate = self.estimator.congestion_estimate
        busy_get = tracker.busy_until.get
        travel = self._travel
        max_delay = self.max_delay
        min_free_vcs = self.min_free_vcs
        request = PacketClass.REQUEST
        eligible: List[int] = []
        delayed: List[int] = []
        for i, entry in enumerate(entries):
            pkt = entry[ENTRY_PKT]
            bank = pkt.bank
            if (
                pkt.klass is request
                and bank is not None
                and bank in children
                and now - entry[ENTRY_ARRIVAL] < max_delay
            ):
                # Delayed while it would reach the bank before the
                # predicted free cycle; the estimate is only needed (and
                # the estimator call only paid) once the bank looks busy.
                free_at = busy_get(bank, 0)
                if free_at > now and (
                    now + travel[bank] + estimate(node, bank, now) < free_at
                ):
                    if (
                        router is not None
                        and router.free_vc_count(entry[0], now)
                        < min_free_vcs
                    ):
                        # Port under VC pressure: parking this packet
                        # would block through-traffic; release it.
                        self.vc_pressure_releases += 1
                    else:
                        delayed.append(i)
                        continue
            eligible.append(i)

        for i in delayed:
            entries[i][ENTRY_PKT].delayed_cycles += 1
        self.delay_cycles += len(delayed)

        if not eligible:
            # All candidates head to busy banks: leave the output idle so
            # the network buffers them instead of the bank interface.
            return None
        if delayed:
            self.reorders += 1
        if len(eligible) == 1:
            winner = eligible[0]
        else:
            # Among eligible packets: boost coherence, memory-controller
            # and response traffic over ordinary requests (Figure 2c);
            # among requests, let latency-critical reads pass non-blocking
            # write data (Section 3.2: not all requests are equally
            # critical from the network standpoint); break ties
            # oldest-first.  (Manual min over (boost, inject, arrival) --
            # no per-call key closure; first minimum wins, like min().)
            read_priority = self.read_priority
            winner = -1
            b_boost = b_inject = b_arrival = 0
            for i in eligible:
                e = entries[i]
                pkt = e[ENTRY_PKT]
                if pkt.klass is not request:
                    boost = 0
                elif not pkt.is_write or not read_priority:
                    boost = 1
                else:
                    boost = 2
                if winner < 0:
                    take = True
                elif boost != b_boost:
                    take = boost < b_boost
                elif pkt.inject_cycle != b_inject:
                    take = pkt.inject_cycle < b_inject
                else:
                    take = e[ENTRY_ARRIVAL] < b_arrival
                if take:
                    winner = i
                    b_boost = boost
                    b_inject = pkt.inject_cycle
                    b_arrival = e[ENTRY_ARRIVAL]
        if delayed:
            trace = self.trace
            if trace is not None:
                trace(now, EV_ARB_REORDER, {
                    "node": node, "port": out_port,
                    "delayed": len(delayed),
                    "granted_pid": entries[winner][ENTRY_PKT].pid,
                })
        return winner

    # -- event-driven scheduling hooks ---------------------------------

    def release_hint(self, node: int, out_port: int, entries: List[list],
                     now: int) -> int:
        """Earliest cycle one of these all-delayed candidates becomes
        eligible, barring new activity at the router.

        Each candidate is released at the earlier of its starvation-valve
        expiry (``arrival + max_delay``) and the first cycle the bank
        busy prediction clears (``free_at - travel - estimate``).
        ``busy_until`` only grows, which moves a release later, and the
        estimate only changes at events that re-arm the router: a WB ack
        pokes it, and the network re-derives this hint for every parked
        port after each RCA tick.  So the minimum is a safe wake bound.
        """
        tracker = self.tracker
        estimator = self.estimator
        travel = self._travel
        best = NEVER
        for entry in entries:
            pkt = entry[ENTRY_PKT]
            t = entry[ENTRY_ARRIVAL] + self.max_delay
            est = estimator.congestion_estimate(node, pkt.bank, now)
            t2 = (tracker.predicted_free_at(pkt.bank)
                  - travel[pkt.bank] - est)
            if t2 < t:
                t = t2
            if t < best:
                best = t
        return best if best > now else now + 1

    def accrue_parked(self, entries, cycles: int) -> None:
        """Replay the per-cycle delay accrual the dense loop performs for
        candidates that stayed parked while their router slept."""
        n = len(entries) * cycles
        for entry in entries:
            entry[ENTRY_PKT].delayed_cycles += cycles
        self.delay_cycles += n
