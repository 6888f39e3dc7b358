"""Cycle-driven 3D NoC built from :class:`repro.noc.router.Router` nodes.

The network advances one cycle at a time.  Each cycle it:

1. drains per-node injection queues into free local-port VCs,
2. lets every router with buffered packets arbitrate each idle output
   port among ready candidates (policy-pluggable: round-robin or the
   paper's bank-aware arbiter) and forward the winner, and
3. ticks the congestion estimator on its own period (RCA propagation).

Endpoints register *sinks*: callables invoked when a packet is ejected at
its destination node.

Active-set scheduling
---------------------
``step`` runs the *active-set* route cycle: only routers in
``_active_routers`` (maintained incrementally by injection/forwarding)
whose ``next_active`` wake hint has come due are scanned, port by port
in dense order.  Each scan recomputes the router's wake hint as a
*lower bound* on the next cycle anything at the router could move --
output-link busy expiry, earliest ``ready_at`` among parked entries,
earliest downstream VC drain, or the bank-aware arbiter's release hint.
Lower bounds are safe: a spurious early scan is a no-op, and every state
change that could enable earlier progress (a new entry arriving, an
upstream VC freeing, a WB estimate update, an RCA tick, a bank dequeue)
pokes the hint back down.

A ready LOCAL candidate refused by ejection flow control has no timer.
At a node whose predicate the owner registered as a bank queue
(``register_sink(..., bank_queue=True)``) the router sleeps on
``kblocked`` until the bank dequeues (:meth:`on_bank_dequeue`); any
other predicate re-arms the router for the next cycle.

Cycles delayed-by-arbiter packets spend parked while their router sleeps
are booked in ``_parked`` and flushed into the arbiter's per-cycle
accrual (``accrue_parked``) on the next scan, keeping
``delayed_cycle_sum`` bit-identical to the dense reference loop,
``_route_cycle_reference``, which :meth:`step_reference` runs for the
simulator's dense oracle.

``next_event_cycle`` folds the router hints, source-NI heads and the
estimator tick period into one lower bound the simulator uses for its
cycle-skip fast path.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from repro.core.combining import FlitCombiner
from repro.errors import RoutingError
from repro.noc.packet import Packet
from repro.noc.router import MASK_PORTS, NEVER, Router
from repro.noc.routing import RoutingPolicy
from repro.noc.stats import NetworkStats
from repro.noc.topology import DOWN, LOCAL, N_PORTS, OPPOSITE, Mesh3D
from repro.obs.events import (
    EV_PKT_DELIVER, EV_PKT_FORWARD, EV_PKT_INJECT, EV_TSB_COMBINE,
)
from repro.sim.config import SystemConfig

Sink = Callable[[Packet, int], None]


class Network:
    """The interconnect substrate shared by cores, banks and controllers."""

    def __init__(
        self,
        config: SystemConfig,
        topo: Mesh3D,
        routing: RoutingPolicy,
        arbiter,
        estimator=None,
    ):
        self.config = config
        self.topo = topo
        self.routing = routing
        self.arbiter = arbiter
        self.estimator = estimator
        self.stats = NetworkStats()
        #: observability emit callable; None when tracing is detached
        self.trace = None
        #: fault-injection hook (:class:`repro.resilience.FaultPlane`);
        #: None on fault-free runs, which then pay one ``is None`` test
        #: per link traversal and nothing else.
        self.faults = None
        #: monotonic in-flight accounting -- unlike ``self.stats`` these
        #: are never reset at measurement boundaries, so the invariant
        #: guard can check ``injected - delivered == queued + resident``
        #: at any cycle of a run.
        self.packets_injected_total = 0
        self.packets_delivered_total = 0
        self.routers: List[Router] = [
            Router(node, config.n_vcs) for node in range(topo.n_nodes)
        ]
        #: per-node NI source queues
        self.source_queues: List[deque] = [
            deque() for _ in range(topo.n_nodes)
        ]
        #: per-node ejection sink and optional ejection flow control
        #: (pkt -> bool), indexed by node
        self._sink_at: List[Optional[Sink]] = [None] * topo.n_nodes
        self._flow_at: List[Optional[Callable[[Packet], bool]]] = (
            [None] * topo.n_nodes
        )
        #: True where the flow control refuses only while a bank queue
        #: is full and the bank reports every dequeue
        #: (:meth:`on_bank_dequeue`); refused routers there sleep on
        #: ``kblocked`` instead of re-arming every cycle
        self._bank_gated: List[bool] = [False] * topo.n_nodes
        self.hop_cycles = config.hop_cycles

        # Precompute neighbours and link serialisation factors.
        self.neighbor_node: List[List[Optional[int]]] = []
        for node in range(topo.n_nodes):
            self.neighbor_node.append(
                [topo.neighbor(node, port) for port in range(N_PORTS)]
            )
        self.neighbors_of: List[List[int]] = [
            [n for n in row[:6] if n is not None]
            for row in self.neighbor_node
        ]
        #: flit combiner per link, indexed ``node << 3 | out_port``
        self._combiner_at: List[Optional[FlitCombiner]] = (
            [None] * (topo.n_nodes << 3)
        )
        if routing.region_map is not None and \
                config.region_tsb_width_factor > 1:
            for cache_node in routing.region_map.tsb_cache_nodes():
                core_node = cache_node - topo.nodes_per_layer
                self._combiner_at[(core_node << 3) | DOWN] = FlitCombiner(
                    config.region_tsb_width_factor)
        #: flits sent over each inter-router link, indexed ``node << 3 |
        #: out_port``; monotonic like ``packets_injected_total`` (LOCAL
        #: ejections are not link traffic and are not counted).  The one
        #: flit count: a measurement window's flit total is the growth
        #: of its sum (``SimulationResult.collect``)
        self.link_flits: List[int] = [0] * (topo.n_nodes << 3)
        if estimator is not None:
            estimator.bind(self)
        arbiter.bind(self)
        #: pre-bound hot callables (skip the attribute chain per call)
        self._next_port = routing.next_port
        #: node-indexed arbiter forward hook, None where a forward needs
        #: none; the arbiter rebinds this list in place
        self._arb_fwd_at: List = arbiter.forward_hook_at

        self._nonempty_sources = set()
        #: routers currently holding at least one resident packet (the
        #: mesh has 128+ nodes; tracking the ~tens that are occupied
        #: beats a dense guard scan of the full router list each cycle)
        self._active_routers = set()
        #: (node, out_port) -> (last scan cycle, parked delayed packets);
        #: cycles elapsed between scans are flushed into the arbiter's
        #: per-cycle delay accrual on the next scan of that port.
        self._parked: Dict[tuple, tuple] = {}
        #: bit (node << 3 | port) set iff ``_parked`` holds that key --
        #: the route loop tests one bit instead of building a tuple key
        #: and probing the dict on every port scan.
        self._parked_mask = 0
        #: invoked with the node id whenever a source NI queue pops at
        #: least one packet (NI-stalled cores re-register on this).
        self.on_source_drain: Optional[Callable[[int, int], None]] = None
        # `tick_period is None` => the estimator never needs ticking.
        self._tick_period = (
            None if estimator is None else estimator.tick_period)

    # ------------------------------------------------------------------
    # Endpoint API
    # ------------------------------------------------------------------

    def register_sink(self, node: int, sink: Sink,
                      flow_control: Optional[Callable[[Packet], bool]] = None,
                      bank_queue: bool = False) -> None:
        """Attach an ejection endpoint at ``node``.

        ``bank_queue`` promises that ``flow_control`` refuses a packet
        only while a bank interface queue is full, and that the bank
        calls :meth:`on_bank_dequeue` whenever that queue pops.
        """
        self._sink_at[node] = sink
        if flow_control is not None:
            self._flow_at[node] = flow_control
            self._bank_gated[node] = bank_queue

    def inject(self, pkt: Packet, now: int) -> None:
        """Queue a packet at its source NI."""
        self.routing.prepare(pkt)
        self.packets_injected_total += 1
        self.stats.on_inject(pkt, now)
        trace = self.trace
        if trace is not None:
            trace(now, EV_PKT_INJECT, {
                "pid": pkt.pid, "klass": pkt.klass.name,
                "src": pkt.src, "dst": pkt.dst, "flits": pkt.flits,
                "is_write": pkt.is_write, "bank": pkt.bank,
            })
        self.source_queues[pkt.src].append(pkt)
        self._nonempty_sources.add(pkt.src)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def step(self, now: int) -> None:
        self._inject_sources(now)
        self._route_cycle(now)
        if self._tick_period is not None and now % self._tick_period == 0:
            self.estimator.tick(now)
            # The tick republished the estimates every parked port's
            # release hint was derived from; they hold until the next
            # tick, so re-derive each hint once.
            if self._parked:
                release_hint = self.arbiter.release_hint
                routers = self.routers
                for (node, port), (_since, entries) in self._parked.items():
                    router = routers[node]
                    hint = release_hint(node, port, entries, now)
                    if hint < router.next_active:
                        router.next_active = hint

    def step_reference(self, now: int) -> None:
        """:meth:`step` with the dense reference route loop: the network
        half of the simulator's dense oracle cycle."""
        self._inject_sources(now)
        self._route_cycle_reference(now)
        if self._tick_period is not None and now % self._tick_period == 0:
            self.estimator.tick(now)

    def _inject_sources(self, now: int) -> None:
        sources = self._nonempty_sources
        if not sources:
            return
        done = []
        drained = self.on_source_drain
        routers = self.routers
        next_port = self._next_port
        for node in sources:
            queue = self.source_queues[node]
            router = routers[node]
            popped = False
            while queue:
                # Ready check first: it is the cheap predicate, and
                # ``free_vc`` is a pure scan, so order cannot matter.
                pkt = queue[0]
                if pkt.ready_at > now:
                    break
                vc = router.free_vc(LOCAL, now)
                if vc < 0:
                    break
                queue.popleft()
                popped = True
                # The accept restamps ``ready_at``: NI time until here,
                # the arrival at the router from now on.
                router.accept(LOCAL, vc, pkt, next_port(node, pkt), now)
            if popped:
                self._active_routers.add(node)
                if drained is not None:
                    drained(node, now)
            if not queue:
                done.append(node)
        for node in done:
            sources.discard(node)

    def _route_cycle(self, now: int) -> None:
        """Active-set route cycle: scan only due routers/occupied ports.

        Scans every (router, port) pair whose action could change state,
        in the dense reference loop's order, so every arbitration
        decision and its side effects are identical; each scan leaves a
        ``next_active`` bound before which the router provably cannot
        act (see the module docstring):

        * a port whose link or downstream VCs are busy waits for them;
        * a port whose entries are not ready waits for the earliest;
        * a parked port waits for the arbiter's release hint;
        * a port that forwarded waits for its link to free (and, with
          only future arrivals left, for the earliest of those);
        * a refused LOCAL port waits for its bank to dequeue
          (``kblocked``), or for the next cycle where no bank queue is
          registered.

        Skipped scans are no-ops: parked-delay accrual is gap-based
        (``accrue_parked``), and every event that could enable earlier
        progress lowers ``next_active``.
        """
        arbiter = self.arbiter
        # Per-node dispatch (bank-aware parents vs plain RR) skips the
        # subclass delegation chain.
        choose_at = arbiter.choose_at
        forward = self._forward
        routers = self.routers
        neighbor_node = self.neighbor_node
        flow_at = self._flow_at
        bank_gated = self._bank_gated
        parked_map = self._parked
        mask_ports = MASK_PORTS
        opposite = OPPOSITE
        local = LOCAL
        never = NEVER
        parked_mask = self._parked_mask
        active = self._active_routers
        if not active:
            return
        # ``sorted`` snapshots the set, so routers activated mid-cycle
        # (a downstream accept) join the scan next cycle -- which is
        # equivalent: a just-accepted packet is not ready before
        # ``now + hop_cycles``, and if the downstream router already held
        # candidates it was already in the snapshot.
        for node in sorted(active):
            router = routers[node]
            if router.next_active > now or router.n_resident == 0:
                continue
            node_choose = choose_at[node]
            out_entries = router.out_entries
            out_busy_until = router.out_busy_until
            neighbors = neighbor_node[node]
            wake = never
            blocked_on_bank = False
            # The scan owns the hint from here: it re-derives a complete
            # bound below, and anything that fires *during* the scan (a
            # WB ack delivered by this router's own LOCAL forward poking
            # this very node) re-lowers it; the scan-end assignment
            # takes the minimum so such pokes survive.
            router.next_active = never
            for out_port in mask_ports[router.port_mask]:
                entries = out_entries[out_port]
                busy = out_busy_until[out_port]
                if busy > now:
                    if busy < wake:
                        wake = busy
                    continue
                if out_port == local:
                    downstream = None
                else:
                    down_node = neighbors[out_port]
                    if down_node is None:  # pragma: no cover
                        raise RoutingError(
                            f"packet routed off-mesh at node {node}"
                        )
                    downstream = routers[down_node]
                    vc_at = downstream.next_free_vc_at(
                        opposite[out_port], now)
                    if vc_at > now:
                        if vc_at < wake:
                            wake = vc_at
                        continue
                candidates = []
                cand_index = []
                min_ready = never
                blocked = False
                # A queued packet's ``ready_at`` is its arrival here.
                if out_port == local:
                    accept = flow_at[node]
                    for i, pkt in enumerate(entries):
                        ra = pkt.ready_at
                        if ra <= now:
                            if accept is None or accept(pkt):
                                candidates.append(pkt)
                                cand_index.append(i)
                            else:
                                blocked = True
                        elif ra < min_ready:
                            min_ready = ra
                else:
                    for i, pkt in enumerate(entries):
                        ra = pkt.ready_at
                        if ra <= now:
                            candidates.append(pkt)
                            cand_index.append(i)
                        elif ra < min_ready:
                            min_ready = ra
                if parked_mask and (
                        parked_mask >> ((node << 3) | out_port)) & 1:
                    parked_mask &= ~(1 << ((node << 3) | out_port))
                    self._parked_mask = parked_mask
                    parked = parked_map.pop((node, out_port))
                    gap = now - parked[0] - 1
                    if gap > 0:
                        arbiter.accrue_parked(parked[1], gap)
                if not candidates:
                    if blocked:
                        if bank_gated[node]:
                            # The refusal flips only when the bank queue
                            # pops; a not-yet-ready entry (COHERENCE/ACK
                            # are never refused) still folds below.
                            blocked_on_bank = True
                        else:
                            # Unregistered predicate: no wake event, so
                            # re-arm densely.
                            wake = now + 1
                    if min_ready < wake:
                        wake = min_ready
                    continue
                winner = node_choose(node, out_port, candidates, now)
                if winner is None:
                    # Every candidate heads to a predicted-busy bank: park
                    # them and sleep until the arbiter's release bound.
                    parked_map[(node, out_port)] = (now, candidates)
                    parked_mask |= 1 << ((node << 3) | out_port)
                    self._parked_mask = parked_mask
                    hint = arbiter.release_hint(
                        node, out_port, candidates, now)
                    if hint < wake:
                        wake = hint
                    if min_ready < wake:
                        wake = min_ready
                    continue
                forward(router, downstream, out_port,
                        candidates[winner], cand_index[winner], now)
                # Entries left on this port cannot move before the link
                # frees (ready losers, refused ejections) or, with only
                # future arrivals left, before both the link frees and
                # the earliest is ready; an empty port adds nothing.
                if entries:
                    busy = out_busy_until[out_port]
                    if len(candidates) > 1 or blocked or busy > min_ready:
                        bound = busy
                    else:
                        bound = min_ready
                    if bound < wake:
                        wake = bound
            if wake < router.next_active:
                router.next_active = wake
            router.kblocked = blocked_on_bank

    def _route_cycle_reference(self, now: int) -> None:
        """Dense reference loop: poll every router and port each cycle.

        Behaviourally authoritative; the active-set loop must match it
        bit for bit (see tests/test_scheduler_equivalence.py).
        """
        arbiter = self.arbiter
        for router in self.routers:
            if router.n_resident == 0:
                continue
            node = router.node
            for out_port in range(N_PORTS):
                entries = router.out_entries[out_port]
                if not entries or router.out_busy_until[out_port] > now:
                    continue
                if out_port == LOCAL:
                    downstream = None
                else:
                    down_node = self.neighbor_node[node][out_port]
                    if down_node is None:  # pragma: no cover
                        raise RoutingError(
                            f"packet routed off-mesh at node {node}"
                        )
                    downstream = self.routers[down_node]
                    if downstream.free_vc(OPPOSITE[out_port], now) < 0:
                        continue
                candidates = []
                cand_index = []
                if out_port == LOCAL:
                    accept = self._flow_at[node]
                    for i, pkt in enumerate(entries):
                        if pkt.ready_at <= now and (
                                accept is None or accept(pkt)):
                            candidates.append(pkt)
                            cand_index.append(i)
                else:
                    for i, pkt in enumerate(entries):
                        if pkt.ready_at <= now:
                            candidates.append(pkt)
                            cand_index.append(i)
                if not candidates:
                    continue
                winner = arbiter.choose(node, out_port, candidates, now)
                if winner is None:
                    continue
                self._forward(router, downstream, out_port,
                              candidates[winner], cand_index[winner], now)

    def _forward(self, router: Router, downstream: Optional[Router],
                 out_port: int, pkt: Packet, index: int, now: int) -> None:
        in_port = pkt.in_port
        # Inline of ``router.remove_entry_at`` (one call per forwarded
        # packet; must stay exactly equivalent to it, which
        # tests/test_hotpath.py::TestForwardInlines checks).
        entries = router.out_entries[out_port]
        del entries[index]
        if not entries:
            router.port_mask &= ~(1 << out_port)
        router.vc_free_at[in_port * router.n_vcs + pkt.vc] = now + pkt.flits
        router.n_resident -= 1
        router.n_flits -= pkt.flits
        node = router.node

        # The freed input VC may unblock the upstream router that feeds
        # this input port; wake it when the tail has drained.
        if in_port != LOCAL:
            up_node = self.neighbor_node[node][in_port]
            if up_node is not None:
                up = self.routers[up_node]
                t = now + pkt.flits
                if t < up.next_active:
                    up.next_active = t

        trace = self.trace
        link = (node << 3) | out_port
        combiner = self._combiner_at[link]
        if combiner is not None:
            serialization = combiner.serialization_cycles(pkt)
            saved = pkt.flits - serialization
            if saved > 0:
                self.stats.tsb_combined_flit_pairs += saved
                if trace is not None:
                    trace(now, EV_TSB_COMBINE, {
                        "node": node, "port": out_port, "pid": pkt.pid,
                    })
        else:
            serialization = pkt.flits
        busy = router.out_busy_until[out_port] = now + serialization

        if out_port == LOCAL:
            if router.n_resident == 0:
                self._active_routers.discard(node)
            self.packets_delivered_total += 1
            self.stats.on_deliver(pkt, now)
            if trace is not None:
                trace(now, EV_PKT_DELIVER, {
                    "pid": pkt.pid, "klass": pkt.klass.name,
                    "src": pkt.src, "dst": pkt.dst, "bank": pkt.bank,
                    "inject_cycle": pkt.inject_cycle,
                    "latency": pkt.latency(now), "hops": pkt.hops,
                    "delayed_cycles": pkt.delayed_cycles,
                })
            sink = self._sink_at[node]
            if sink is not None:
                sink(pkt, now)
            return

        if busy > router.link_busy_until:
            router.link_busy_until = busy
        arb_forward = self._arb_fwd_at[node]
        if arb_forward is not None:
            arb_forward(node, pkt, now, out_port)
        self.link_flits[link] += pkt.flits
        if trace is not None:
            trace(now, EV_PKT_FORWARD, {
                "pid": pkt.pid, "klass": pkt.klass.name,
                "node": node, "port": out_port, "flits": pkt.flits,
                "bank": pkt.bank,
            })
        pkt.hops += 1
        faults = self.faults
        if faults is not None and faults.on_link_traversal(
                pkt, node, out_port, now):
            # The downstream ingress CRC check caught a corrupted flit:
            # the packet is dropped on the wire and the fault plane has
            # already requeued it at its source NI for retransmission.
            if router.n_resident == 0:
                self._active_routers.discard(node)
            return
        ready_at = pkt.ready_at = now + self.hop_cycles
        down_node = downstream.node
        in_p = OPPOSITE[out_port]
        # Inline of ``downstream.free_vc`` + ``downstream.accept`` (one
        # call pair per forwarded packet; must stay exactly equivalent,
        # which tests/test_hotpath.py::TestForwardInlines checks).
        # Both route loops verified a free VC exists before arbitrating,
        # so the claim scan always breaks.
        base = in_p * downstream.n_vcs
        free_at = downstream.vc_free_at
        for slot in range(base, base + downstream.n_vcs):
            if free_at[slot] <= now:
                break
        free_at[slot] = NEVER
        pkt.in_port = in_p
        pkt.vc = slot - base
        out_p = self._next_port(down_node, pkt)
        downstream.out_entries[out_p].append(pkt)
        downstream.port_mask |= 1 << out_p
        downstream.n_resident += 1
        downstream.n_flits += pkt.flits
        if ready_at < downstream.next_active:
            downstream.next_active = ready_at
        # The accept consumed a downstream VC, which can flip the
        # bank-aware arbiter's VC-pressure release of a port parked
        # there.  The dense loop sees that this very cycle when the
        # downstream router is scanned after this one (higher node id),
        # else the next cycle.  Without a parked port the ``ready_at``
        # fold above already bounds the next real action.
        t = now if down_node > node else now + 1
        if t < downstream.next_active and (
                self._parked_mask >> (down_node << 3)) & 0x7F:
            downstream.next_active = t
        self._active_routers.add(down_node)
        if router.n_resident == 0:
            self._active_routers.discard(node)

    # ------------------------------------------------------------------
    # Event-driven scheduling support
    # ------------------------------------------------------------------

    def poke_router(self, node: int, cycle: int) -> None:
        """Lower a router's wake hint (estimate changes, fault remaps)."""
        router = self.routers[node]
        if cycle < router.next_active:
            router.next_active = cycle

    def poke_parked(self, now: int) -> None:
        """Re-arm every router holding a parked port for ``now`` (the
        arbiter's parent/child map changed under the parked decision)."""
        for node, _port in self._parked:
            self.poke_router(node, now)

    def on_bank_dequeue(self, node: int, now: int) -> None:
        """The bank queue at ``node`` popped: queue space is the whole
        refusal predicate there (``register_sink(bank_queue=True)``),
        so a router asleep on it may eject from the next cycle on."""
        router = self.routers[node]
        if router.kblocked and now + 1 < router.next_active:
            router.next_active = now + 1

    def next_event_cycle(self, now: int) -> int:
        """Lower bound (> ``now``) on the next cycle the network can act.

        :data:`repro.noc.router.NEVER` when nothing is pending.
        """
        nxt = NEVER
        period = self._tick_period
        if period is not None:
            nxt = now + period - now % period
        routers = self.routers
        for node in self._active_routers:
            router = routers[node]
            if router.n_resident:
                t = router.next_active
                if t < nxt:
                    nxt = t
        for node in self._nonempty_sources:
            queue = self.source_queues[node]
            if not queue:
                continue
            t = queue[0].ready_at
            v = routers[node].next_free_vc_at(LOCAL, now)
            if v > t:
                t = v
            if t < nxt:
                nxt = t
        if nxt <= now:
            return now + 1
        return nxt

    def flush_parked(self, now: int) -> None:
        """Accrue pending parked-delay cycles up to (excluding) ``now``.

        Called at measurement/run boundaries so the delay accrual of
        still-parked packets matches the dense loop through cycle
        ``now - 1`` even though their routers are asleep.
        """
        arbiter = self.arbiter
        for key, (since, entries) in list(self._parked.items()):
            gap = now - since - 1
            if gap > 0:
                arbiter.accrue_parked(entries, gap)
                self._parked[key] = (now - 1, entries)

    # ------------------------------------------------------------------
    # Fault-injection support
    # ------------------------------------------------------------------

    def requeue_at_source(self, pkt: Packet, now: int,
                          ready_at: int) -> None:
        """Re-queue a NACKed packet at its source NI (retransmission).

        The packet restarts its journey from scratch -- fresh waypoint,
        zeroed hop count -- and becomes eligible for injection at
        ``ready_at`` (NACK return latency plus the source NI's backoff).
        The NI queue is FIFO, so a backing-off head blocks younger
        packets behind it exactly like a blocked store buffer would.
        """
        pkt.hops = 0
        pkt.via = None
        self.routing.prepare(pkt)
        pkt.ready_at = ready_at
        self.source_queues[pkt.src].append(pkt)
        self._nonempty_sources.add(pkt.src)

    def release_parked(self, node: int, out_port: int, now: int) -> None:
        """Flush and drop one parked-port record.

        Fault handling (TSB remap) moves entries between output queues;
        the parked snapshot for the affected port would go stale, so the
        pending delay accrual is flushed and the record dropped.  The
        next scan of the port re-parks whatever is still blocked.
        """
        parked = self._parked.pop((node, out_port), None)
        if parked is None:
            return
        self._parked_mask &= ~(1 << ((node << 3) | out_port))
        gap = now - parked[0] - 1
        if gap > 0:
            self.arbiter.accrue_parked(parked[1], gap)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def quiesced(self) -> bool:
        """True when no packets remain anywhere in the network."""
        if self._nonempty_sources:
            return False
        if not self._active_routers:
            return True
        return all(
            self.routers[n].n_resident == 0 for n in self._active_routers
        )

    def total_resident(self) -> int:
        return sum(r.n_resident for r in self.routers)
