"""Top-level CMP simulator: cores + L1s, NoC, L2 banks, directories, MCs.

Wires every substrate together for one design scenario and advances them
cycle by cycle:

1. the network moves packets and delivers them to endpoint sinks,
2. memory controllers issue DRAM accesses and return fills,
3. bank controllers service their request queues,
4. cores commit instructions and issue L1 misses into the network.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.cache.bank import BankController
from repro.cache.memory import (
    MemoryController, mc_for_block, place_memory_controllers,
)
from repro.cache.messages import AckMsg, MemMsg
from repro.core.arbitration import BankAwareArbiter, RoundRobinArbiter
from repro.core.busy import BankBusyTracker
from repro.core.estimators import WindowEstimator, make_estimator
from repro.core.regions import build_region_map
from repro.cpu.core import (
    CORE_GAP, CORE_RUN, CORE_STALL_MSHR, CORE_STALL_NI,
    CORE_STALL_WINDOW, Core,
)
from repro.noc.network import Network
from repro.noc.router import NEVER
from repro.noc.packet import Packet, PacketClass
from repro.noc.routing import RoutingPolicy
from repro.noc.topology import Mesh3D
from repro.obs.events import EV_SCHED_SKIP
from repro.sim.config import Estimator, SystemConfig
from repro.sim.results import SimulationResult
from repro.workloads.mixes import Workload


class CMPSimulator:
    """One simulated CMP instance running one workload."""

    def __init__(self, config: SystemConfig, workload: Workload,
                 log_bank_accesses: bool = False, prewarm: bool = True,
                 scheduler: str = "event", guard=None, faults=None):
        config.validate()
        if scheduler not in ("event", "dense"):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        self.scheduler = scheduler
        if workload.n_cores != config.n_cores:
            raise ValueError(
                f"workload has {workload.n_cores} streams, config needs "
                f"{config.n_cores}"
            )
        self.config = config
        self.workload = workload
        self.cycle = 0
        #: cached for bank_for_block (hot in every bank-bound send)
        self._n_banks = config.n_banks
        #: attached Observability session (repro.obs), or None -- the
        #: simulator never reads it except at scheduling/run boundaries
        self._obs = None

        self.topo = Mesh3D(config.mesh_width)
        self.region_map = build_region_map(config, self.topo)
        self.routing = RoutingPolicy(self.topo, self.region_map)
        self.estimator = make_estimator(config)
        self.tracker: Optional[BankBusyTracker] = None
        if self.estimator is not None and self.region_map is not None:
            self.tracker = BankBusyTracker(config)
            self.arbiter = BankAwareArbiter(
                config, self.region_map, self.tracker, self.estimator,
            )
        else:
            self.arbiter = RoundRobinArbiter()
        self.network = Network(
            config, self.topo, self.routing, self.arbiter, self.estimator,
        )
        if scheduler == "dense":
            self.network.use_reference_loop = True

        n = config.n_cores

        # Event-scheduler bookkeeping (harmless in dense mode).  Banks,
        # MCs and cores deregister from their active set when provably
        # idle and re-register on wake events (packet delivery, NI
        # drain, gap/window timers); sleeping cores lazily accrue their
        # per-cycle counters when woken or flushed.
        self._active_banks = set(range(config.n_banks))
        self._active_mcs = set()
        self._active_cores = set(range(n))
        #: per-core sleep state, indexed by core id: the ``CORE_*``
        #: status a sleeping core parked with (-1 while awake), the
        #: cycle it last stepped (its lazy-accrual basis) and its timed
        #: wake cycle (NEVER unless a gap sleeper)
        self._core_state: List[int] = [-1] * n
        self._core_slept: List[int] = [0] * n
        self._core_wake: List[int] = [NEVER] * n
        #: cached minimum of ``_core_wake``, kept stale-low: never above
        #: the true minimum, recomputed exactly whenever it comes due
        self._min_wake = NEVER
        #: diagnostic: cycles actually executed (vs skipped) by the
        #: event scheduler; equals ``self.cycle`` advancement in dense.
        self.executed_cycles = 0
        self._core_at_node = {
            self.topo.core_node(i): i for i in range(n)
        }
        self.network.on_source_drain = self._on_source_drain

        self.cores: List[Core] = [
            Core(i, self.topo.core_node(i), config, workload.streams[i],
                 self._send, self._bank_node_for_block,
                 ni_queue=self.network.source_queues[self.topo.core_node(i)],
                 ni_limit=config.ni_queue_entries)
            for i in range(n)
        ]
        self.banks: List[BankController] = [
            BankController(
                b, self.topo.bank_node(b), config, self._send,
                self._mc_node_for_block, self.topo.core_node,
                log_accesses=log_bank_accesses,
            )
            for b in range(config.n_banks)
        ]
        self.mc_nodes = place_memory_controllers(config, self.topo)
        self.mcs: List[MemoryController] = []
        self._mc_at_node: Dict[int, MemoryController] = {}
        for i, node in enumerate(self.mc_nodes):
            mc = MemoryController(i, node, config)
            mc.send_response = self._send_memory_response
            self.mcs.append(mc)
            self._mc_at_node[node] = mc

        for i in range(n):
            node = self.topo.core_node(i)
            self.network.register_sink(node, self._make_core_sink(i))
        for b in range(config.n_banks):
            node = self.topo.bank_node(b)
            self.network.register_sink(
                node, self._make_bank_sink(b),
                flow_control=self._make_bank_flow_control(b),
                bank_queue=True,
            )
            self.banks[b].on_dequeue = partial(
                self.network.on_bank_dequeue, node)

        if prewarm:
            self.prewarm()

        #: resilience layer: fault plane and invariant guard, both None
        #: on plain runs (one ``is None`` test per executed cycle each).
        #: ``guard`` accepts True, a GuardConfig or an InvariantGuard;
        #: ``faults`` accepts a repro.resilience.FaultConfig.
        self.fault_plane = None
        if faults is not None and faults.any_faults():
            from repro.resilience.faults import FaultPlane

            self.fault_plane = FaultPlane(self, faults)
        self.guard = None
        if guard:
            from repro.sim.guard import GuardConfig, InvariantGuard

            if isinstance(guard, InvariantGuard):
                self.guard = guard
            elif isinstance(guard, GuardConfig):
                self.guard = InvariantGuard(guard)
            else:
                self.guard = InvariantGuard()
            self.guard.bind(self)

    # ------------------------------------------------------------------
    # Cache pre-warming
    # ------------------------------------------------------------------

    def prewarm(self) -> None:
        """Install steady-state cache contents analytically.

        Synthetic streams expose their reuse pools and hot sets; filling
        them into the L2 arrays (and the hot sets into the L1s, with
        directory sharers recorded) lets short measurement windows
        behave like the tail of a long warm-up.  Streams without the
        protocol (scripted tests) are left untouched.

        The L2 blocks are gathered per home bank first -- per core its
        pool, then its hot set, then the shared pool once -- and each
        bank's list is then filled in that order.  Banks are independent
        arrays, so the order within a bank is all that fixes their LRU
        state and eviction counters.
        """
        n_banks = self._n_banks  # bank_for_block, inlined per block
        per_bank: List[List[int]] = [[] for _ in range(n_banks)]
        shared_done = False
        for core in self.cores:
            stream = core.stream
            pool_blocks = getattr(stream, "prewarm_blocks", None)
            if pool_blocks is None:
                continue
            for block in pool_blocks():
                per_bank[block % n_banks].append(block)
            for block in getattr(stream, "hot_blocks", list)():
                home = block % n_banks
                per_bank[home].append(block)
                core.l1.fill(block)
                self.banks[home].directory.on_request(
                    core.core_id, block, False)
            if not shared_done:
                shared = getattr(stream, "shared_blocks", None)
                if shared is not None:
                    for block in shared():
                        per_bank[block % n_banks].append(block)
                    shared_done = True
        for bank, blocks in zip(self.banks, per_bank):
            fill = bank.array.fill
            for block in blocks:
                fill(block)

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------

    def bank_for_block(self, block: int) -> int:
        return block % self._n_banks

    def _bank_node_for_block(self, block: int) -> int:
        return self.topo.bank_node(self.bank_for_block(block))

    def _mc_node_for_block(self, block: int) -> int:
        mc = mc_for_block(block, len(self.mc_nodes))
        return self.mc_nodes[mc]

    # ------------------------------------------------------------------
    # Packet plumbing
    # ------------------------------------------------------------------

    def _send(self, klass: PacketClass, src: int, dst: int, flits: int,
              is_write: bool, bank: Optional[int], payload,
              now: int) -> None:
        if bank is None and klass is PacketClass.REQUEST:
            bank = self.topo.bank_of_node(dst)
        pkt = Packet(
            klass, src, dst, flits, inject_cycle=now,
            is_write=is_write, bank=bank, payload=payload,
        )
        self.network.inject(pkt, now)

    def _send_memory_response(self, msg: MemMsg, now: int) -> None:
        response = MemMsg(
            block=msg.block, is_write=False, bank=msg.bank,
            response=True, txn=msg.txn,
        )
        dst = self.topo.bank_node(msg.bank)
        src = self._mc_node_for_block(msg.block)
        pkt = Packet(
            PacketClass.MEMORY, src, dst,
            self.config.data_packet_flits, inject_cycle=now,
            is_write=False, payload=response,
        )
        self.network.inject(pkt, now)

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------

    def _make_core_sink(self, core_id: int) -> Callable[[Packet, int], None]:
        core = self.cores[core_id]

        def sink(pkt: Packet, now: int) -> None:
            if pkt.klass is PacketClass.ACK:
                self._handle_wb_ack(pkt, now)
            else:
                core.on_packet(pkt, now)
                # Fills clear MSHR/window stalls; any delivery may end a
                # sleep, so wake the core for its next step.
                self._wake_core(core_id, now)

        return sink

    def _make_bank_sink(self, bank_id: int) -> Callable[[Packet, int], None]:
        bank = self.banks[bank_id]
        node = self.topo.bank_node(bank_id)
        mc = self._mc_at_node.get(node)

        def sink(pkt: Packet, now: int) -> None:
            if pkt.klass is PacketClass.ACK:
                self._handle_wb_ack(pkt, now)
                return
            if pkt.klass is PacketClass.MEMORY:
                msg = pkt.payload
                if getattr(msg, "response", False):
                    bank.on_packet(pkt, now)
                    self._active_banks.add(bank_id)
                elif mc is not None:
                    mc.on_packet(pkt, now)
                    self._active_mcs.add(mc.index)
                else:  # pragma: no cover - misrouted packet
                    raise RuntimeError(
                        f"memory request at non-MC node {node}"
                    )
                return
            if (
                pkt.klass is PacketClass.REQUEST
                and pkt.wb_timestamp is not None
            ):
                self._send_wb_ack(pkt, bank_id, now)
            bank.on_packet(pkt, now)
            self._active_banks.add(bank_id)

        return sink

    def _make_bank_flow_control(self, bank_id: int):
        bank = self.banks[bank_id]
        node = self.topo.bank_node(bank_id)
        mc = self._mc_at_node.get(node)

        def flow_control(pkt: Packet) -> bool:
            if pkt.klass is PacketClass.MEMORY and mc is not None:
                msg = pkt.payload
                if not msg.response:
                    return True  # MC requests bypass the bank queue
            if pkt.klass is PacketClass.ACK:
                return True
            return bank.can_accept(pkt)

        return flow_control

    def _send_wb_ack(self, pkt: Packet, bank_id: int, now: int) -> None:
        if self.region_map is None:
            return
        parent = self.region_map.parent_of_bank[bank_id]
        ack = AckMsg(bank=bank_id, timestamp=pkt.wb_timestamp)
        self._send(
            PacketClass.ACK, self.topo.bank_node(bank_id), parent,
            self.config.addr_packet_flits, False, None, ack, now,
        )

    def _handle_wb_ack(self, pkt: Packet, now: int) -> None:
        if not isinstance(self.estimator, WindowEstimator):
            return
        msg: AckMsg = pkt.payload
        elapsed = now - msg.timestamp
        self.estimator.on_ack(pkt.dst, msg.bank, elapsed, now)

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance every component one cycle (dense semantics).

        This is the reference schedule; the event-driven path below
        reproduces it bit-for-bit while stepping only active components
        and skipping provably-idle cycles.
        """
        now = self.cycle
        obs = self._obs
        if obs is not None:
            obs.on_cycle(now)
        faults = self.fault_plane
        if faults is not None:
            faults.on_cycle(now)
        self.network.step(now)
        for mc in self.mcs:
            mc.step(now)
        for bank in self.banks:
            bank.step(now)
        for core in self.cores:
            core.step(now)
        guard = self.guard
        if guard is not None:
            guard.on_executed_cycle(now)
        self.cycle += 1

    # -- event-driven scheduling ---------------------------------------

    def _on_source_drain(self, node: int, now: int) -> None:
        """NI queue space opened at ``node``: wake an NI-stalled core."""
        core_id = self._core_at_node.get(node)
        if core_id is not None:
            self._wake_core(core_id, now)

    def _wake_core(self, core_id: int, now: int) -> None:
        state = self._core_state
        status = state[core_id]
        if status < 0:
            return
        skipped = now - 1 - self._core_slept[core_id]
        if skipped > 0:
            self._accrue_core(core_id, status, skipped)
        state[core_id] = -1
        # Raising a wake only raises the true minimum: ``_min_wake``
        # stays a valid stale-low bound.
        self._core_wake[core_id] = NEVER
        self._active_cores.add(core_id)

    def _accrue_core(self, core_id: int, status: int, k: int) -> None:
        """Replay ``k`` skipped cycles of a sleeping core's counters.

        While asleep, every cycle is provably identical: a pure stall
        bumps one stall counter (the L1 lookup/compensation nets to
        zero), a pure gap cycle commits ``commit_width`` instructions.
        """
        core = self.cores[core_id]
        if status == CORE_GAP:
            n = k * core.config.commit_width
            core.stats.committed += n
            core._gap_remaining -= n
        elif status == CORE_STALL_WINDOW:
            core.stats.stall_cycles += k
        elif status == CORE_STALL_NI:
            core.stats.ni_stall_cycles += k
        else:  # CORE_STALL_MSHR
            core.stats.mshr_stall_cycles += k
            core.mshrs.full_stalls += k

    def _flush_lazy(self) -> None:
        """Accrue all lazily-deferred counters up to ``self.cycle``.

        Called at warm-up/measurement/run boundaries so sleeping cores'
        commit/stall counters and parked packets' delay accrual match
        the dense schedule exactly at the observation point.
        """
        boundary = self.cycle
        slept = self._core_slept
        for cid, status in enumerate(self._core_state):
            if status < 0:
                continue
            skipped = boundary - 1 - slept[cid]
            if skipped > 0:
                self._accrue_core(cid, status, skipped)
                slept[cid] = boundary - 1
        self.network.flush_parked(boundary)

    def _run_event(self, n_cycles: int,
                   drain_after: Optional[int] = None) -> bool:
        """Advance up to ``n_cycles`` cycles on the event schedule.

        Each executed cycle steps the components in dense order --
        network, timed core wakes, MCs, banks, cores -- but only those
        in their active sets, and folds the next-event bound while it
        steps: a busy bank contributes ``busy_until``, an MC its due
        hint ``kdue``, a sleeping core its timed wake, the network its
        router hints, source heads and estimator tick.  With no core
        awake the loop jumps to the minimum, capped by the fault
        plane's next event and the guard's watchdog deadline.  Every
        skipped cycle is a provable no-op (DESIGN.md, "Cycle driver").

        ``drain_after`` switches to draining: the first ``drain_after``
        executed cycles step densely, after which the loop stops at the
        first quiescent cycle and returns True.
        """
        if n_cycles <= 0:
            return False
        limit = self.cycle + n_cycles
        draining = drain_after is not None
        dense_until = drain_after if draining else 0
        obs = self._obs
        faults = self.fault_plane
        guard = self.guard
        network = self.network
        net_next = network.next_event_cycle
        mcs = self.mcs
        banks = self.banks
        cores = self.cores
        active_mcs = self._active_mcs
        active_banks = self._active_banks
        active_cores = self._active_cores
        state = self._core_state
        slept = self._core_slept
        wake = self._core_wake
        wake_core = self._wake_core
        never = NEVER
        min_wake = self._min_wake
        cycle = self.cycle
        executed = 0
        quiesced = False
        try:
            while cycle < limit:
                now = cycle
                if obs is not None:
                    obs.on_executed_cycle(now)
                if faults is not None:
                    faults.on_cycle(now)
                network.step(now)
                if min_wake <= now:
                    # Timed-wake scan in ascending core id: the wakes'
                    # accruals are independent and set inserts commute,
                    # so the order is immaterial; the rescan restores
                    # the exact minimum.
                    min_wake = never
                    for cid, w in enumerate(wake):
                        if w <= now:
                            wake_core(cid, now)
                        elif w < min_wake:
                            min_wake = w
                comp_next = never
                if active_mcs:
                    for i in sorted(active_mcs):
                        mc = mcs[i]
                        d = mc.kdue
                        if d > now:
                            # No issue or completion can happen before
                            # ``kdue`` (arrivals zero it), and the value
                            # is what ``next_event_cycle`` would return.
                            if d < comp_next:
                                comp_next = d
                            continue
                        mc.step(now)
                        d = mc.next_event_cycle(now)
                        if d >= never:  # NEVER <=> idle()
                            active_mcs.discard(i)
                        else:
                            mc.kdue = d
                            if d < comp_next:
                                comp_next = d
                if active_banks:
                    for b in sorted(active_banks):
                        bank = banks[b]
                        busy = bank.busy_until
                        if busy > now:
                            # Dense ``step`` would return at once, and a
                            # busy bank's ``next_event_cycle`` is this.
                            if busy < comp_next:
                                comp_next = busy
                            continue
                        bank.step(now)
                        t = bank.next_event_cycle(now)
                        if t >= never:
                            active_banks.discard(b)
                        elif t < comp_next:
                            comp_next = t
                if active_cores:
                    for cid in sorted(active_cores):
                        core = cores[cid]
                        status = core.step(now)
                        if status == CORE_RUN:
                            continue
                        if status == CORE_GAP:
                            horizon = core.pure_gap_cycles()
                            if horizon <= 0:
                                continue
                            w = now + horizon + 1
                        else:
                            w = never  # woken by delivery / NI drain
                        active_cores.discard(cid)
                        state[cid] = status
                        slept[cid] = now
                        wake[cid] = w
                        if w < min_wake:
                            min_wake = w
                if guard is not None:
                    guard.on_executed_cycle(now)
                executed += 1
                # Quiescence can only change at executed cycles (skipped
                # ones are no-ops), so one check per step suffices.
                if draining and executed > dense_until and \
                        self._quiesced(now + 1):
                    cycle = now + 1
                    quiesced = True
                    break
                if active_cores or executed <= dense_until:
                    cycle = now + 1
                else:
                    nxt = net_next(now)
                    if comp_next < nxt:
                        nxt = comp_next
                    if min_wake < nxt:
                        nxt = min_wake
                    if faults is not None:
                        t = faults.next_scheduled(now)
                        if t < nxt:
                            nxt = t
                    if guard is not None:
                        # Execute the watchdog deadline cycle instead of
                        # skipping past it; a spurious wake is a
                        # provable no-op for simulated state.
                        t = guard.wake_bound(now)
                        if t < nxt:
                            nxt = t
                    if nxt <= now:
                        nxt = now + 1
                    cycle = nxt if nxt < limit else limit
                    if obs is not None and cycle > now + 1:
                        obs.emit(now, EV_SCHED_SKIP, {
                            "start": now + 1, "span": cycle - now - 1,
                        })
        finally:
            self.cycle = cycle
            self.executed_cycles += executed
            self._min_wake = min_wake
        self._flush_lazy()
        return quiesced

    # -- measurement ----------------------------------------------------

    def run(self, cycles: int, warmup: int = 0) -> SimulationResult:
        """Advance the simulation and collect a measurement window.

        Warm-up cycles populate caches and network state; statistics are
        measured over the following ``cycles`` cycles.
        """
        if self.scheduler == "event":
            self._run_event(warmup)
            committed_at_start = [c.stats.committed for c in self.cores]
            start_cycle = self.cycle
            self._reset_measurement_stats()
            self._run_event(cycles)
            if self.guard is not None:
                self.guard.on_run_end(self.cycle)
            if self._obs is not None:
                self._obs.on_run_end(self)
            return SimulationResult.collect(
                self, start_cycle, committed_at_start,
            )
        for _ in range(warmup):
            self.step()
        self._flush_lazy()
        committed_at_start = [c.stats.committed for c in self.cores]
        start_cycle = self.cycle
        self._reset_measurement_stats()
        for _ in range(cycles):
            self.step()
        # No-op under the pure dense schedule (no sleeping cores, no
        # parked entries), but it lets the active-set route loop run
        # under dense stepping (use_reference_loop=False) with its
        # parked-delay accrual flushed at the same boundary.
        self._flush_lazy()
        if self.guard is not None:
            self.guard.on_run_end(self.cycle)
        if self._obs is not None:
            self._obs.on_run_end(self)
        return SimulationResult.collect(
            self, start_cycle, committed_at_start,
        )

    def _reset_measurement_stats(self) -> None:
        from repro.noc.stats import NetworkStats
        from repro.cache.bank import BankStats

        self.network.stats = NetworkStats()
        for bank in self.banks:
            bank.stats = BankStats()
            if bank.log_accesses:
                bank.access_log = []
        if self.tracker is not None:
            # Predictions resolve against the (freshly reset) bank
            # service-interval logs: drop warm-up-era rows so the
            # accuracy summary covers the measurement window only.
            self.tracker.predictions = []
        if self._obs is not None:
            self._obs.on_measurement_start(self)

    # ------------------------------------------------------------------

    def drain(self, max_cycles: int = 100_000, min_cycles: int = 4) -> bool:
        """Run until all in-flight traffic completes (tests/examples).

        Steps at least ``min_cycles`` so freshly constructed cores get to
        issue before the quiesce check; infinite synthetic streams never
        drain -- this is for scripted/finite workloads.
        """
        if self.scheduler == "event":
            return self._run_event(max_cycles, drain_after=min_cycles)
        for cycle in range(max_cycles):
            self.step()
            if cycle < min_cycles:
                continue
            if (
                self.network.quiesced()
                and all(b.idle(self.cycle) for b in self.banks)
                and all(mc.idle() for mc in self.mcs)
                and all(c.quiesced() for c in self.cores)
            ):
                return True
        return False

    def _quiesced(self, now: int) -> bool:
        if not self.network.quiesced():
            return False
        # Deactivated banks/MCs are idle by construction.
        return (
            all(self.banks[b].idle(now) for b in self._active_banks)
            and all(self.mcs[i].idle() for i in self._active_mcs)
            and all(c.quiesced() for c in self.cores)
        )
