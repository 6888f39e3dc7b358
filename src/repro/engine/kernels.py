"""Vectorized per-cycle kernels for the batch backend.

The lockstep driver in :mod:`repro.engine.batch` advances each lane
with the scalar per-cycle machine; this module hoists the hot per-lane
state into batched ``(B, ...)`` structure-of-arrays -- one group-wide
array per field, each lane owning a row view -- and replaces the
dominant per-cycle costs with vectorized/sleep-based kernels:

* **Route-scan sleeping** (:meth:`repro.noc.network.Network
  ._route_cycle_kernel`): the scalar active-set loop re-scans a router
  every cycle while a flow-control refusal is pending, because the
  sink predicate has no timer.  The kernel records the refusing bank
  (``Router.kblocked``) and a private wake hint (``Router.kwake``)
  that is *not* escalated on refusals; the due gate polls the bank's
  queue depth -- which is the entire refusal predicate for ejection
  flow control -- so blocked routers sleep instead of rescanning.
* **Full-cycle driver** (:meth:`LaneKernel.krun`): the whole executed
  cycle -- network step, core wake scan, memory-controller issue/drain,
  bank service countdowns, core commit/stall accounting, and the
  next-event fold -- runs as one loop owned by the kernel, with the
  scheduler state held in SoA rows (``core_state`` / ``core_slept`` /
  ``core_wake`` sleep columns, the ``bank_busy`` service-timer mirror)
  instead of the scalar machine's dict + heap + per-component
  ``next_event_cycle`` calls.  Rare events (a miss fill, an NI drain,
  a write-buffer interaction) route through the *existing scalar
  objects* -- the sinks call the kernel's wake hook, the banks call
  their busy/dequeue hooks -- and mirror state back into the SoA rows:
  the same dual-write discipline ``kwake`` established, extended to
  the core and bank models.

Full-cycle kernel: scheduling-state SoA
---------------------------------------
The scalar event scheduler keeps three structures the kernel replaces
with group arrays (rows are lanes, columns are components):

* ``core_state (n_cores,)`` -- the ``CORE_*`` status a sleeping
  core parked with; ``-1`` marks an active (non-sleeping) core.
* ``core_slept (n_cores,)`` -- the cycle the core last
  stepped, i.e. the accrual basis for the lazily-deferred commit/stall
  counters (mirrors ``_core_sleep[cid][1]``).
* ``core_wake (n_cores,)`` -- the timed wake bound (gap
  sleepers), ``NEVER`` for event-woken sleepers (mirrors the wake
  heap; ``kmin_wake`` caches the row minimum, maintained stale-low,
  which is always safe: a spurious due scan wakes nobody and
  recomputes the exact minimum).
* ``bank_busy (B, n_banks) int64`` -- every bank's ``busy_until``
  service timer, dual-written by the ``kern_busy`` hook at the three
  scalar write sites (op start, write-buffer drain start, read
  preemption).  This is the cross-lane seam future ``(B, n_banks)``
  countdown kernels index; today it feeds telemetry and the identity
  tests, which assert it never drifts from the scalar field.

The core columns are per-lane Python rows rather than numpy rows: the
access pattern is strictly scalar-indexed (one core per transition,
one element per due check), where numpy's scalar boxing costs 2-3x a
list index -- measured, not assumed.  The bank timers stay a numpy
row, the seam future cross-lane kernels index.

While the kernel owns a lane, ``sim._wake_core`` and
``sim._flush_lazy`` are instance-patched to the kernel's SoA
equivalents (every call site resolves them at call time), so sink
deliveries and phase-boundary flushes keep the rows -- not the scalar
dict/heap -- authoritative.  Suspend writes the rows back into
``_core_sleep``/``_wake_heap`` and removes the patches; resume drains
them into the rows again.  Memory controllers gain a ``kdue`` due
hint (recomputed from ``next_event_cycle`` after every step, zeroed on
packet arrival and on resume), letting the kernel skip the provably
no-op ``step`` calls the scalar loop makes while a controller merely
waits on DRAM latency.

Identity argument
-----------------
All kernels preserve the byte-identity contract the batch backend is
certified against:

* The kernel route loop runs every scan that could change state, in
  the same order, and assigns ``next_active`` the exact value the
  scalar scan would -- so the simulator's cycle-skip schedule never
  diverges.  Scans it skips are provably no-ops: parked-delay accrual
  is gap-based (``accrue_parked``), refusals cannot flip until the
  polled queue shrinks, and every event that could enable earlier
  progress (an accept, an upstream VC freeing, an estimator poke)
  lowers ``kwake`` at the same dual-write sites that lower
  ``next_active``.
* The full-cycle driver executes a superset of the scalar schedule's
  cycles (its next-event fold is a lower bound on the scalar fold:
  the bank/MC folds are value-equal by the gate proofs below and the
  ``kmin_wake`` cache is maintained stale-low), and every extra cycle
  is a provable no-op: all due gates exceed ``now``, no source can
  inject (the source fold bounds it), no blocked router's bank has
  space (a dequeue would have lowered ``kwake`` through its hook),
  and it is never an estimator-tick multiple (the tick fold bounds
  it).  Only ``executed_cycles`` -- explicitly outside the identity
  surface -- can differ.  Within an executed cycle the component
  order is the dense order (network, wakes, MCs, banks, cores), the
  wake scan wakes exactly the cores the validated heap pops would
  (ascending id instead of ascending wake time; accruals are
  independent and set insertion commutes), the MC gate skips only
  steps whose issue/completion conditions are all false (arrivals
  zero the gate), and the bank gate mirrors the scalar
  ``busy_until > now`` test verbatim.

Divergence protocol
-------------------
Lanes that cannot take the common path never attach a kernel
(:func:`lane_vectorizable` names the reason: fault plane, guard,
observability, tracing, dense reference loop, unknown estimator, or an
unmapped flow-control node).  A lane that must *temporarily* leave the
common path (``sim.force_scalar_until``) is suspended -- the scalar
machine advances it while the dual-write mirrors stay fresh -- and
re-synchronized on resume: ``kwake`` is reloaded from the
scalar-owned ``next_active`` (a blocked router's ``kwake`` may be
stale-high after a scalar interlude; stale-low is always safe), the
core sleep columns are drained from the scalar dict and the MC due
hints are zeroed (stale-low, hence safe).

numpy is optional; without it every lane reports non-vectorizable and
the batch backend behaves exactly as before.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None

from repro.core.estimators import (
    RegionalCongestionEstimator,
    SimplisticEstimator,
    WindowEstimator,
)
from repro.cpu.core import (
    CORE_GAP, CORE_RUN, CORE_STALL_NI, CORE_STALL_WINDOW,
)
from repro.noc.router import NEVER


def kernels_available() -> bool:
    return np is not None


def lane_vectorizable(sim) -> Optional[str]:
    """Why ``sim`` must stay on the scalar machine, or None.

    The checks are conservative: anything attached to the simulator
    that observes or perturbs per-cycle execution (fault plane, guard,
    observability, event tracing), any non-event scheduling mode, and
    any estimator outside the three the kernel's wake hints are
    certified against keep the lane scalar.  All conditions are static
    over a run -- resilience and observability attachments happen at
    construction time -- so the decision is made once, at lane build.
    """
    if np is None:
        return "numpy unavailable"
    if sim.scheduler != "event":
        return "dense scheduler"
    network = sim.network
    if network.use_reference_loop:
        return "reference route loop"
    if sim.fault_plane is not None:
        return "fault plane active"
    if sim.guard is not None:
        return "invariant guard attached"
    if sim._obs is not None:
        return "observability attached"
    if network.trace is not None:
        return "event tracing attached"
    est = network.estimator
    if est is not None and type(est) not in (
            RegionalCongestionEstimator, SimplisticEstimator,
            WindowEstimator):
        return f"unknown estimator {type(est).__name__}"
    # Every flow-controlled ejection node must map to a bank whose
    # queue depth the blocked-port due gate can poll.
    bank_node = sim.topo.bank_node
    bank_nodes = {bank_node(b) for b in range(len(sim.banks))}
    for node, flow in enumerate(network._flow_at):
        if flow is not None and node not in bank_nodes:
            return f"unmapped flow control at node {node}"
    return None


def _make_bank_wake(router, bank):
    """Dequeue hook: re-arm a router blocked on this bank's queue.

    A pop creates queue space -- the entire ejection-refusal predicate
    -- so the blocked router can forward the cycle after.  ``kblocked``
    is the unique token for "asleep awaiting space at this bank"; any
    other sleeping router's bound is unaffected by a dequeue, and a
    spurious poke would only force a no-op scan anyway (stale-low wake
    hints are always safe).
    """
    def wake(now: int) -> None:
        if router.kblocked is bank:
            t = now + 1
            if t < router.kwake:
                router.kwake = t
    return wake


def _make_bank_busy(row, bank_index: int):
    """Service-timer hook: mirror one bank's ``busy_until`` into its
    SoA slot.

    Installed at attach and left in place across suspend windows, so
    the mirror stays fresh no matter which machine advances the lane
    (the same unconditional dual-write discipline as ``kwake``).
    """
    def busy(until: int) -> None:
        row[bank_index] = until
    return busy


class GroupKernel:
    """Group-wide ``(B, ...)`` arrays; lanes index rows.

    Allocated once per lane group.  ``bank_busy`` mirrors the bank
    service timers, with a row for every lane so indexing stays
    positional.  The core sleep columns live on each
    :class:`LaneKernel` as plain lists -- their access pattern is
    strictly scalar-indexed, where numpy boxing costs more than it
    saves (module docstring).
    """

    __slots__ = ("n_lanes", "n_banks", "n_cores", "bank_busy")

    def __init__(self, n_lanes: int, n_banks: int = 1, n_cores: int = 1):
        self.n_lanes = n_lanes
        self.n_banks = n_banks
        self.n_cores = n_cores
        self.bank_busy = np.zeros((n_lanes, n_banks), dtype=np.int64)


class LaneKernel:
    """One lane's view into the group arrays plus its scalar hooks."""

    __slots__ = (
        "sim", "network", "_n", "active", "bank_busy", "core_state",
        "core_slept", "core_wake", "kmin_wake",
    )

    def __init__(self, sim, group: GroupKernel, lane: int):
        self.sim = sim
        network = sim.network
        self.network = network
        self._n = len(network.routers)
        #: (n_banks,) int64 row: bank ``busy_until`` mirror
        self.bank_busy = group.bank_busy[lane]
        #: core sleep columns -- plain lists, scalar-indexed only
        #: (see module docstring for the measured boxing rationale)
        n_cores = len(sim.cores)
        self.core_state = [-1] * n_cores
        self.core_slept = [0] * n_cores
        self.core_wake = [NEVER] * n_cores
        #: cached min of ``core_wake``; maintained stale-low (never
        #: above the true minimum), recomputed exactly at due scans
        self.kmin_wake = NEVER
        self.active = False

    # ------------------------------------------------------------------
    # Attach / suspend / resume
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Install the kernel on the lane's network (initial sync)."""
        self.attach_banks()
        self.attach_cores()

    def attach_banks(self) -> None:
        """Wire the bank-model seam: dequeue wake hooks, the
        ``busy_until`` SoA mirror, and the blocked-port poll map."""
        network = self.network
        sim = self.sim
        bank_at: List = [None] * self._n
        routers = network.routers
        bank_busy = self.bank_busy
        for b, bank in enumerate(sim.banks):
            node = sim.topo.bank_node(b)
            bank_at[node] = bank
            bank.kern_wake = _make_bank_wake(routers[node], bank)
            bank.kern_busy = _make_bank_busy(bank_busy, b)
            bank_busy[b] = bank.busy_until
        network._bank_at = bank_at

    def attach_cores(self) -> None:
        """Wire the core/scheduler seam and perform the initial sync."""
        self.sim._lane_kernel = self
        self.resume()

    def suspend(self) -> None:
        """Drop to the scalar machine; mirrors keep updating (the
        dual-write sites are unconditional), so resume is cheap.

        The SoA sleep columns are written back into the scalar
        ``_core_sleep`` dict and wake heap, and the instance patches
        are removed, so the scalar machine resumes exactly where the
        kernel stopped.
        """
        self.network._kern = None
        self.active = False
        sim = self.sim
        state = self.core_state
        slept = self.core_slept
        wake = self.core_wake
        sleep = sim._core_sleep
        heap = sim._wake_heap
        for cid, st in enumerate(state):
            if st < 0:
                continue
            w = wake[cid]
            sleep[cid] = [st, slept[cid], w]
            if w < NEVER:
                heapq.heappush(heap, (w, cid))
            state[cid] = -1
            wake[cid] = NEVER
        self.kmin_wake = NEVER
        for attr in ("_wake_core", "_flush_lazy"):
            try:
                delattr(sim, attr)
            except AttributeError:
                pass

    def resume(self) -> None:
        """Re-synchronize from scalar-owned state and re-install.

        ``kwake`` is reloaded from ``next_active`` for every active
        router: after a scalar interlude a blocked router holds
        ``next_active = now + 1`` while its ``kwake`` may be stale-high
        with ``kblocked`` cleared -- the due gate would sleep through
        real work.  A stale-low ``kwake`` is always safe (a spurious
        scan is a no-op), so resync never needs to raise hints.  The
        core sleep dict/heap drain into the SoA columns, the MC due
        hints reset to zero (stale-low, safe), and the scheduler entry
        points are instance-patched to the kernel's SoA equivalents.
        """
        network = self.network
        routers = network.routers
        sim = self.sim
        for node in network._active_routers:
            router = routers[node]
            router.kwake = router.next_active
            router.kblocked = None
        state = self.core_state
        slept = self.core_slept
        wake = self.core_wake
        for cid in range(len(state)):
            state[cid] = -1
            wake[cid] = NEVER
        kmin = NEVER
        for cid, st in sim._core_sleep.items():
            state[cid] = st[0]
            slept[cid] = st[1]
            w = st[2]
            wake[cid] = w
            if w < kmin:
                kmin = w
        sim._core_sleep.clear()
        del sim._wake_heap[:]
        self.kmin_wake = kmin
        for mc in sim.mcs:
            mc.kdue = 0
        sim._wake_core = self._kwake_core
        sim._flush_lazy = self._kflush
        network._kern = self
        self.active = True

    # ------------------------------------------------------------------
    # Core scheduler seam (SoA equivalents of the scalar entry points)
    # ------------------------------------------------------------------

    def _kwake_core(self, core_id: int, now: int) -> None:
        """SoA mirror of ``CMPSimulator._wake_core`` (instance-patched
        over it while the kernel owns the lane)."""
        state = self.core_state
        st = state[core_id]
        if st < 0:
            return
        skipped = now - 1 - self.core_slept[core_id]
        if skipped > 0:
            self._kaccrue(core_id, st, skipped)
        state[core_id] = -1
        self.core_wake[core_id] = NEVER
        self.sim._active_cores.add(core_id)

    def _kaccrue(self, core_id: int, status: int, k: int) -> None:
        """Bulk replay of ``k`` skipped sleeper cycles; arithmetic is
        ``CMPSimulator._accrue_core`` verbatim (Python ints in, Python
        ints out -- no numpy scalars leak into the stats)."""
        core = self.sim.cores[core_id]
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

    def _kflush(self) -> None:
        """SoA mirror of ``CMPSimulator._flush_lazy`` (instance-patched
        over it while the kernel owns the lane)."""
        sim = self.sim
        boundary = sim.cycle
        state = self.core_state
        slept = self.core_slept
        for cid, st in enumerate(state):
            if st < 0:
                continue
            skipped = boundary - 1 - slept[cid]
            if skipped > 0:
                self._kaccrue(cid, st, skipped)
                slept[cid] = boundary - 1
        sim.network.flush_parked(boundary)

    # ------------------------------------------------------------------
    # Full-cycle lockstep driver
    # ------------------------------------------------------------------

    def krun(self, limit: int, budget: int) -> None:
        """Advance the lane up to ``budget`` executed cycles or ``limit``.

        One loop owning the whole executed cycle, fused with the
        next-event fold: the scalar pair ``_event_step`` +
        ``_next_event`` re-derives every component bound per cycle
        through attribute lookups, a validated heap, and per-component
        ``next_event_cycle`` calls; here the bounds fold as the step
        loops run (post-step state, exactly what the scalar fold reads)
        and the scheduler state lives in the SoA sleep columns.
        Component order is the dense order; see the module docstring
        for the cycle-schedule identity argument.
        """
        sim = self.sim
        network = self.network
        # network.step inlined: in kernel mode it is exactly
        # inject -> kernel route -> periodic estimator tick, and the
        # method dispatch plus the redundant empty-source call are
        # per-cycle costs the batch side alone pays.
        net_inject = network._inject_sources
        net_route = network._route_cycle_kernel
        nonempty_sources = network._nonempty_sources
        tick_period = network._tick_period
        est_tick = network.estimator.tick if tick_period is not None \
            else None
        net_next = network.next_event_cycle
        mcs = sim.mcs
        banks = sim.banks
        cores = sim.cores
        active_mcs = sim._active_mcs
        active_banks = sim._active_banks
        active_cores = sim._active_cores
        state = self.core_state
        slept = self.core_slept
        wake = self.core_wake
        kwake_core = self._kwake_core
        never = NEVER
        kmin = self.kmin_wake
        cycle = sim.cycle
        executed = 0
        while cycle < limit and executed < budget:
            now = cycle
            if nonempty_sources:
                net_inject(now)
            net_route(now)
            if tick_period is not None and now % tick_period == 0:
                est_tick(now)
            if kmin <= now:
                # Timed-wake scan: ascending core id instead of the
                # heap's ascending wake time -- equivalent outcome
                # (independent accruals, commuting set inserts), and
                # the exact-minimum recompute clears any staleness.
                kmin = never
                for cid, w in enumerate(wake):
                    if w <= now:
                        kwake_core(cid, now)
                    elif w < kmin:
                        kmin = w
            comp_next = never
            if active_mcs:
                for i in sorted(active_mcs):
                    mc = mcs[i]
                    d = mc.kdue
                    if d > now:
                        # Provably idle until ``kdue``: the skipped
                        # steps' issue/completion conditions are all
                        # false (arrivals zero the hint), and the fold
                        # value equals the scalar ``next_event_cycle``
                        # (its components are unchanged and > now).
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
                    bu = bank.busy_until
                    if bu > now:
                        # Scalar gate verbatim; the fold value is what
                        # ``next_event_cycle`` returns for a busy bank.
                        if bu < comp_next:
                            comp_next = bu
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
                    if w < kmin:
                        kmin = w
            executed += 1
            if active_cores:
                cycle = now + 1
            else:
                nxt = net_next(now)
                if comp_next < nxt:
                    nxt = comp_next
                if kmin < nxt:
                    nxt = kmin
                if nxt <= now:
                    nxt = now + 1
                cycle = nxt if nxt < limit else limit
        self.kmin_wake = kmin
        sim.cycle = cycle
        sim.executed_cycles += executed


def attach_group(sims, recorder=None) -> List[Optional["LaneKernel"]]:
    """Build group arrays and attach kernels to the eligible lanes.

    Returns one entry per lane: the attached :class:`LaneKernel`, or
    None for lanes that stay scalar (reason from
    :func:`lane_vectorizable`).  With a
    :class:`~repro.obs.telemetry.SpanRecorder`, the bank-seam and
    core-seam wiring times are recorded as ``batch.bank_kernel`` /
    ``batch.core_kernel`` spans (pure readers).
    """
    if np is None:
        return [None] * len(sims)
    reasons = [lane_vectorizable(sim) for sim in sims]
    if all(reason is not None for reason in reasons):
        return [None] * len(sims)
    n_banks = max(len(sim.banks) for sim in sims)
    n_cores = max(len(sim.cores) for sim in sims)
    group = GroupKernel(len(sims), n_banks, n_cores)
    kernels: List[Optional[LaneKernel]] = []
    monotonic = time.monotonic
    t0 = monotonic()
    bank_t = core_t = 0.0
    attached = 0
    for lane, (sim, reason) in enumerate(zip(sims, reasons)):
        if reason is None:
            kernel = LaneKernel(sim, group, lane)
            tb = monotonic()
            kernel.attach_banks()
            tc = monotonic()
            kernel.attach_cores()
            bank_t += tc - tb
            core_t += monotonic() - tc
            attached += 1
            kernels.append(kernel)
        else:
            kernels.append(None)
    if recorder is not None and attached:
        recorder.add("batch.bank_kernel", t0, bank_t,
                     lanes=attached, banks=n_banks)
        recorder.add("batch.core_kernel", t0, core_t,
                     lanes=attached, cores=n_cores)
    return kernels
