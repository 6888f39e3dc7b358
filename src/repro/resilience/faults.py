"""Deterministic fault-injection engine (config, schedule, fault plane).

One :class:`FaultPlane` instance attaches to one
:class:`~repro.sim.simulator.CMPSimulator` and owns all injected-fault
state: the seeded RNG that drives per-link-traversal corruption draws,
the sorted schedule of stuck-at TSB / bank-port failures, per-packet
retransmission attempt counts, and the monotonic fault counters the
``repro.cli chaos`` report prints.

Determinism: every corruption draw happens at a link traversal, and the
dense and event schedulers forward packets in bit-identical order, so a
``(FaultConfig.seed, workload)`` pair fully determines a fault run.
Scheduled failures fire from ``on_cycle`` at the top of each executed
cycle; the simulator's cycle-skip bound folds in ``next_scheduled`` so
the event scheduler never skips over a failure cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import FaultConfigError, FaultError
from repro.noc.packet import Packet, PacketClass
from repro.noc.router import NEVER
from repro.noc.topology import DOWN, N_PORTS
from repro.obs.events import (
    EV_FAULT_BANK, EV_FAULT_CRC, EV_FAULT_RETRANSMIT, EV_FAULT_TSB,
)


# ----------------------------------------------------------------------
# CRC-16/CCITT over the packet header (the detection model)
# ----------------------------------------------------------------------

def crc16(data: bytes, poly: int = 0x1021, init: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE over ``data`` (the NoC link-layer checksum)."""
    crc = init
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ poly) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def packet_crc(pkt: Packet) -> int:
    """Header CRC a router ingress would check for ``pkt``.

    Covers the fields a corrupted head flit could falsify: identity,
    class, endpoints, length and the write/bank routing metadata.
    """
    bank = 0xFFFF if pkt.bank is None else pkt.bank
    header = (
        (pkt.pid & 0xFFFFFFFF).to_bytes(4, "big")
        + bytes((int(pkt.klass), pkt.flits & 0xFF, int(pkt.is_write)))
        + (pkt.src & 0xFFFF).to_bytes(2, "big")
        + (pkt.dst & 0xFFFF).to_bytes(2, "big")
        + (bank & 0xFFFF).to_bytes(2, "big")
    )
    return crc16(header)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultConfig:
    """Seeded, declarative fault schedule for one run.

    All three fault models are off by default; a default-constructed
    ``FaultConfig`` injects nothing.
    """

    #: seed for the corruption-draw RNG (full determinism contract)
    seed: int = 1
    #: per-link-traversal probability of flit corruption (0 disables)
    crc_rate: float = 0.0
    #: source-NI retransmission backoff: ``min(cap, base << (attempt-1))``
    retransmit_base_backoff: int = 4
    retransmit_max_backoff: int = 256
    #: safety valve: a packet corrupted this many times raises
    #: :class:`~repro.errors.FaultError` (only reachable with absurd
    #: rates; real transient-fault rates retry a handful of times)
    max_retransmits: int = 64
    #: stuck-at TSB failures: ``(region_index, fail_cycle)`` pairs
    tsb_failures: Tuple[Tuple[int, int], ...] = ()
    #: bank port failures: ``(bank, fail_cycle, duration)`` triples;
    #: ``duration=None`` means the port never heals
    bank_port_failures: Tuple[Tuple[int, int, Optional[int]], ...] = \
        field(default_factory=tuple)
    #: cycles a queued request waits at a failed bank port before the
    #: controller redirects it around the array
    bank_redirect_timeout: int = 64

    def any_faults(self) -> bool:
        return bool(
            self.crc_rate > 0
            or self.tsb_failures
            or self.bank_port_failures
        )

    def validate(self, config) -> "FaultConfig":
        """Check the schedule against a ``SystemConfig``; returns self.

        Raises :class:`~repro.errors.FaultConfigError` on rates outside
        [0, 1), non-positive backoff/timeout knobs, out-of-range region
        or bank indexes, or a TSB fault on a scheme without region TSBs
        (there is no vertical link to fail, and nothing to degrade to).
        """
        if not 0.0 <= self.crc_rate < 1.0:
            raise FaultConfigError(
                f"crc_rate must be in [0, 1), got {self.crc_rate}"
            )
        for name in ("retransmit_base_backoff", "retransmit_max_backoff",
                     "max_retransmits", "bank_redirect_timeout"):
            if getattr(self, name) < 1:
                raise FaultConfigError(f"{name} must be >= 1")
        if self.tsb_failures:
            n_regions = config.n_region_tsbs
            if n_regions is None:
                raise FaultConfigError(
                    "TSB faults need a region-restricted scheme "
                    "(n_region_tsbs is None: there is no TSB to fail)"
                )
            if n_regions < 2:
                raise FaultConfigError(
                    "TSB degradation needs >= 2 regions to remap onto"
                )
            if len(self.tsb_failures) >= n_regions:
                raise FaultConfigError(
                    f"cannot fail {len(self.tsb_failures)} of "
                    f"{n_regions} region TSBs and keep a healthy donor"
                )
            for region, cycle in self.tsb_failures:
                if not 0 <= region < n_regions:
                    raise FaultConfigError(
                        f"TSB fault region {region} out of range "
                        f"[0, {n_regions})"
                    )
                if cycle < 0:
                    raise FaultConfigError("TSB fail_cycle must be >= 0")
        for entry in self.bank_port_failures:
            bank, cycle, duration = entry
            if not 0 <= bank < config.n_banks:
                raise FaultConfigError(
                    f"bank fault index {bank} out of range "
                    f"[0, {config.n_banks})"
                )
            if cycle < 0:
                raise FaultConfigError("bank fail_cycle must be >= 0")
            if duration is not None and duration < 1:
                raise FaultConfigError(
                    "bank fault duration must be >= 1 (or None)"
                )
        return self


# ----------------------------------------------------------------------
# The fault plane
# ----------------------------------------------------------------------

class FaultPlane:
    """Live fault-injection state bound to one simulator."""

    def __init__(self, sim, fault_config: FaultConfig):
        self.sim = sim
        self.config = fault_config.validate(sim.config)
        self.network = sim.network
        self.rng = random.Random(fault_config.seed)
        self.crc_rate = fault_config.crc_rate
        #: pid -> retransmission attempts so far (backoff exponent)
        self.attempts: Dict[int, int] = {}
        # monotonic counters (never reset; the chaos report reads them)
        self.crc_detected = 0
        self.retransmits = 0
        self.packets_rerouted = 0
        #: failed region -> donor region (mirrors RegionMap state)
        self.remapped: Dict[int, int] = {}
        self.bank_ports_failed = 0

        events = []
        for region, cycle in fault_config.tsb_failures:
            events.append((cycle, 0, region, None))
        for bank, cycle, duration in fault_config.bank_port_failures:
            events.append((cycle, 1, bank, duration))
        #: scheduled failures sorted by (cycle, kind, index)
        self._schedule = sorted(
            events, key=lambda e: (e[0], e[1], e[2]))
        self._next_idx = 0

        # Only hook the link-traversal hot path when corruption draws
        # are actually configured; TSB/bank-only runs keep the network
        # on the exact fault-free forward path.
        if self.crc_rate > 0:
            self.network.faults = self

    # ------------------------------------------------------------------
    # Scheduled faults
    # ------------------------------------------------------------------

    def next_scheduled(self, now: int) -> int:
        """Cycle of the next pending scheduled failure (NEVER if none).

        Folded into the simulator's cycle-skip bound so the event
        scheduler executes the failure cycle instead of skipping it.
        """
        if self._next_idx >= len(self._schedule):
            return NEVER
        return self._schedule[self._next_idx][0]

    def on_cycle(self, now: int) -> None:
        """Fire every scheduled failure due at or before ``now``."""
        schedule = self._schedule
        i = self._next_idx
        while i < len(schedule) and schedule[i][0] <= now:
            _cycle, kind, index, duration = schedule[i]
            i += 1
            if kind == 0:
                self._fail_tsb(index, now)
            else:
                self._fail_bank_port(index, duration, now)
        self._next_idx = i

    # ------------------------------------------------------------------
    # Model 1: transient flit corruption (CRC + NACK/retransmit)
    # ------------------------------------------------------------------

    def on_link_traversal(self, pkt: Packet, node: int, out_port: int,
                          now: int) -> bool:
        """Corruption draw for one link traversal.

        Returns True when the flit was corrupted: the downstream CRC
        check fails, the packet is dropped on the wire, and the source
        NI retransmits after the NACK returns plus exponential backoff.
        The caller (``Network._forward``) then skips the downstream
        accept; all upstream bookkeeping (VC release, link busy, stats)
        already happened, exactly as for a delivered-then-discarded flit.
        """
        if self.rng.random() >= self.crc_rate:
            return False
        # Model the detection for real: xor a random nonzero syndrome
        # onto the wire CRC and check it against the recomputed header
        # CRC at the ingress.  A nonzero syndrome is always caught.
        expected = packet_crc(pkt)
        syndrome = self.rng.randrange(1, 1 << 16)
        if (expected ^ syndrome) == expected:  # pragma: no cover
            return False  # undetectable corruption (unreachable)
        attempt = self.attempts.get(pkt.pid, 0) + 1
        self.attempts[pkt.pid] = attempt
        if attempt > self.config.max_retransmits:
            raise FaultError(
                f"packet {pkt.pid} exceeded {self.config.max_retransmits} "
                f"retransmissions (crc_rate={self.crc_rate} is not a "
                f"transient-fault regime)"
            )
        self.crc_detected += 1
        self.retransmits += 1
        backoff = min(
            self.config.retransmit_max_backoff,
            self.config.retransmit_base_backoff << (attempt - 1),
        )
        # NACK return latency: corruption is detected one hop downstream
        # of ``node``; the NACK travels back to the source NI from there.
        down_node = self.network.neighbor_node[node][out_port]
        nack = self.network.topo.manhattan(down_node, pkt.src) \
            * self.network.hop_cycles
        ready_at = now + max(1, nack + backoff)
        trace = self.network.trace
        if trace is not None:
            trace(now, EV_FAULT_CRC, {
                "pid": pkt.pid, "node": node, "port": out_port,
                "attempt": attempt, "syndrome": syndrome,
            })
            trace(now, EV_FAULT_RETRANSMIT, {
                "pid": pkt.pid, "src": pkt.src, "attempt": attempt,
                "backoff": backoff, "ready_at": ready_at,
            })
        self.network.requeue_at_source(pkt, now, ready_at)
        return True

    # ------------------------------------------------------------------
    # Model 2: stuck-at TSB / vertical-link failure
    # ------------------------------------------------------------------

    def _fail_tsb(self, region_index: int, now: int) -> None:
        """Degrade a region whose TSB went stuck-at.

        Scope: the failure takes out the region's request path (the
        core->cache DOWN traversal at the TSB node).  Responses and ACKs
        ascend at their destination column and are unaffected.
        """
        sim = self.sim
        region_map = sim.region_map
        region = region_map.regions[region_index]
        failed_core_node = region.tsb_core_node
        donor = region_map.remap_tsb(region_index)
        self.remapped[region_index] = donor
        estimator = sim.estimator
        if estimator is not None:
            estimator.on_topology_change(tuple(region.banks), now)
        arbiter = sim.arbiter
        refresh = getattr(arbiter, "refresh_topology", None)
        if refresh is not None:
            refresh()
        # Parked arbitrations were decided under the old parent/child
        # map; the dense loop re-decides them this cycle.
        self.network.poke_parked(now)
        rerouted = self._reroute_inflight(failed_core_node, now)
        self.packets_rerouted += rerouted
        trace = self.network.trace
        if trace is not None:
            trace(now, EV_FAULT_TSB, {
                "region": region_index, "to_region": donor,
                "rerouted": rerouted,
            })

    def _reroute_inflight(self, failed_core_node: int, now: int) -> int:
        """Re-waypoint in-flight requests headed for the dead TSB.

        Requests still in a source NI queue or parked in a core-layer
        router with ``via == failed_core_node`` (or already at the TSB
        node waiting on the dead DOWN link) get the remapped waypoint
        and, where the new X-Y step differs, move between output queues.
        """
        net = self.network
        region_map = self.sim.region_map
        request = PacketClass.REQUEST
        request_via = region_map.request_via
        count = 0
        for queue in net.source_queues:
            for pkt in queue:
                if pkt.klass is request and pkt.via == failed_core_node:
                    pkt.via = request_via(pkt.bank)
                    count += 1
        nodes_per_layer = net.topo.nodes_per_layer
        next_port = net.routing.next_port
        for router in net.routers:
            node = router.node
            if node >= nodes_per_layer or router.n_resident == 0:
                continue
            moves = []
            for out_port in range(N_PORTS):
                for i, pkt in enumerate(router.out_entries[out_port]):
                    if pkt.klass is not request or pkt.bank is None:
                        continue
                    if pkt.via == failed_core_node:
                        pass  # waypoint not yet consumed
                    elif (pkt.via is None and node == failed_core_node
                            and out_port == DOWN):
                        pass  # consumed at the TSB, parked on DOWN
                    else:
                        continue
                    pkt.via = request_via(pkt.bank)
                    new_port = next_port(node, pkt)
                    count += 1
                    if new_port != out_port:
                        moves.append((out_port, i, new_port, pkt))
            if not moves:
                continue
            # Flush parked-delay accrual for every port a packet leaves
            # or joins; the snapshots would reference moved packets.
            for port in {m[0] for m in moves} | {m[2] for m in moves}:
                net.release_parked(node, port, now)
            # Apply in reverse index order per port so deletions do not
            # shift the indexes of later moves.
            # A move stays within this router, so each packet keeps its
            # input VC (``in_port``, ``vc``) and arrival (``ready_at``).
            for out_port, i, new_port, pkt in sorted(
                    moves, key=lambda m: (m[0], -m[1])):
                del router.out_entries[out_port][i]
                if not router.out_entries[out_port]:
                    router.port_mask &= ~(1 << out_port)
                router.out_entries[new_port].append(pkt)
                router.port_mask |= 1 << new_port
            # Faults fire before the network steps, so the dense loop
            # may forward a moved entry this very cycle.
            net.poke_router(node, now)
            net._active_routers.add(node)
        return count

    # ------------------------------------------------------------------
    # Model 3: bank port failure
    # ------------------------------------------------------------------

    def _fail_bank_port(self, bank: int, duration: Optional[int],
                        now: int) -> None:
        until = NEVER if duration is None else now + duration
        controller = self.sim.banks[bank]
        controller.fail_port(
            now, until, self.config.bank_redirect_timeout)
        # The controller must keep stepping through the failure window
        # to run its timeout/redirect scan.
        self.sim._active_banks.add(bank)
        self.bank_ports_failed += 1
        trace = self.network.trace
        if trace is not None:
            trace(now, EV_FAULT_BANK, {"bank": bank, "until": until})

    # ------------------------------------------------------------------

    def report(self) -> Dict:
        """Counter snapshot for the chaos CLI / tests."""
        banks = self.sim.banks
        return {
            "seed": self.config.seed,
            "crc_detected": self.crc_detected,
            "retransmits": self.retransmits,
            "max_attempts": max(self.attempts.values(), default=0),
            "tsb_remapped": dict(self.remapped),
            "packets_rerouted": self.packets_rerouted,
            "bank_ports_failed": self.bank_ports_failed,
            "bank_redirected_reads": sum(
                b.redirected_reads for b in banks),
            "bank_redirected_writes": sum(
                b.redirected_writes for b in banks),
            "bank_redirected_fills": sum(
                b.redirected_fills for b in banks),
        }
