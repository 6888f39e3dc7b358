"""Always-available runtime invariant guard (conservation + watchdog).

The guard is a pure *reader*: it never mutates simulator state, so a
guard-enabled fault-free run is fingerprint-identical to a bare run by
construction (pinned by tests/test_guard.py across all four schemes and
both schedulers).  Enable it with ``CMPSimulator(..., guard=True)`` (or
pass a :class:`GuardConfig` / :class:`InvariantGuard`).

Checks, every ``check_period`` executed cycles:

* **flit/credit conservation** -- per router, the occupied-VC count,
  the output-queue entry count and ``n_resident`` must agree; every
  entry's ``(in_port, vc)`` slot must hold exactly that entry's packet
  (a mismatch is a credit leak or a double allocation); ``port_mask``
  must mirror queue occupancy.
* **RCA counters** -- per router, ``n_flits`` must equal the flits of
  the queued entries and ``link_busy_until`` the largest non-LOCAL
  ``out_busy_until``; the RCA tick reads these two instead of walking
  the queues and ports.
* **in-flight packet accounting** -- the network's monotonic
  ``injected - delivered`` must equal NI-queued plus router-resident
  packets.
* **deadlock/livelock watchdog** -- a progress signature (injections,
  deliveries, committed instructions) that does not change for
  ``progress_window`` simulated cycles while packets remain in the
  network raises :class:`~repro.errors.DeadlockError` carrying a
  structured diagnostic, after emitting a ``guard.deadlock`` event on
  the observability bus.  Under the event scheduler the guard's
  ``wake_bound`` is folded into the cycle-skip bound, so a stalled
  simulation *executes* the deadline cycle instead of hanging or
  silently skipping to the run limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import DeadlockError, GuardViolationError
from repro.noc.router import NEVER
from repro.noc.topology import LOCAL
from repro.obs.events import EV_GUARD_DEADLOCK, EV_GUARD_VIOLATION


@dataclass(frozen=True)
class GuardConfig:
    """Knobs for one :class:`InvariantGuard`."""

    #: executed cycles between full invariant sweeps
    check_period: int = 64
    #: simulated cycles without forward progress => deadlock
    progress_window: int = 2000
    conservation: bool = True
    watchdog: bool = True


class InvariantGuard:
    """Invariant checker bound to one simulator (pure reads only)."""

    def __init__(self, config: Optional[GuardConfig] = None):
        self.config = config or GuardConfig()
        if self.config.check_period < 1:
            raise ValueError("check_period must be >= 1")
        if self.config.progress_window < 1:
            raise ValueError("progress_window must be >= 1")
        self.sim = None
        self.network = None
        self.checks_run = 0
        self.violations = 0
        self._executed = 0
        self._last_sig: Optional[Tuple[int, int, int]] = None
        self._last_progress = 0
        self._deadline = NEVER

    def bind(self, sim) -> None:
        self.sim = sim
        self.network = sim.network
        self._last_sig = self._signature()
        self._last_progress = sim.cycle
        self._deadline = sim.cycle + self.config.progress_window

    # ------------------------------------------------------------------
    # Hot hook (one call per executed cycle)
    # ------------------------------------------------------------------

    def on_executed_cycle(self, now: int) -> None:
        self._executed += 1
        if self._executed % self.config.check_period and \
                now < self._deadline:
            return
        self.check(now)

    def wake_bound(self, now: int) -> int:
        """Cycle by which the scheduler must execute for the watchdog.

        NEVER while the network is empty (an idle simulation cannot
        deadlock; the progress clock restarts when traffic appears), so
        the event scheduler's cycle skipping is unaffected at idle.
        """
        if not self.config.watchdog or self.network.quiesced():
            return NEVER
        deadline = self._deadline
        return deadline if deadline > now else now + 1

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def check(self, now: int) -> None:
        """Run one full invariant sweep (also callable from tests)."""
        self.checks_run += 1
        config = self.config
        if config.conservation:
            self._check_conservation(now)
        if config.watchdog:
            self._check_progress(now)

    def on_run_end(self, now: int) -> None:
        """Final conservation sweep at a run boundary."""
        if self.config.conservation:
            self.checks_run += 1
            self._check_conservation(now)

    def _signature(self) -> Tuple[int, int, int]:
        """Forward-progress signature: any change means liveness."""
        net = self.network
        return (
            net.packets_injected_total,
            net.packets_delivered_total,
            sum(c.stats.committed for c in self.sim.cores),
        )

    def _check_progress(self, now: int) -> None:
        sig = self._signature()
        if sig != self._last_sig or self.network.quiesced():
            self._last_sig = sig
            self._last_progress = now
            self._deadline = now + self.config.progress_window
            return
        if now - self._last_progress < self.config.progress_window:
            return
        net = self.network
        resident = net.total_resident()
        queued = sum(len(q) for q in net.source_queues)
        diagnostic = {
            "now": now,
            "since": self._last_progress,
            "window": self.config.progress_window,
            "resident": resident,
            "queued": queued,
            "signature": list(sig),
            "occupancy": {
                r.node: r.n_resident
                for r in net.routers if r.n_resident
            },
        }
        self._emit(now, EV_GUARD_DEADLOCK, {
            "since": self._last_progress,
            "window": self.config.progress_window,
            "resident": resident,
            "queued": queued,
        })
        self.violations += 1
        raise DeadlockError(
            f"no forward progress for {now - self._last_progress} cycles "
            f"(window {self.config.progress_window}): {resident} packets "
            f"resident in routers, {queued} queued at NIs",
            diagnostic=diagnostic,
        )

    def _check_conservation(self, now: int) -> None:
        net = self.network
        resident_total = 0
        for router in net.routers:
            occupied = sum(
                1 for pkt in router.vc_pkt if pkt is not None)
            entries_total = 0
            flits = 0
            mask = 0
            seen_slots: Dict[int, bool] = {}
            for port, entries in enumerate(router.out_entries):
                if entries:
                    mask |= 1 << port
                entries_total += len(entries)
                for entry in entries:
                    flits += entry[2].flits
                    slot = entry[0] * router.n_vcs + entry[1]
                    if slot in seen_slots:
                        self._violation(
                            now, "credit",
                            f"router {router.node}: VC slot {slot} "
                            f"allocated to two entries",
                        )
                    seen_slots[slot] = True
                    if router.vc_pkt[slot] is not entry[2]:
                        self._violation(
                            now, "credit",
                            f"router {router.node}: VC slot {slot} does "
                            f"not hold the packet queued on port {port} "
                            f"(credit leak)",
                        )
            if not (occupied == entries_total == router.n_resident):
                self._violation(
                    now, "conservation",
                    f"router {router.node}: {occupied} occupied VCs, "
                    f"{entries_total} queued entries, n_resident="
                    f"{router.n_resident}",
                )
            if mask != router.port_mask:
                self._violation(
                    now, "conservation",
                    f"router {router.node}: port_mask "
                    f"{router.port_mask:#x} != occupancy {mask:#x}",
                )
            if flits != router.n_flits:
                self._violation(
                    now, "conservation",
                    f"router {router.node}: {flits} queued flits, "
                    f"n_flits={router.n_flits}",
                )
            link_busy = max(router.out_busy_until[:LOCAL])
            if link_busy != router.link_busy_until:
                self._violation(
                    now, "link-busy",
                    f"router {router.node}: link_busy_until="
                    f"{router.link_busy_until}, but the busiest non-LOCAL "
                    f"output port is busy until {link_busy}",
                )
            resident_total += router.n_resident
        queued = sum(len(q) for q in net.source_queues)
        in_flight = net.packets_injected_total - net.packets_delivered_total
        if in_flight != queued + resident_total:
            self._violation(
                now, "accounting",
                f"injected - delivered = {in_flight}, but "
                f"{queued} queued + {resident_total} resident",
            )

    # ------------------------------------------------------------------

    def _emit(self, now: int, kind: str, data: Dict) -> None:
        obs = getattr(self.sim, "_obs", None)
        if obs is not None:
            obs.emit(now, kind, data)

    def _violation(self, now: int, check: str, detail: str) -> None:
        self.violations += 1
        self._emit(now, EV_GUARD_VIOLATION, {
            "check": check, "detail": detail,
        })
        raise GuardViolationError(
            f"invariant violation ({check}) at cycle {now}: {detail}",
            diagnostic={"now": now, "check": check, "detail": detail},
        )

    def report(self) -> Dict:
        return {
            "checks_run": self.checks_run,
            "violations": self.violations,
            "check_period": self.config.check_period,
            "progress_window": self.config.progress_window,
        }
