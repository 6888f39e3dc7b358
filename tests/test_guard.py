"""Invariant-guard coverage: fingerprint identity, crafted credit
leaks, accounting drift, and the deadlock watchdog.

The guard's core contract is that it is a pure *reader*: enabling it on
a fault-free run must not perturb a single result field, across all
four benchmarked schemes and both schedulers.  The violation tests then
corrupt simulator state deliberately and require a structured
diagnostic -- an observability event plus a typed exception -- instead
of silent drift or a hang.
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, GuardError, GuardViolationError
from repro.noc.packet import Packet, reset_packet_ids
from repro.obs import (
    EV_GUARD_DEADLOCK, EV_GUARD_VIOLATION, InMemorySink, Observability,
    validate_event,
)
from repro.sim.config import Scheme
from repro.sim.guard import GuardConfig, InvariantGuard
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous
from tests.conftest import queued, small_config

SCHEMES = [
    Scheme.SRAM_64TSB,
    Scheme.STTRAM_64TSB,
    Scheme.STTRAM_4TSB,
    Scheme.STTRAM_4TSB_WB,
]


def _run(scheme, scheduler, guard, cycles=400, warmup=100):
    reset_packet_ids()
    cfg = small_config(scheme)
    sim = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=5),
                       scheduler=scheduler, guard=guard)
    return sim, sim.run(cycles, warmup=warmup)


class TestGuardIsInvisible:
    """Guard-on, fault-free runs are fingerprint-identical to bare
    runs (the acceptance bar for an always-available guard)."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("scheduler", ["dense", "event"])
    def test_fingerprint_identical(self, scheme, scheduler):
        _, bare = _run(scheme, scheduler, guard=None)
        sim, guarded = _run(scheme, scheduler, guard=True)
        assert bare.packets_delivered > 0
        assert sim.guard.checks_run > 0  # the guard actually ran
        diffs = [
            key for key in bare.__dict__
            if bare.__dict__[key] != guarded.__dict__[key]
        ]
        assert not diffs, (
            f"{scheme.value}/{scheduler}: guard perturbed {diffs}"
        )

    def test_guard_accepts_config_and_instance(self):
        cfg_guard = GuardConfig(check_period=8, progress_window=500)
        sim, _ = _run(Scheme.STTRAM_4TSB, "event", guard=cfg_guard)
        assert sim.guard.config.check_period == 8
        instance = InvariantGuard(GuardConfig(check_period=4))
        sim, _ = _run(Scheme.STTRAM_4TSB, "event", guard=instance)
        assert sim.guard is instance


def _sim_with_traffic(scheduler="dense", guard=True):
    """A mid-flight simulator with packets resident in routers."""
    reset_packet_ids()
    cfg = small_config(Scheme.STTRAM_4TSB)
    sim = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=5),
                       scheduler=scheduler, guard=guard)
    for _ in range(300):
        sim.step()
        if sim.network.total_resident() > 0:
            return sim
    raise AssertionError("no resident packets after 300 cycles")


def _occupied_router(sim):
    for router in sim.network.routers:
        if router.n_resident:
            return router
    raise AssertionError("no occupied router")


class TestConservationViolations:
    def test_credit_leak_is_flagged(self):
        """Freeing the VC slot of a queued packet is a credit leak."""
        sim = _sim_with_traffic()
        obs = Observability()
        sink = InMemorySink()
        obs.add_sink(sink)
        obs.attach(sim)
        router = _occupied_router(sim)
        for entries in router.out_entries:
            if entries:
                pkt = entries[0]
                slot = pkt.in_port * router.n_vcs + pkt.vc
                router.vc_free_at[slot] = sim.cycle  # the leak
                break
        with pytest.raises(GuardViolationError) as err:
            sim.guard.check(sim.cycle)
        assert err.value.diagnostic["check"] in ("credit", "conservation")
        events = sink.by_kind(EV_GUARD_VIOLATION)
        assert events, "violation must be emitted on the event bus"
        assert not validate_event({
            "cycle": events[0].cycle, "kind": events[0].kind,
            **events[0].data,
        })

    def test_double_allocated_slot_is_flagged(self):
        sim = _sim_with_traffic()
        router = _occupied_router(sim)
        for entries in router.out_entries:
            if entries:
                pkt = entries[0]
                # Forge a second packet claiming the same (port, vc).
                twin = Packet(pkt.klass, pkt.src, pkt.dst, pkt.flits,
                              inject_cycle=pkt.inject_cycle)
                entries.append(queued(twin, pkt.ready_at, pkt.in_port,
                                      pkt.vc))
                router.n_resident += 1
                router.n_flits += twin.flits
                break
        with pytest.raises(GuardViolationError) as err:
            sim.guard.check(sim.cycle)
        assert err.value.diagnostic["check"] == "credit"

    def test_accounting_drift_is_flagged(self):
        """injected - delivered must equal queued + resident."""
        sim = _sim_with_traffic()
        sim.network.packets_injected_total += 1
        with pytest.raises(GuardViolationError) as err:
            sim.guard.check(sim.cycle)
        assert err.value.diagnostic["check"] == "accounting"

    def test_port_mask_drift_is_flagged(self):
        sim = _sim_with_traffic()
        router = _occupied_router(sim)
        router.port_mask ^= 1 << 6  # flip an unoccupied port bit
        with pytest.raises(GuardViolationError):
            sim.guard.check(sim.cycle)

    def test_flit_counter_drift_is_flagged(self):
        sim = _sim_with_traffic()
        _occupied_router(sim).n_flits += 1
        with pytest.raises(GuardViolationError) as err:
            sim.guard.check(sim.cycle)
        assert "n_flits" in err.value.diagnostic["detail"]

    def test_link_busy_counter_drift_is_flagged(self):
        sim = _sim_with_traffic()
        router = _occupied_router(sim)
        router.link_busy_until = max(router.out_busy_until) + 1
        with pytest.raises(GuardViolationError) as err:
            sim.guard.check(sim.cycle)
        assert err.value.diagnostic["check"] == "link-busy"

    def test_guard_error_hierarchy(self):
        assert issubclass(GuardViolationError, GuardError)
        assert issubclass(DeadlockError, GuardError)


def _deadlocked_sim(scheduler):
    """A simulation whose bank sinks reject every ejection: traffic
    backs up through the routers and forward progress stops."""
    reset_packet_ids()
    cfg = small_config(Scheme.STTRAM_4TSB)
    guard = GuardConfig(check_period=16, progress_window=300)
    sim = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=5),
                       scheduler=scheduler, guard=guard)
    reject = lambda pkt: False
    flow_at = sim.network._flow_at
    for node, accept in enumerate(flow_at):
        if accept is not None:
            flow_at[node] = reject
    return sim


class TestDeadlockWatchdog:
    @pytest.mark.parametrize("scheduler", ["dense", "event"])
    def test_stall_raises_within_window(self, scheduler):
        sim = _deadlocked_sim(scheduler)
        obs = Observability()
        sink = InMemorySink()
        obs.add_sink(sink)
        obs.attach(sim)
        with pytest.raises(DeadlockError) as err:
            sim.run(20_000, warmup=0)
        diag = err.value.diagnostic
        window = sim.guard.config.progress_window
        # Flagged promptly: within one check period of the deadline,
        # never silently skipped past (the event scheduler's wake bound
        # forces the deadline cycle to execute).
        assert diag["now"] - diag["since"] <= window + 16 + 1
        assert diag["resident"] > 0 or diag["queued"] > 0
        assert diag["occupancy"]
        events = sink.by_kind(EV_GUARD_DEADLOCK)
        assert len(events) == 1
        assert not validate_event({
            "cycle": events[0].cycle, "kind": events[0].kind,
            **events[0].data,
        })

    def test_idle_simulation_never_trips(self):
        """Quiescence resets the progress clock: an idle network is
        not a deadlock, no matter how long it idles."""
        reset_packet_ids()
        cfg = small_config(Scheme.STTRAM_4TSB)
        guard = GuardConfig(check_period=16, progress_window=50)
        sim = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=5),
                           scheduler="event", guard=guard)
        # Tiny window, healthy run: traffic pauses exceed 50 cycles at
        # warmup boundaries only if the network is non-quiesced; a
        # healthy run must complete without tripping.
        result = sim.run(2_000, warmup=200)
        assert result.packets_delivered > 0

    def test_wake_bound_is_never_at_idle(self):
        sim, _ = _run(Scheme.STTRAM_4TSB, "event", guard=True,
                      cycles=200, warmup=0)
        if sim.network.quiesced():
            from repro.noc.router import NEVER
            assert sim.guard.wake_bound(sim.cycle) == NEVER
