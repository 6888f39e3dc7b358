"""The observability session: wiring, dispatch and live aggregation.

One :class:`Observability` instance represents one *enabled* tracing /
metrics session over one :class:`~repro.sim.simulator.CMPSimulator`.
Attaching installs the ``emit`` callable as the ``trace`` attribute of
every instrumented component (network, banks, arbiter, estimator) and
hooks the simulator's per-executed-cycle and measurement-boundary
callbacks.  Detached simulators keep ``trace = None`` everywhere and pay
only the ``is None`` guard at each emission site.

Responsibilities:

* fan every event out to the registered sinks (JSONL, Chrome trace,
  in-memory),
* keep the :class:`~repro.obs.metrics.MetricsRegistry` live (packet
  counters, per-class latency histograms, bank/arbiter/estimator
  counters),
* drive the :class:`~repro.obs.sampler.EpochSampler`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.events import (
    EV_ARB_REORDER, EV_BANK_START, EV_EST_PREDICT, EV_EST_UPDATE,
    EV_FAULT_BANK, EV_FAULT_CRC, EV_FAULT_REDIRECT, EV_FAULT_RETRANSMIT,
    EV_FAULT_TSB, EV_GUARD_DEADLOCK, EV_GUARD_VIOLATION, EV_PKT_DELIVER,
    EV_PKT_FORWARD, EV_PKT_INJECT, EV_SCHED_EXEC, EV_SCHED_SKIP,
    EV_TSB_COMBINE,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import EpochSampler


class Observability:
    """One tracing + metrics + sampling session.

    Args:
        epoch: Sampling period of the epoch sampler, in cycles.
    """

    def __init__(self, epoch: int = 256):
        self.registry = MetricsRegistry()
        self.sampler = EpochSampler(epoch)
        self.sinks: List = []
        self._sim = None
        self._handlers = {
            EV_PKT_INJECT: self._on_inject,
            EV_PKT_FORWARD: self._on_forward,
            EV_PKT_DELIVER: self._on_deliver,
            EV_BANK_START: self._on_bank_start,
            EV_EST_PREDICT: self._on_est_predict,
            EV_EST_UPDATE: self._on_est_update,
            EV_ARB_REORDER: self._on_reorder,
            EV_TSB_COMBINE: self._on_combine,
            EV_SCHED_SKIP: self._on_sched_skip,
            EV_FAULT_CRC: self._on_fault_crc,
            EV_FAULT_RETRANSMIT: self._on_fault_retransmit,
            EV_FAULT_TSB: self._on_fault_tsb,
            EV_FAULT_BANK: self._on_fault_bank,
            EV_FAULT_REDIRECT: self._on_fault_redirect,
            EV_GUARD_VIOLATION: self._on_guard_violation,
            EV_GUARD_DEADLOCK: self._on_guard_deadlock,
        }

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, sim) -> None:
        """Install this session on a simulator (one session per sim)."""
        if self._sim is not None:
            raise RuntimeError("Observability session already attached")
        self._sim = sim
        sim._obs = self
        sim.network.trace = self.emit
        sim.arbiter.trace = self.emit
        if sim.estimator is not None:
            sim.estimator.trace = self.emit
        for bank in sim.banks:
            bank.trace = self.emit
        self.sampler.bind(sim)

    def detach(self) -> None:
        """Remove every trace hook; the simulator runs dark again."""
        sim = self._sim
        if sim is None:
            return
        sim.network.trace = None
        sim.arbiter.trace = None
        if sim.estimator is not None:
            sim.estimator.trace = None
        for bank in sim.banks:
            bank.trace = None
        sim._obs = None
        self._sim = None

    def add_sink(self, sink) -> "Observability":
        self.sinks.append(sink)
        return self

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------

    def emit(self, cycle: int, kind: str, data: Dict) -> None:
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(data)
        for sink in self.sinks:
            sink.on_event(cycle, kind, data)

    # -- internal aggregation handlers ----------------------------------

    def _on_inject(self, data: Dict) -> None:
        self.registry.counter("net.injected").inc()

    def _on_forward(self, data: Dict) -> None:
        self.registry.counter("net.forwards").inc()

    def _on_deliver(self, data: Dict) -> None:
        self.registry.counter("net.delivered").inc()
        latency = data["latency"]
        self.registry.histogram("net.latency").observe(latency)
        self.registry.histogram(
            f"net.latency.{data['klass']}").observe(latency)

    def _on_bank_start(self, data: Dict) -> None:
        self.registry.counter("bank.ops").inc()
        self.registry.counter(f"bank.ops.{data['op']}").inc()
        self.registry.histogram("bank.service").observe(data["service"])
        self.registry.histogram(
            "bank.queue_depth").observe(data["queue_depth"])

    def _on_est_predict(self, data: Dict) -> None:
        self.registry.counter("est.predictions").inc()
        if data["predicted_busy"]:
            self.registry.counter("est.predicted_busy").inc()
        self.registry.histogram("est.estimate").observe(data["estimate"])

    def _on_est_update(self, data: Dict) -> None:
        self.registry.counter("est.updates").inc()

    def _on_reorder(self, data: Dict) -> None:
        self.registry.counter("arb.reorders").inc()
        self.registry.counter("arb.delayed").inc(data["delayed"])

    def _on_combine(self, data: Dict) -> None:
        self.registry.counter("tsb.combines").inc()

    def _on_sched_skip(self, data: Dict) -> None:
        self.registry.counter("sched.skipped_cycles").inc(data["span"])

    def _on_fault_crc(self, data: Dict) -> None:
        self.registry.counter("fault.crc_detected").inc()

    def _on_fault_retransmit(self, data: Dict) -> None:
        self.registry.counter("fault.retransmits").inc()
        self.registry.histogram("fault.backoff").observe(data["backoff"])

    def _on_fault_tsb(self, data: Dict) -> None:
        self.registry.counter("fault.tsb_failures").inc()
        self.registry.counter("fault.packets_rerouted").inc(
            data["rerouted"])

    def _on_fault_bank(self, data: Dict) -> None:
        self.registry.counter("fault.bank_port_failures").inc()

    def _on_fault_redirect(self, data: Dict) -> None:
        self.registry.counter("fault.bank_redirects").inc()
        self.registry.histogram(
            "fault.redirect_wait").observe(data["waited"])

    def _on_guard_violation(self, data: Dict) -> None:
        self.registry.counter("guard.violations").inc()

    def _on_guard_deadlock(self, data: Dict) -> None:
        self.registry.counter("guard.deadlocks").inc()

    # ------------------------------------------------------------------
    # Simulator lifecycle hooks
    # ------------------------------------------------------------------

    def on_cycle(self, now: int) -> None:
        """One executed cycle under the *dense* scheduler."""
        self.sampler.on_cycle(now)

    def on_executed_cycle(self, now: int) -> None:
        """One executed cycle under the *event* scheduler."""
        self.sampler.on_cycle(now)
        self.registry.counter("sched.executed_cycles").inc()
        if self.sinks:
            self.emit(now, EV_SCHED_EXEC, {})

    def on_measurement_start(self, sim) -> None:
        """Measurement stats were reset; re-baseline the sampler."""
        self.sampler.reset(sim.cycle)

    def on_run_end(self, sim) -> None:
        """A run() window completed; close the sampler's last epoch."""
        self.sampler.final_sample(sim.cycle)

    # ------------------------------------------------------------------

    @property
    def samples(self):
        """The epoch sampler's time-series."""
        return self.sampler.samples
