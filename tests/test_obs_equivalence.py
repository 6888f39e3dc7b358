"""Observability must not perturb -- nor differ across -- schedulers.

Two properties:

1. **Zero perturbation**: attaching an observability session leaves the
   simulation bit-identical (same ``SimulationResult``) to an
   uninstrumented run.
2. **Scheduler invariance**: the dense and event schedulers emit
   identical event streams (modulo the ``sched.*`` diagnostics, which
   only exist under the event scheduler) and identical epoch samples at
   common epoch boundaries, on a seeded write-burst workload.
"""

from __future__ import annotations

import pytest

from repro.noc.packet import reset_packet_ids
from repro.obs import InMemorySink, Observability
from repro.obs.events import SCHEDULER_KINDS
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous
from tests.conftest import burst_workload, small_config

CYCLES = 900
WARMUP = 150


def _burst_run(scheduler, instrument=True, seed=5):
    reset_packet_ids()
    config = small_config()
    sim = CMPSimulator(config, burst_workload(config, seed=seed),
                       scheduler=scheduler)
    obs = sink = None
    if instrument:
        obs = Observability(epoch=256)
        sink = InMemorySink()
        obs.add_sink(sink)
        obs.attach(sim)
    result = sim.run(CYCLES, warmup=WARMUP)
    return sim, result, obs, sink


def _stream(sink):
    """The scheduler-comparable event stream: (cycle, kind, payload)."""
    return [
        (e.cycle, e.kind, e.data)
        for e in sink.events if e.kind not in SCHEDULER_KINDS
    ]


class TestObservabilityEquivalence:
    @pytest.mark.parametrize("scheduler", ["dense", "event"])
    def test_tracing_does_not_perturb_results(self, scheduler):
        _s, bare, _o, _k = _burst_run(scheduler, instrument=False)
        _s, traced, _o, _k = _burst_run(scheduler, instrument=True)
        assert bare.__dict__ == traced.__dict__

    def test_event_streams_identical_across_schedulers(self):
        _s1, dense_result, _o1, dense_sink = _burst_run("dense")
        _s2, event_result, _o2, event_sink = _burst_run("event")

        dense_stream = _stream(dense_sink)
        event_stream = _stream(event_sink)
        assert len(dense_stream) == len(event_stream)
        # Pinpoint the first divergence rather than dumping both streams.
        for i, (d, e) in enumerate(zip(dense_stream, event_stream)):
            assert d == e, f"stream diverges at event {i}: {d} != {e}"
        assert dense_stream, "comparison must not be vacuous"
        assert dense_result.__dict__ == event_result.__dict__

    def test_estimator_accuracy_scheduler_invariant(self):
        _s1, dense_result, _o1, _k1 = _burst_run("dense")
        _s2, event_result, _o2, _k2 = _burst_run("event")
        acc = dense_result.estimator_accuracy
        assert acc is not None and acc["samples"] > 0
        assert acc == event_result.estimator_accuracy

    def test_epoch_samples_match_at_common_boundaries(self):
        """Samples taken at the same cycle agree; the event scheduler
        may displace a boundary past skipped cycles (recording its true
        cycle/span), which shifts the *window* a rate is averaged over.
        So at every common cycle the instantaneous and cumulative fields
        (router occupancy, injected/delivered, estimator accuracy) must
        be identical, and whenever the two samples cover the same window
        (equal spans) the whole sample -- busy fractions, TSB rates --
        must be identical too."""
        _s1, _r1, dense_obs, _k1 = _burst_run("dense")
        _s2, _r2, event_obs, _k2 = _burst_run("event")

        dense_samples = {s.cycle: s for s in dense_obs.samples}
        event_samples = {s.cycle: s for s in event_obs.samples}
        common = sorted(set(dense_samples) & set(event_samples))
        assert common, "no common epoch boundaries"
        assert max(dense_samples) == max(event_samples)  # end-of-run

        full_matches = 0
        for cycle in common:
            d, e = dense_samples[cycle], event_samples[cycle]
            assert d.router_occupancy == e.router_occupancy, cycle
            assert d.injected == e.injected, cycle
            assert d.delivered == e.delivered, cycle
            assert d.estimator_accuracy == e.estimator_accuracy, cycle
            if d.span == e.span:
                dd, ee = d.as_dict(), e.as_dict()
                dd.pop("executed")
                ee.pop("executed")
                assert dd == ee, f"epoch sample at cycle {cycle} diverges"
                full_matches += 1
        assert full_matches, "no same-span samples to compare"

    def test_homogeneous_app_stream_equivalence(self):
        """Same property on a cache-realistic workload (tpcc)."""
        def run(scheduler):
            reset_packet_ids()
            config = small_config()
            sim = CMPSimulator(
                config, homogeneous("tpcc", config, seed=11),
                scheduler=scheduler)
            obs = Observability(epoch=200)
            sink = InMemorySink()
            obs.add_sink(sink)
            obs.attach(sim)
            sim.run(500, warmup=100)
            return sink

        assert _stream(run("dense")) == _stream(run("event"))
