"""Unit and integration tests for the repro.obs observability layer."""

from __future__ import annotations

import pytest

from repro.noc.packet import reset_packet_ids
from repro.obs import (
    AccuracySummary, ChromeTraceSink, Event, InMemorySink, JSONLSink,
    MetricsRegistry, Observability, busy_at, percentiles_from_hist,
    resolve_predictions, validate_chrome_trace, validate_event,
    validate_jsonl,
)
from repro.obs.events import (
    ALL_KINDS, EV_BANK_END, EV_BANK_START, EV_EST_PREDICT, EV_PKT_DELIVER,
    EV_PKT_FORWARD, EV_PKT_INJECT, EV_SCHED_SKIP, EV_TSB_COMBINE,
    SCHEDULER_KINDS,
)
from repro.obs.metrics import Histogram
from repro.obs.report import render_report, shade
from repro.obs.schema import EVENT_SCHEMA
from repro.sim.config import Scheme
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous
from tests.conftest import small_config


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class TestPercentiles:
    def test_empty_hist_yields_zero(self):
        assert percentiles_from_hist({}) == {50.0: 0.0, 95.0: 0.0,
                                             99.0: 0.0}

    def test_single_value(self):
        assert percentiles_from_hist({7: 100}) == {50.0: 7.0, 95.0: 7.0,
                                                   99.0: 7.0}

    def test_nearest_rank_uniform(self):
        # Values 1..100, once each: pQ is exactly Q.
        hist = {v: 1 for v in range(1, 101)}
        ps = percentiles_from_hist(hist)
        assert ps == {50.0: 50.0, 95.0: 95.0, 99.0: 99.0}

    def test_matches_sorted_rank_definition(self):
        hist = {3: 5, 10: 2, 40: 1, 41: 1, 500: 1}
        expanded = sorted(
            v for v, n in hist.items() for _ in range(n)
        )
        total = len(expanded)
        for q in (50.0, 95.0, 99.0):
            rank = max(1, -(-int(q * total) // 100))
            expected = float(expanded[rank - 1])
            assert percentiles_from_hist(hist, (q,))[q] == expected

    def test_histogram_as_dict(self):
        h = Histogram("x")
        for v in (1, 1, 2, 100):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 4
        assert d["mean"] == pytest.approx(26.0)
        assert d["p50"] == 1.0
        assert d["max"] == 100.0


class TestRegistry:
    def test_created_on_first_use_and_cached(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc(3)
        assert reg.counter("a").value == 3
        assert "a" in reg and len(reg) == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_as_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(4)
        d = reg.as_dict()
        assert d["c"] == {"type": "counter", "value": 1}
        assert d["h"]["p99"] == 4.0


# ----------------------------------------------------------------------
# Accuracy
# ----------------------------------------------------------------------

class TestAccuracy:
    def test_busy_at(self):
        starts, ends = [10, 50], [43, 60]
        assert not busy_at(starts, ends, 9)
        assert busy_at(starts, ends, 10)
        assert busy_at(starts, ends, 42)
        assert not busy_at(starts, ends, 43)
        assert busy_at(starts, ends, 55)
        assert not busy_at(starts, ends, 60)

    def test_outcome_classification(self):
        s = AccuracySummary("wb")
        s.add(True, True)    # correct
        s.add(False, False)  # correct
        s.add(True, False)   # over-prediction
        s.add(False, True)   # under-prediction
        d = s.as_dict()
        assert d["samples"] == 4
        assert d["correct"] == 2
        assert d["over_predictions"] == 1
        assert d["under_predictions"] == 1
        assert d["accuracy"] == 0.5

    def test_resolve_with_horizon(self):
        intervals = {0: [(10, 43)]}
        predictions = [
            (0, 20, True),    # resolvable, correct
            (0, 5, True),     # resolvable, over-prediction
            (0, 99, True),    # beyond horizon: dropped
        ]
        s = resolve_predictions(predictions, intervals, "wb", horizon=50)
        assert s.samples == 2
        assert s.correct == 1
        assert s.over_predictions == 1


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------

class TestSchema:
    def test_every_kind_has_a_schema(self):
        assert set(EVENT_SCHEMA) == set(ALL_KINDS)

    def test_valid_event_passes(self):
        row = {"cycle": 5, "kind": EV_TSB_COMBINE,
               "node": 1, "port": 2, "pid": 3}
        assert validate_event(row) == []

    def test_missing_field_detected(self):
        row = {"cycle": 5, "kind": EV_TSB_COMBINE, "node": 1, "port": 2}
        assert any("pid" in e for e in validate_event(row))

    def test_undeclared_field_detected(self):
        row = {"cycle": 5, "kind": EV_TSB_COMBINE,
               "node": 1, "port": 2, "pid": 3, "extra": 1}
        assert any("extra" in e for e in validate_event(row))

    def test_bool_is_not_an_int(self):
        row = {"cycle": 5, "kind": EV_TSB_COMBINE,
               "node": True, "port": 2, "pid": 3}
        assert any("node" in e for e in validate_event(row))

    def test_unknown_kind(self):
        assert validate_event({"cycle": 1, "kind": "nope"}) != []


# ----------------------------------------------------------------------
# Instrumented end-to-end run
# ----------------------------------------------------------------------

def _instrumented(scheme=Scheme.STTRAM_4TSB_WB, cycles=600, warmup=0,
                  scheduler="event", epoch=128, seed=3, sink=None):
    reset_packet_ids()
    config = small_config(scheme)
    sim = CMPSimulator(config, homogeneous("tpcc", config, seed=seed),
                       scheduler=scheduler)
    obs = Observability(epoch=epoch)
    if sink is not None:
        obs.add_sink(sink)
    obs.attach(sim)
    result = sim.run(cycles, warmup=warmup)
    return sim, obs, result


class TestInstrumentedRun:
    def test_lifecycle_kinds_emitted_and_valid(self):
        sink = InMemorySink()
        _sim, _obs, _result = _instrumented(sink=sink)
        counts = sink.counts()
        for kind in (EV_PKT_INJECT, EV_PKT_FORWARD, EV_PKT_DELIVER,
                     EV_BANK_START, EV_BANK_END, EV_EST_PREDICT,
                     EV_TSB_COMBINE):
            assert counts.get(kind, 0) > 0, f"no {kind} events"
        for event in sink.events:
            assert validate_event(event.as_dict()) == [], event

    def test_metrics_match_network_stats_without_warmup(self):
        sink = InMemorySink()
        sim, obs, _result = _instrumented(sink=sink, warmup=0)
        reg = obs.registry
        net = sim.network.stats
        assert reg.counter("net.delivered").value == net.total_delivered
        assert reg.counter("net.injected").value == net.total_injected
        assert reg.histogram("net.latency").hist == net.latency_hist

    def test_detach_restores_dark_mode(self):
        sink = InMemorySink()
        sim, obs, _result = _instrumented(sink=sink, cycles=200)
        seen = len(sink)
        obs.detach()
        assert sim.network.trace is None
        assert all(b.trace is None for b in sim.banks)
        sim.run(200, warmup=0)
        assert len(sink) == seen

    def test_epoch_sampler_timeline(self):
        _sim, obs, _result = _instrumented(cycles=600, epoch=128)
        samples = obs.samples
        assert len(samples) >= 4
        for s in samples:
            assert 1 <= s.span
            assert all(0.0 <= f <= 1.0 for f in s.bank_busy_frac)
            assert all(v >= 0 for v in s.router_occupancy)
        cycles = [s.cycle for s in samples]
        assert cycles == sorted(cycles)
        # The final sample is forced at the end of the run.
        assert samples[-1].cycle == _sim.cycle
        # Delivered counts are cumulative within the measurement window.
        delivered = [s.delivered for s in samples]
        assert delivered == sorted(delivered)

    def test_estimator_accuracy_in_result(self):
        _sim, _obs, result = _instrumented()
        acc = result.estimator_accuracy
        assert acc is not None
        assert acc["estimator"] == "wb"
        assert acc["samples"] > 0
        assert acc["samples"] == (acc["correct"] + acc["over_predictions"]
                                  + acc["under_predictions"])
        assert 0.0 <= acc["accuracy"] <= 1.0
        d = result.to_dict()
        assert d["estimator_accuracy"] == acc
        assert d["latency_p99"] >= d["latency_p95"] >= d["latency_p50"] > 0

    def test_round_robin_run_has_no_accuracy(self):
        _sim, _obs, result = _instrumented(scheme=Scheme.STTRAM_64TSB)
        assert result.estimator_accuracy is None

    def test_sched_events_only_under_event_scheduler(self):
        sink = InMemorySink()
        _instrumented(scheduler="dense", sink=sink, cycles=300)
        assert not any(e.kind in SCHEDULER_KINDS for e in sink.events)


class TestGroundTruthIntervals:
    def test_recorded_without_observability(self):
        """Service intervals are always on (analysis needs ground truth
        even for uninstrumented runs)."""
        reset_packet_ids()
        config = small_config()
        sim = CMPSimulator(config, homogeneous("tpcc", config, seed=3))
        sim.run(400, warmup=0)
        intervals = [b.stats.service_intervals for b in sim.banks]
        assert any(intervals)
        for bank, ivals in zip(sim.banks, intervals):
            for start, end in ivals:
                assert start <= end
            # Non-overlapping and ordered (bank service is serial).
            for (s1, e1), (s2, e2) in zip(ivals, ivals[1:]):
                assert e1 <= s2
            # Preemption may truncate intervals below busy_cycles,
            # never above.
            assert sum(e - s for s, e in ivals) <= bank.stats.busy_cycles


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

class TestSinks:
    def test_jsonl_roundtrip_and_schema(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JSONLSink(path)
        _sim, obs, _result = _instrumented(sink=sink, cycles=300)
        obs.close()
        assert sink.events_written > 0
        rows, errors = validate_jsonl(path)
        assert errors == []
        assert rows == sink.events_written

    def test_chrome_trace_document(self, tmp_path):
        sink = ChromeTraceSink()
        _sim, obs, _result = _instrumented(sink=sink, cycles=300)
        path = str(tmp_path / "trace.json")
        sink.write(path)
        slices, _tracks, errors = validate_chrome_trace(path)
        assert errors == []
        assert slices == len(sink) > 0

    def test_in_memory_sink_queries(self):
        sink = InMemorySink()
        sink.on_event(1, EV_SCHED_SKIP, {"start": 2, "span": 3})
        sink.on_event(5, EV_SCHED_SKIP, {"start": 6, "span": 1})
        assert len(sink) == 2
        assert len(sink.by_kind(EV_SCHED_SKIP)) == 2
        assert sink.counts() == {EV_SCHED_SKIP: 2}
        assert sink.events[0] == Event(1, EV_SCHED_SKIP,
                                       {"start": 2, "span": 3})


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------

class TestReport:
    def test_shade_ramp(self):
        assert shade(0.0) == " "
        assert shade(1.0) == "@"
        assert shade(2.0) == "@"  # clamped

    def test_render_report_smoke(self):
        _sim, obs, result = _instrumented(cycles=400)
        text = render_report(result.to_dict(), obs,
                             _sim.config.mesh_width)
        assert "packet latency" in text
        assert "accuracy" in text
        assert "Epoch samples" in text
        assert "metrics:" in text
