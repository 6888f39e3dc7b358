"""Unified observability layer: events, metrics, sampling, sinks.

Usage::

    from repro.obs import Observability, InMemorySink

    sim = CMPSimulator(config, workload)
    obs = Observability(epoch=256)
    sink = InMemorySink()
    obs.add_sink(sink)
    obs.attach(sim)
    result = sim.run(cycles=2000, warmup=500)
    obs.on_run_end(sim)     # close the final epoch sample

Tracing is strictly opt-in: an unattached simulator holds ``trace =
None`` in every instrumented component and pays one ``is None`` test
per emission site.
"""

from repro.obs.accuracy import (
    AccuracySummary, busy_at, per_bank_busy_fraction, resolve_predictions,
)
from repro.obs.events import (
    ALL_KINDS, SCHEDULER_KINDS, Event, InMemorySink,
    EV_ARB_REORDER, EV_BANK_END, EV_BANK_START, EV_EST_PREDICT,
    EV_EST_UPDATE, EV_FAULT_BANK, EV_FAULT_CRC, EV_FAULT_REDIRECT,
    EV_FAULT_RETRANSMIT, EV_FAULT_TSB, EV_GUARD_DEADLOCK,
    EV_GUARD_VIOLATION, EV_PKT_DELIVER, EV_PKT_FORWARD, EV_PKT_INJECT,
    EV_SCHED_EXEC, EV_SCHED_SKIP, EV_TSB_COMBINE,
)
from repro.obs.metrics import (
    DEFAULT_PERCENTILES, Counter, Histogram, MetricsRegistry,
    percentiles_from_hist,
)
from repro.obs.observability import Observability
from repro.obs.progress import ProgressRenderer
from repro.obs.sampler import EpochSample, EpochSampler
from repro.obs.schema import EVENT_SCHEMA, validate_event, validate_jsonl
from repro.obs.sinks import ChromeTraceSink, JSONLSink
from repro.obs.telemetry import (
    SPAN_NAMES, SpanRecorder, SweepTelemetry, rollup_spans,
    validate_chrome_trace,
)

__all__ = [
    "AccuracySummary", "busy_at", "per_bank_busy_fraction",
    "resolve_predictions",
    "ALL_KINDS", "SCHEDULER_KINDS", "Event", "InMemorySink",
    "EV_ARB_REORDER", "EV_BANK_END", "EV_BANK_START", "EV_EST_PREDICT",
    "EV_EST_UPDATE", "EV_FAULT_BANK", "EV_FAULT_CRC", "EV_FAULT_REDIRECT",
    "EV_FAULT_RETRANSMIT", "EV_FAULT_TSB", "EV_GUARD_DEADLOCK",
    "EV_GUARD_VIOLATION", "EV_PKT_DELIVER", "EV_PKT_FORWARD",
    "EV_PKT_INJECT", "EV_SCHED_EXEC", "EV_SCHED_SKIP", "EV_TSB_COMBINE",
    "DEFAULT_PERCENTILES", "Counter", "Histogram", "MetricsRegistry",
    "percentiles_from_hist",
    "Observability",
    "ProgressRenderer",
    "EpochSample", "EpochSampler",
    "EVENT_SCHEMA", "validate_event", "validate_jsonl",
    "ChromeTraceSink", "JSONLSink",
    "SPAN_NAMES", "SpanRecorder", "SweepTelemetry", "rollup_spans",
    "validate_chrome_trace",
]
