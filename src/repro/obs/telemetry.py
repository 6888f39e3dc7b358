"""Sweep-scoped telemetry plane: cross-worker spans and merged metrics.

``repro.obs`` (events, metrics, sampler) sees *inside one simulation*;
this module observes the orchestration layers above it -- the sweep
engine and the process pool -- and answers the questions the
per-simulation stream cannot: where did a sweep spend its wall time,
which worker is the straggler, how much of a point went to set-up
versus simulation.

Three cooperating pieces:

* :class:`SpanRecorder` -- a flat list of named wall-clock spans
  recorded against :func:`time.monotonic` (``CLOCK_MONOTONIC`` is
  system-wide on the supported platforms, so spans recorded in worker
  processes land on the same timeline as the parent's).
* :class:`WorkerTelemetry` -- the in-worker bundle: one recorder plus
  one fresh per-chunk :class:`~repro.obs.metrics.MetricsRegistry`,
  exported as a JSON-safe payload that rides home on the existing
  chunk-result path.
* :class:`SweepTelemetry` -- the parent-side aggregator: absorbs
  worker payloads, merges metric snapshots (counters sum, histograms
  bucket-merge, gauges gain a worker label), keeps every span, and
  renders the whole sweep as one Chrome-trace document with one track
  per worker process.

Telemetry is a **pure reader**: nothing here feeds back into cache
keys, cache entries or ``SweepResults.fingerprint`` -- the identity
matrices in ``tests/test_telemetry.py`` certify that a telemetry-on
sweep is byte-identical to a telemetry-off one.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Span names the sweep engine emits.  Documented here (and in
#: DESIGN.md) so trace consumers can rely on the taxonomy:
#:
#: parent side --
#:   ``sweep.run``        whole ``run_points`` invocation
#:   ``sweep.plan``       cache scan
#:   ``sweep.dispatch``   pool fan-out / serial execution window
#:   ``point.cache_write``  one cache store
#: worker side --
#:   ``chunk.queue_wait`` submit-to-start wait of one chunk
#:   ``chunk.run``        whole chunk in the worker
#:   ``engine.setup``     config + workload + simulator construction
#:   ``engine.simulate``  the measured simulation itself
SPAN_NAMES: Tuple[str, ...] = (
    "sweep.run", "sweep.plan", "sweep.dispatch", "point.cache_write",
    "chunk.queue_wait", "chunk.run", "engine.setup", "engine.simulate",
)


class SpanRecorder:
    """Flat recorder of ``(name, ts, dur, args)`` wall-clock spans.

    Timestamps are raw :func:`time.monotonic` seconds; rebasing onto a
    sweep-relative timeline is the aggregator's job, so one recorder
    can run in any process without knowing the sweep start.
    """

    __slots__ = ("worker", "spans")

    def __init__(self, worker: Optional[int] = None):
        self.worker = worker if worker is not None else os.getpid()
        self.spans: List[Dict] = []

    def add(self, name: str, start: float, dur: float, **args) -> None:
        span = {"name": name, "ts": start, "dur": max(0.0, dur),
                "worker": self.worker}
        if args:
            span["args"] = args
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **args):
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.add(name, t0, time.monotonic() - t0, **args)

    def export(self) -> List[Dict]:
        return list(self.spans)

    def __len__(self) -> int:
        return len(self.spans)


def rollup_spans(spans: List[Dict]) -> Dict[str, Dict]:
    """Aggregate spans by name: count and summed duration (seconds)."""
    out: Dict[str, Dict] = {}
    for span in spans:
        row = out.setdefault(span["name"], {"count": 0, "total_s": 0.0})
        row["count"] += 1
        row["total_s"] += span["dur"]
    for row in out.values():
        row["total_s"] = round(row["total_s"], 6)
    return {name: out[name] for name in sorted(out)}


class WorkerTelemetry:
    """In-worker telemetry bundle for one chunk of sweep points.

    A fresh instance is created per chunk call, so the exported metric
    snapshot is a *delta* -- the parent can sum snapshots across chunks
    without double counting, whatever worker a chunk landed on.
    ``submit_ts`` is the parent's monotonic timestamp at submission;
    the difference to the chunk's start is the queue-wait span.
    """

    def __init__(self, submit_ts: Optional[float] = None):
        self.pid = os.getpid()
        self.recorder = SpanRecorder(worker=self.pid)
        self.registry = MetricsRegistry()
        now = time.monotonic()
        if submit_ts is not None:
            # Clamp: clocks agree across processes on one host, but a
            # fork that wins the race could start marginally "early".
            self.recorder.add("chunk.queue_wait", min(submit_ts, now),
                              max(0.0, now - submit_ts))

    def point_done(self, wall_ms: float) -> None:
        self.registry.counter("worker.points").inc()
        self.registry.histogram("worker.point_ms").observe(int(wall_ms))
        self.registry.gauge("worker.last_point_ms").set(round(wall_ms, 3))

    def export(self) -> Dict:
        self.registry.counter("worker.chunks").inc()
        return {
            "pid": self.pid,
            "spans": self.recorder.export(),
            "metrics": self.registry.snapshot(),
        }


class SweepTelemetry:
    """Parent-side aggregator of one sweep's telemetry.

    Created by the caller (or ``repro.cli sweep --telemetry``) and
    passed into ``run_points``/``run_sweep``; afterwards it holds the
    merged registry, the full cross-process span list and everything
    needed to render a Chrome trace.
    """

    def __init__(self):
        self.t0 = time.monotonic()
        self.parent_pid = os.getpid()
        self.recorder = SpanRecorder(worker=self.parent_pid)
        #: sweep-wide merged registry (counters summed, histograms
        #: bucket-merged, worker gauges labeled per pid)
        self.registry = MetricsRegistry()
        self.worker_pids: List[int] = []
        self._worker_spans: List[Dict] = []
        #: optional live renderer (see :mod:`repro.obs.progress`)
        self.progress = None
        #: per-point completion counters driving the progress stream
        self.points_total = 0
        self.points_done = 0
        self.sources: Dict[str, int] = {"sim": 0, "hit": 0}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def begin(self, points_total: int, workers: int) -> None:
        self.points_total = points_total
        if self.progress is not None:
            self.progress.begin(points_total, workers)

    def absorb(self, payload: Optional[Dict]) -> None:
        """Fold one worker chunk's exported telemetry into the sweep."""
        if not payload:
            return
        pid = payload.get("pid")
        if pid is not None and pid not in self.worker_pids:
            self.worker_pids.append(pid)
        self._worker_spans.extend(payload.get("spans", ()))
        metrics = payload.get("metrics")
        if metrics:
            self.registry.merge_snapshot(metrics, worker=f"w{pid}")

    def point_done(self, label: str, source: str, wall_ms: float = 0.0,
                   worker: Optional[int] = None) -> None:
        """One grid point finished (``source`` is sim or hit)."""
        self.points_done += 1
        self.sources[source] = self.sources.get(source, 0) + 1
        if self.progress is not None:
            self.progress.on_point(label=label, source=source,
                                   wall_ms=wall_ms, worker=worker,
                                   done=self.points_done,
                                   total=self.points_total)

    def finish(self) -> None:
        if self.progress is not None:
            self.progress.close()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def spans(self) -> List[Dict]:
        """Every span, parent and workers, in recorded order."""
        return self.recorder.export() + list(self._worker_spans)

    def rollups(self) -> Dict[str, Dict]:
        return rollup_spans(self.spans())

    def workers(self) -> List[int]:
        return sorted(self.worker_pids)

    def as_meta(self) -> Dict:
        """The ``SweepResults.meta['telemetry']`` payload.

        Informational only -- ``meta`` is never hashed into the sweep
        fingerprint or any cache key.
        """
        return {
            "spans": self.rollups(),
            "workers": [f"w{pid}" for pid in self.workers()],
            "points": {
                "total": self.points_total,
                "done": self.points_done,
                **{k: v for k, v in sorted(self.sources.items())},
            },
            "metrics": self.registry.as_dict(),
        }

    # ------------------------------------------------------------------
    # Chrome trace
    # ------------------------------------------------------------------

    def chrome_document(self) -> Dict:
        """One Trace Event Format document, one track per process.

        The parent's spans land on a ``sweep parent`` track; every
        worker process gets its own track named by pid.  Timestamps are
        rebased to the sweep start (``t0``) with one microsecond of
        trace time per wall-clock microsecond.
        """
        events: List[Dict] = []
        # The parent also acts as a worker on serial and retry paths,
        # so its pid can appear in the worker set too -- dedupe, parent
        # label wins.
        pids = [self.parent_pid] + [
            pid for pid in self.workers() if pid != self.parent_pid
        ]
        for pid in pids:
            name = ("sweep parent" if pid == self.parent_pid
                    else f"worker {pid}")
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": name},
            })
        for span in self.spans():
            ts_us = max(0.0, (span["ts"] - self.t0) * 1e6)
            event = {
                "name": span["name"],
                "ph": "X",
                "pid": span["worker"],
                "tid": 0,
                "ts": round(ts_us, 1),
                "dur": max(1, int(span["dur"] * 1e6)),
            }
            if "args" in span:
                event["args"] = span["args"]
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "monotonic-wall",
                "parent_pid": self.parent_pid,
                "workers": self.workers(),
                "note": "1 trace us == 1 wall-clock us since sweep start",
            },
        }

    def write_chrome(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.chrome_document(), fh)
            fh.write("\n")


def validate_chrome_trace(path: str) -> Tuple[int, int, List[str]]:
    """Validate a merged sweep trace file.

    Returns ``(slice_count, worker_track_count, errors)``.  Checks the
    document shape, the required fields of every duration slice, and
    that every slice's pid appears in the declared track set; the
    worker-track count excludes the parent track (the CI smoke gate
    requires >= 2 worker tracks on a 2-worker sweep).
    """
    errors: List[str] = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return 0, 0, [f"unreadable trace: {exc}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return 0, 0, ["traceEvents missing or not a list"]
    other = doc.get("otherData", {})
    parent_pid = other.get("parent_pid")
    slices = 0
    pids = set()
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            errors.append(f"event {i}: unexpected phase {ph!r}")
            continue
        slices += 1
        for field in ("name", "pid", "tid", "ts", "dur"):
            if field not in event:
                errors.append(f"event {i}: missing field {field!r}")
        if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            errors.append(f"event {i}: negative duration")
        if isinstance(event.get("ts"), (int, float)) and event["ts"] < 0:
            errors.append(f"event {i}: negative timestamp")
        pids.add(event.get("pid"))
    worker_tracks = len(pids - {parent_pid})
    if slices == 0:
        errors.append("trace holds no duration slices")
    return slices, worker_tracks, errors[:20]
