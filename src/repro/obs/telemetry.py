"""Sweep-scoped telemetry: cross-process wall-clock spans.

``repro.obs`` (events, metrics, sampler) sees *inside one simulation*;
this module observes the orchestration layers above it -- the sweep
engine and the process pool -- and answers the questions the
per-simulation stream cannot: where did a sweep spend its wall time,
which worker is the straggler, how much of a point went to set-up
versus simulation.

Two pieces:

* :class:`SpanRecorder` -- a flat list of named wall-clock spans
  recorded against :func:`time.monotonic` (``CLOCK_MONOTONIC`` is
  system-wide on the supported platforms, so spans recorded in worker
  processes land on the same timeline as the parent's).  Every worker
  chunk records into one and ships its span list home with its rows.
* :class:`SweepTelemetry` -- the parent-side collector: the parent's
  own recorder plus every span absorbed from workers, rendered as
  rollups and as one Chrome-trace document with one track per process.

The sweep engine records spans on every run whether or not a collector
is passed, so attaching one never changes what runs.  The counts live
in :class:`~repro.sim.parallel.SweepRunStats`; spans hold only time.
Telemetry is a **pure reader**: nothing here feeds back into cache
keys, cache entries or ``SweepResults.fingerprint``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

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
    sweep-relative timeline is the collector's job, so one recorder
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


class SweepTelemetry:
    """Parent-side collector of one sweep's spans.

    Created by the caller (or ``repro.cli sweep --trace-out``) and
    passed into ``run_points``/``run_sweep``; afterwards it holds the
    full cross-process span list and everything needed to render a
    Chrome trace.
    """

    def __init__(self):
        self.t0 = time.monotonic()
        self.parent_pid = os.getpid()
        #: spans of the parent, which also simulates on the serial and
        #: retry paths
        self.recorder = SpanRecorder(worker=self.parent_pid)
        self._worker_spans: List[Dict] = []

    def absorb(self, spans: List[Dict]) -> None:
        """Fold one worker chunk's span list into the sweep."""
        self._worker_spans.extend(spans)

    def spans(self) -> List[Dict]:
        """Every span, parent and workers, in recorded order."""
        return self.recorder.spans + self._worker_spans

    def rollups(self) -> Dict[str, Dict]:
        return rollup_spans(self.spans())

    def workers(self) -> List[int]:
        """Pids of the processes that simulated a point."""
        return sorted({span["worker"] for span in self.spans()
                       if span["name"] == "engine.simulate"})

    def as_meta(self, stats) -> Dict:
        """The ``SweepResults.meta['telemetry']`` payload: span rollups,
        the worker roster and the run's
        :class:`~repro.sim.parallel.SweepRunStats`.

        Informational only -- ``meta`` is never hashed into the sweep
        fingerprint or any cache key.
        """
        return {
            "spans": self.rollups(),
            "workers": [f"w{pid}" for pid in self.workers()],
            "stats": stats.as_dict(),
        }

    def chrome_document(self) -> Dict:
        """One Trace Event Format document, one track per process.

        The parent's spans land on a ``sweep parent`` track; every
        other process with a span gets its own track named by pid.
        Timestamps are rebased to the sweep start (``t0``) with one
        microsecond of trace time per wall-clock microsecond.
        """
        spans = self.spans()
        # The parent also simulates on the serial and retry paths, so
        # its pid can carry engine spans too: one track, parent label.
        others = sorted({span["worker"] for span in spans}
                        - {self.parent_pid})
        events: List[Dict] = []
        for pid in [self.parent_pid] + others:
            name = ("sweep parent" if pid == self.parent_pid
                    else f"worker {pid}")
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": name},
            })
        for span in spans:
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
    """Validate a Chrome trace file.

    Returns ``(slice_count, worker_track_count, errors)``.  Checks the
    document shape, the required fields of every duration slice, and
    that every slice's pid has a ``process_name`` track; the
    worker-track count excludes the parent track (the CI smoke gate
    requires >= 2 worker tracks on a 2-worker sweep).  It checks both
    Chrome writers: :meth:`SweepTelemetry.write_chrome` and
    :class:`~repro.obs.sinks.ChromeTraceSink`.
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
    tracks = {event.get("pid") for event in events
              if event.get("ph") == "M"
              and event.get("name") == "process_name"}
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
        pid = event.get("pid")
        if pid in tracks:
            pids.add(pid)
        else:
            errors.append(f"event {i}: pid {pid} has no process_name "
                          "track")
    worker_tracks = len(pids - {parent_pid})
    if slices == 0:
        errors.append("trace holds no duration slices")
    return slices, worker_tracks, errors[:20]
