"""Sweep telemetry: spans, progress, CLI.

The contracts under test (see ``repro/obs/telemetry.py`` and
``repro/obs/progress.py``):

* telemetry is a **pure reader** -- the sweep fingerprint is
  unperturbed across {workers 1, 2} x {cold, warm} with a collector
  passed;
* the engine records a fixed number of spans per point and per sweep,
  never per simulated cycle, and its span counts agree with the
  ``SweepRunStats`` counters whatever the worker count;
* the merged Chrome trace validates, carries one track per worker
  process, and its span rollups cover the sweep wall time;
* progress is one callable per finished point, and ``--progress``
  never changes what a sweep saves.
"""

import json
import os
import time
from collections import Counter

import pytest

from repro.obs.progress import ProgressRenderer
from repro.obs.telemetry import (
    SPAN_NAMES, SpanRecorder, SweepTelemetry, rollup_spans,
    validate_chrome_trace,
)
from repro.sim.config import Scheme
from repro.sim.parallel import SweepPoint, SweepRunStats, _simulate_chunk
from repro.sim.sweep import SweepGrid, run_sweep

FAST = {"mesh_width": 4, "capacity_scale": 1 / 64}

#: The hot-path fingerprint matrix schemes: both memory technologies,
#: both TSB organisations, the WB estimator.
SCHEMES = (
    Scheme.SRAM_64TSB, Scheme.STTRAM_64TSB,
    Scheme.STTRAM_4TSB, Scheme.STTRAM_4TSB_WB,
)


def tiny_grid(**kw):
    spec = dict(apps=["x264"], schemes=SCHEMES, cycles=200, warmup=80,
                overrides=dict(FAST))
    spec.update(kw)
    return SweepGrid(**spec)


# ----------------------------------------------------------------------
# Spans: recorder, rollups, worker chunks
# ----------------------------------------------------------------------


class TestSpanRecorder:
    def test_span_context_manager_records_duration(self):
        rec = SpanRecorder(worker=42)
        with rec.span("engine.simulate", app="x264"):
            pass
        assert len(rec.spans) == 1
        span = rec.spans[0]
        assert span["name"] == "engine.simulate"
        assert span["worker"] == 42
        assert span["dur"] >= 0.0
        assert span["args"] == {"app": "x264"}

    def test_rollup_sums_by_name(self):
        rec = SpanRecorder(worker=1)
        rec.add("a", 0.0, 1.0)
        rec.add("a", 2.0, 0.5)
        rec.add("b", 0.0, 0.25)
        rollup = rollup_spans(rec.spans)
        assert rollup["a"] == {"count": 2, "total_s": 1.5}
        assert rollup["b"]["count"] == 1
        assert list(rollup) == sorted(rollup)

    def test_taxonomy_is_documented(self):
        assert "sweep.run" in SPAN_NAMES
        assert "chunk.queue_wait" in SPAN_NAMES
        assert "engine.simulate" in SPAN_NAMES


class TestWorkerTelemetry:
    def test_queue_wait_span_clamps_clock_races(self):
        payload = _simulate_chunk((), time.monotonic() + 100.0)
        span = payload["spans"][0]
        assert span["name"] == "chunk.queue_wait"
        assert span["dur"] == 0.0
        assert payload["pid"] == os.getpid() and payload["rows"] == []


# ----------------------------------------------------------------------
# Tentpole: the pure-reader determinism matrix
# ----------------------------------------------------------------------


def run_cell(grid, workers, cache_dir=None, telemetry=None):
    stats = SweepRunStats()
    sweep = run_sweep(grid, workers=workers,
                      cache=cache_dir is not None, cache_dir=cache_dir,
                      stats=stats, telemetry=telemetry)
    return sweep, stats


class TestPureReader:
    """A collector passed == none passed, across workers/cache."""

    @pytest.fixture(scope="class")
    def baseline(self):
        sweep, _stats = run_cell(tiny_grid(), 1)
        return sweep.fingerprint()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scalar_fingerprint_unperturbed(self, baseline, workers):
        tel = SweepTelemetry()
        sweep, _stats = run_cell(tiny_grid(), workers, telemetry=tel)
        assert sweep.fingerprint() == baseline
        assert len(tel.spans()) > 0

    def test_cold_then_warm_cache_unperturbed(self, baseline, tmp_path):
        cache = str(tmp_path / "cache")
        cold, cold_stats = run_cell(tiny_grid(), 2, cache_dir=cache,
                                    telemetry=SweepTelemetry())
        warm, warm_stats = run_cell(tiny_grid(), 2, cache_dir=cache,
                                    telemetry=SweepTelemetry())
        assert cold.fingerprint() == warm.fingerprint() == baseline
        assert warm_stats.cache_hits == warm_stats.points
        meta = warm.meta["telemetry"]
        assert meta["stats"]["cache_hits"] == warm_stats.points

    def test_fingerprint_never_hashes_meta(self, baseline):
        tel = SweepTelemetry()
        sweep, _stats = run_cell(tiny_grid(), 1, telemetry=tel)
        assert "telemetry" in sweep.meta
        stripped = type(sweep)(sweep.grid_spec, sweep.data, meta={})
        assert stripped.fingerprint() == sweep.fingerprint() == baseline


class TestTelemetryCost:
    """Recording cost as a count: spans are per sweep and per point, so
    recording work does not grow with the simulated window."""

    @pytest.mark.parametrize("workers, spans_per_point", [(1, 2), (2, 4)])
    def test_span_counts_do_not_scale_with_cycles(self, workers,
                                                  spans_per_point):
        counts = []
        for cycles in (200, 800):
            tel = SweepTelemetry()
            _sweep, stats = run_cell(tiny_grid(cycles=cycles), workers,
                                     telemetry=tel)
            counts.append(Counter(span["name"] for span in tel.spans()))
        short, long = counts
        assert short == long
        points = stats.points
        assert short["engine.setup"] == short["engine.simulate"] == points
        for name in ("sweep.run", "sweep.plan", "sweep.dispatch"):
            assert short[name] == 1
        assert sum(short.values()) == spans_per_point * points + 3


class TestSpansAndStats:
    """Spans and ``SweepRunStats`` are the sweep's only records, and
    they agree whatever the worker count."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_span_counts_match_stats(self, workers):
        tel = SweepTelemetry()
        _sweep, stats = run_cell(tiny_grid(), workers, telemetry=tel)
        rollups = tel.rollups()
        assert rollups["engine.simulate"]["count"] == stats.simulated
        assert stats.simulated == stats.points == len(SCHEMES)
        assert rollups.get("chunk.run", {"count": 0})["count"] == \
            stats.chunks
        chunk_pids = {span["worker"] for span in tel.spans()
                      if span["name"] == "chunk.run"}
        if workers == 1:
            assert tel.workers() == [os.getpid()] and not chunk_pids
        else:
            assert tel.workers() == sorted(chunk_pids)
            assert os.getpid() not in chunk_pids

    def test_meta_carries_rollups_workers_and_stats(self):
        tel = SweepTelemetry()
        sweep, stats = run_cell(tiny_grid(), 1, telemetry=tel)
        meta = sweep.meta["telemetry"]
        assert set(meta) == {"spans", "workers", "stats"}
        assert meta["spans"] == tel.rollups()
        assert meta["workers"] == [f"w{pid}" for pid in tel.workers()]
        assert meta["stats"] == stats.as_dict()


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------


class TestChromeTrace:
    def test_two_worker_trace_validates(self, tmp_path):
        tel = SweepTelemetry()
        _sweep, stats = run_cell(tiny_grid(), 2, telemetry=tel)
        path = str(tmp_path / "sweep-trace.json")
        tel.write_chrome(path)
        slices, worker_tracks, errors = validate_chrome_trace(path)
        assert errors == []
        assert slices == len(tel.spans())
        assert worker_tracks >= 2

    def test_rollup_covers_wall_time(self):
        tel = SweepTelemetry()
        _sweep, stats = run_cell(tiny_grid(), 2, telemetry=tel)
        run_rollup = tel.rollups()["sweep.run"]
        assert run_rollup["count"] == 1
        # The sweep.run span covers the same window wall_seconds
        # measures, so the two agree within 5%.
        assert run_rollup["total_s"] == pytest.approx(
            stats.wall_seconds, rel=0.05)

    def test_serial_trace_dedupes_parent_track(self):
        tel = SweepTelemetry()
        run_cell(tiny_grid(), 1, telemetry=tel)
        doc = tel.chrome_document()
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(metas) == len({e["pid"] for e in metas})

    def test_validator_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        _slices, _tracks, errors = validate_chrome_trace(str(bad))
        assert errors and "unreadable" in errors[0]
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"traceEvents": []}))
        _slices, _tracks, errors = validate_chrome_trace(str(empty))
        assert any("no duration slices" in e for e in errors)

    def test_validator_requires_a_track_per_slice(self, tmp_path):
        untracked = tmp_path / "untracked.json"
        untracked.write_text(json.dumps({
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "sweep parent"}},
                {"name": "chunk.run", "ph": "X", "pid": 99, "tid": 0,
                 "ts": 0, "dur": 1},
            ],
            "otherData": {"parent_pid": 1},
        }))
        slices, worker_tracks, errors = validate_chrome_trace(
            str(untracked))
        assert (slices, worker_tracks) == (1, 0)
        assert errors == ["event 1: pid 99 has no process_name track"]


# ----------------------------------------------------------------------
# Live progress
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


POINT = SweepPoint.build("x264", Scheme.SRAM_64TSB, 200, 80, 1, FAST)


class TestProgress:
    def renderer(self, mode="plain", total=3):
        import io

        clock = FakeClock()
        out = io.StringIO()
        renderer = ProgressRenderer(SweepRunStats(points=total), mode=mode,
                                    out=out, now=clock)
        return renderer, out, clock

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ProgressRenderer(SweepRunStats(), mode="fancy")

    def test_plain_prints_one_line_per_point(self):
        renderer, out, clock = self.renderer("plain", total=3)
        for _ in range(3):
            clock.t += 1.0
            renderer(POINT, "sim", 1000.0, 71)
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert "[3/3]" in lines[-1] and "x264/SRAM-64TSB" in lines[-1]

    def test_rolling_rate_and_eta(self):
        renderer, _out, clock = self.renderer("plain", total=10)
        for _ in range(4):
            clock.t += 2.0
            renderer(POINT, "sim", 2000.0, None)
        assert renderer.points_per_sec() == pytest.approx(0.5)
        assert renderer.eta_seconds() == pytest.approx(12.0)

    def test_hits_excluded_from_rate(self):
        renderer, _out, clock = self.renderer("plain", total=4)
        clock.t += 1.0
        renderer(POINT, "hit", 0.0, None)
        assert renderer.hits == 1
        assert not renderer._ticks

    def test_straggler_flagged_after_silence(self):
        renderer, out, clock = self.renderer("rich", total=10)
        clock.t += 1.0
        renderer(POINT, "sim", 500.0, 71)
        clock.t += 0.1
        renderer(POINT, "sim", 500.0, 72)
        clock.t += 60.0
        stragglers = renderer.stragglers()
        assert 71 in stragglers and 72 in stragglers
        renderer(POINT, "sim", 500.0, 72)
        assert "STRAGGLER w71" in out.getvalue()

    def test_no_stragglers_once_done(self):
        renderer, _out, clock = self.renderer("rich", total=1)
        clock.t += 1.0
        renderer(POINT, "sim", 500.0, 71)
        clock.t += 999.0
        assert renderer.stragglers() == {}

    def test_rich_renders_bar_and_roster(self):
        renderer, out, clock = self.renderer("rich", total=2)
        clock.t += 1.0
        renderer(POINT, "sim", 500.0, 71)
        text = out.getvalue()
        assert "[" in text and "1/2" in text and "w71:1" in text
        assert not text.endswith("\n")
        renderer(POINT, "sim", 500.0, 71)
        assert out.getvalue().endswith("\n")

    def test_engine_sets_the_total_before_the_first_point(self):
        import io

        stats, out = SweepRunStats(), io.StringIO()
        renderer = ProgressRenderer(stats, mode="plain", out=out)
        run_sweep(tiny_grid(), renderer, workers=1, stats=stats)
        lines = out.getvalue().splitlines()
        assert len(lines) == stats.points == len(SCHEMES)
        assert lines[0].startswith(f"  [1/{stats.points}] sim")


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


class TestCLI:
    def test_report_still_needs_app_without_compare(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2
        assert "--app" in capsys.readouterr().err

    def test_sweep_telemetry_flags(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "trace.json")
        code = main([
            "sweep", "--apps", "x264", "--schemes", "SRAM-64TSB",
            "--workers", "1", "--no-cache", "--cycles", "200",
            "--warmup", "80", "--mesh-width", "4",
            "--capacity-scale", str(1 / 64),
            "--progress", "plain", "--trace-out", trace,
        ])
        assert code == 0
        slices, _tracks, errors = validate_chrome_trace(trace)
        assert errors == [] and slices > 0
        assert "telemetry:" in capsys.readouterr().out

    def test_telemetry_flag_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--apps", "x264", "--telemetry"])
        assert exc.value.code == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_progress_never_changes_saved_output(self, tmp_path):
        """``--progress`` is a live display and needs no collector, so
        the saved file is byte-identical to a bare run's; only
        ``--trace-out`` adds the span rollup to ``meta``."""
        from repro.cli import main

        sweep = ["sweep", "--apps", "x264", "--schemes", "SRAM-64TSB",
                 "--workers", "1", "--no-cache", "--cycles", "200",
                 "--warmup", "80", "--mesh-width", "4",
                 "--capacity-scale", str(1 / 64)]
        bare, shown, traced = (tmp_path / name for name in
                               ("bare.json", "shown.json", "traced.json"))
        assert main(sweep + ["--out", str(bare)]) == 0
        assert main(sweep + ["--progress", "plain",
                             "--out", str(shown)]) == 0
        assert main(sweep + ["--trace-out", str(tmp_path / "trace.json"),
                             "--out", str(traced)]) == 0
        assert bare.read_bytes() == shown.read_bytes()
        bare_doc = json.loads(bare.read_text())
        traced_doc = json.loads(traced.read_text())
        assert traced_doc["data"] == bare_doc["data"]
        assert "telemetry" in traced_doc["meta"]
