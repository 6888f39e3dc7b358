"""Fleet telemetry: spans, merged metrics, ledger, progress, CLI.

The contracts under test (see ``repro/obs/telemetry.py``,
``repro/obs/ledger.py``, ``repro/obs/progress.py``):

* telemetry is a **pure reader** -- the sweep fingerprint is
  unperturbed across {workers 1, 2} x {cold, warm} with recording on,
  and merged worker counters equal the serial run's;
* telemetry costs a fixed number of spans per point and per sweep,
  never per simulated cycle;
* worker metric snapshots merge losslessly (counters sum, histograms
  bucket-merge, gauges gain per-worker labels);
* the merged Chrome trace validates, carries one track per worker
  process, and its span rollups cover the sweep wall time;
* the run ledger appends atomically, rotates at ``max_entries``,
  survives a corrupt tail (torn JSON or non-ASCII bytes), diffs two
  runs against a threshold, and still reads records written under
  schema 1.
"""

import json
import os
from collections import Counter

import pytest

from repro.obs.ledger import (
    DEFAULT_MAX_ENTRIES, LEDGER_SCHEMA_VERSION, RunLedger, build_record,
    diff_records, format_entries, ledger_enabled, validate_record,
)
from repro.obs.metrics import LabeledGauge, MetricsRegistry
from repro.obs.progress import ProgressRenderer
from repro.obs.telemetry import (
    SPAN_NAMES, SpanRecorder, SweepTelemetry, WorkerTelemetry,
    rollup_spans, validate_chrome_trace,
)
from repro.sim.config import Scheme
from repro.sim.parallel import SweepRunStats
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
# Metrics: LabeledGauge and the snapshot/merge contract
# ----------------------------------------------------------------------


class TestLabeledGauge:
    def test_labels_coexist(self):
        gauge = LabeledGauge("workers.active")
        gauge.set(1, label="w1")
        gauge.set(2.5, label="w2")
        assert gauge.get("w1") == 1.0
        assert gauge.get("w2") == 2.5
        assert gauge.get("missing") == 0.0
        assert gauge.labels() == ["w1", "w2"]
        assert len(gauge) == 2

    def test_as_dict_sorted(self):
        gauge = LabeledGauge("g")
        gauge.set(2, label="b")
        gauge.set(1, label="a")
        assert gauge.as_dict() == {
            "type": "labeled_gauge", "values": {"a": 1.0, "b": 2.0},
        }

    def test_registry_binding_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.labeled_gauge("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.counter("x")


class TestSnapshotMerge:
    def worker_registry(self, points):
        reg = MetricsRegistry()
        for wall in points:
            reg.counter("worker.points").inc()
            reg.histogram("worker.point_ms").observe(wall)
            reg.gauge("worker.last_point_ms").set(wall)
        return reg

    def test_counters_sum_and_histograms_bucket_merge(self):
        merged = MetricsRegistry()
        merged.merge_snapshot(self.worker_registry([5, 5, 9]).snapshot(),
                              worker="w1")
        merged.merge_snapshot(self.worker_registry([5, 30]).snapshot(),
                              worker="w2")
        assert merged.counter("worker.points").value == 5
        hist = merged.histogram("worker.point_ms")
        assert hist.count == 5
        assert hist.hist == {5: 3, 9: 1, 30: 1}

    def test_gauges_gain_worker_labels(self):
        merged = MetricsRegistry()
        merged.merge_snapshot(self.worker_registry([7]).snapshot(),
                              worker="w1")
        merged.merge_snapshot(self.worker_registry([11]).snapshot(),
                              worker="w2")
        gauge = merged.labeled_gauge("worker.last_point_ms")
        assert gauge.get("w1") == 7.0
        assert gauge.get("w2") == 11.0

    def test_unlabeled_merge_is_last_write_wins(self):
        merged = MetricsRegistry()
        merged.merge_snapshot(self.worker_registry([7]).snapshot())
        merged.merge_snapshot(self.worker_registry([11]).snapshot())
        assert merged.gauge("worker.last_point_ms").value == 11.0

    def test_labeled_gauges_merge_label_maps(self):
        a = MetricsRegistry()
        a.labeled_gauge("active").set(1, label="w1")
        b = MetricsRegistry()
        b.labeled_gauge("active").set(1, label="w2")
        merged = MetricsRegistry()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        assert merged.labeled_gauge("active").labels() == ["w1", "w2"]

    def test_snapshot_round_trips_through_json(self):
        reg = self.worker_registry([3, 4])
        reg.labeled_gauge("active").set(1, label="w9")
        restored = json.loads(json.dumps(reg.snapshot()))
        merged = MetricsRegistry()
        merged.merge_snapshot(restored, worker="w9")
        assert merged.counter("worker.points").value == 2
        assert merged.histogram("worker.point_ms").hist == {3: 1, 4: 1}


# ----------------------------------------------------------------------
# Spans: recorder, rollups, worker bundles
# ----------------------------------------------------------------------


class TestSpanRecorder:
    def test_span_context_manager_records_duration(self):
        rec = SpanRecorder(worker=42)
        with rec.span("engine.simulate", app="x264"):
            pass
        assert len(rec) == 1
        span = rec.export()[0]
        assert span["name"] == "engine.simulate"
        assert span["worker"] == 42
        assert span["dur"] >= 0.0
        assert span["args"] == {"app": "x264"}

    def test_rollup_sums_by_name(self):
        rec = SpanRecorder(worker=1)
        rec.add("a", 0.0, 1.0)
        rec.add("a", 2.0, 0.5)
        rec.add("b", 0.0, 0.25)
        rollup = rollup_spans(rec.export())
        assert rollup["a"] == {"count": 2, "total_s": 1.5}
        assert rollup["b"]["count"] == 1
        assert list(rollup) == sorted(rollup)

    def test_taxonomy_is_documented(self):
        assert "sweep.run" in SPAN_NAMES
        assert "chunk.queue_wait" in SPAN_NAMES
        assert "engine.simulate" in SPAN_NAMES


class TestWorkerTelemetry:
    def test_snapshot_is_a_delta_per_bundle(self):
        first = WorkerTelemetry()
        first.point_done(10.0)
        second = WorkerTelemetry()
        second.point_done(20.0)
        merged = MetricsRegistry()
        for bundle in (first, second):
            merged.merge_snapshot(bundle.export()["metrics"],
                                  worker=f"w{bundle.pid}")
        assert merged.counter("worker.points").value == 2
        assert merged.counter("worker.chunks").value == 2

    def test_queue_wait_span_clamps_clock_races(self):
        import time

        ahead = WorkerTelemetry(submit_ts=time.monotonic() + 100.0)
        span = ahead.recorder.export()[0]
        assert span["name"] == "chunk.queue_wait"
        assert span["dur"] == 0.0


# ----------------------------------------------------------------------
# Tentpole: the pure-reader determinism matrix
# ----------------------------------------------------------------------


def run_cell(grid, workers, cache_dir=None, telemetry=None):
    stats = SweepRunStats()
    sweep = run_sweep(grid, workers=workers,
                      cache=cache_dir is not None, cache_dir=cache_dir,
                      stats=stats, telemetry=telemetry, ledger=False)
    return sweep, stats


class TestPureReader:
    """Telemetry on == telemetry off, across workers/cache."""

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
        warm_tel = SweepTelemetry()
        warm, warm_stats = run_cell(tiny_grid(), 2, cache_dir=cache,
                                    telemetry=warm_tel)
        assert cold.fingerprint() == warm.fingerprint() == baseline
        assert warm_stats.cache_hits == warm_stats.points
        assert warm_tel.as_meta()["points"]["hit"] == warm_stats.points

    def test_fingerprint_never_hashes_meta(self, baseline):
        tel = SweepTelemetry()
        sweep, _stats = run_cell(tiny_grid(), 1, telemetry=tel)
        assert "telemetry" in sweep.meta
        stripped = type(sweep)(sweep.grid_spec, sweep.data, meta={})
        assert stripped.fingerprint() == sweep.fingerprint() == baseline


class TestTelemetryCost:
    """Recording cost as a count: spans are per sweep and per point, so
    telemetry work does not grow with the simulated window."""

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


class TestMergedMetrics:
    def test_pool_counters_equal_serial_totals(self):
        serial_tel = SweepTelemetry()
        _sweep, serial_stats = run_cell(tiny_grid(), 1,
                                        telemetry=serial_tel)
        pool_tel = SweepTelemetry()
        _sweep, pool_stats = run_cell(tiny_grid(), 2,
                                      telemetry=pool_tel)
        serial_points = serial_tel.registry.counter("worker.points").value
        pool_points = pool_tel.registry.counter("worker.points").value
        assert serial_points == pool_points == serial_stats.points
        assert (serial_tel.registry.histogram("worker.point_ms").count
                == pool_tel.registry.histogram("worker.point_ms").count)

    def test_workers_active_labeled_per_pid(self):
        tel = SweepTelemetry()
        _sweep, stats = run_cell(tiny_grid(), 2, telemetry=tel)
        active = tel.registry.labeled_gauge("sweep.workers.active")
        assert active.labels() == [f"w{pid}" for pid in tel.workers()]
        assert len(active) >= 1

    def test_meta_payload_shape(self):
        tel = SweepTelemetry()
        sweep, stats = run_cell(tiny_grid(), 1, telemetry=tel)
        meta = sweep.meta["telemetry"]
        assert meta["points"]["total"] == meta["points"]["done"]
        assert meta["points"]["sim"] == stats.simulated
        assert "sweep.run" in meta["spans"]
        assert meta["metrics"]["worker.points"]["value"] == stats.points


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


# ----------------------------------------------------------------------
# The run ledger
# ----------------------------------------------------------------------


def fake_stats(**kw):
    stats = SweepRunStats()
    stats.points = kw.pop("points", 4)
    stats.simulated = kw.pop("simulated", 4)
    stats.workers = kw.pop("workers", 1)
    stats.wall_seconds = kw.pop("wall_seconds", 2.0)
    for name, value in kw.items():
        setattr(stats, name, value)
    return stats


def fake_record(**kw):
    record = build_record({"apps": ["x264"]}, "f" * 64, fake_stats())
    record.update(kw)
    return record


def schema1_record(backend="scalar", **kw):
    """A record as schema-1 ledgers wrote it: with the ``backend`` and
    ``resumed_points`` fields, plus the lane counters on batch runs."""
    record = fake_record(schema=1, backend=backend, resumed_points=0, **kw)
    if backend == "batch":
        record.update(lane_groups=2, lanes_packed=12, scalar_fallbacks=0)
    return record


class TestLedger:
    def test_build_record_validates(self):
        record = fake_record()
        assert validate_record(record) == []
        assert record["schema"] == LEDGER_SCHEMA_VERSION == 3
        for name in ("backend", "lane_groups", "lanes_packed",
                     "scalar_fallbacks", "resumed_points"):
            assert name not in record

    def test_schema1_records_still_read(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "ledger.jsonl")
        old = [schema1_record(points_per_sec=10.0),
               schema1_record("batch", points_per_sec=12.0),
               fake_record(schema=2, resumed_points=1,
                           points_per_sec=11.5)]
        with open(path, "w", encoding="ascii") as fh:
            for record in old:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        ledger = RunLedger(path=path)
        ledger.append(fake_record(points_per_sec=11.0))
        assert [r["schema"] for r in ledger.entries()] == [1, 1, 2, 3]
        assert ledger.validate() == (4, [])
        assert main(["ledger", "validate", "--path", path]) == 0
        assert main(["ledger", "--path", path]) == 0
        listing = capsys.readouterr().out
        assert all(r["run_id"] in listing for r in old)
        assert main(["ledger", "diff", "-4", "-3", "--path", path]) == 0
        assert main(["ledger", "diff", "-2", "-1", "--path", path]) == 0
        lines, failures = diff_records(old[1], ledger.resolve("-1"))
        assert failures == [] and lines

    def test_append_and_entries_roundtrip(self, tmp_path):
        ledger = RunLedger(path=str(tmp_path / "ledger.jsonl"))
        first = fake_record()
        ledger.append(first)
        ledger.append(fake_record())
        entries = ledger.entries()
        assert len(entries) == 2
        assert entries[0]["run_id"] == first["run_id"]

    def test_rotation_keeps_newest(self, tmp_path):
        ledger = RunLedger(path=str(tmp_path / "ledger.jsonl"),
                           max_entries=3)
        ids = []
        for _ in range(5):
            record = fake_record()
            ids.append(record["run_id"])
            ledger.append(record)
        kept = [r["run_id"] for r in ledger.entries()]
        assert kept == ids[-3:]

    def test_corrupt_tail_skipped_and_healed(self, tmp_path):
        tails = [(b'{"torn": true, "missing-closi\n', "not JSON"),
                 (b'{"torn": "\xff\xfe\n', "not ASCII")]
        for n, (tail, why) in enumerate(tails):
            path = str(tmp_path / f"ledger{n}.jsonl")
            ledger = RunLedger(path=path)
            ledger.append(fake_record())
            with open(path, "ab") as fh:
                fh.write(tail)
            assert len(ledger.entries()) == 1
            assert ledger.corrupt_dropped == 1
            rows, errors = ledger.validate()
            assert rows == 1 and len(errors) == 1
            assert errors[0].startswith(f"line 2: {why}")
            ledger.append(fake_record())  # rewrite heals the tail
            with open(path, "r", encoding="ascii") as fh:
                assert all(json.loads(line) for line in fh)
            rows, errors = ledger.validate()
            assert rows == 2 and errors == []

    def test_schema_violations_rejected_on_append(self, tmp_path):
        ledger = RunLedger(path=str(tmp_path / "ledger.jsonl"))
        bad = fake_record()
        del bad["fingerprint"]
        with pytest.raises(ValueError, match="fingerprint"):
            ledger.append(bad)
        newer = fake_record(schema=999)
        assert any("newer" in e for e in validate_record(newer))

    def test_resolve_by_prefix_and_index(self, tmp_path):
        ledger = RunLedger(path=str(tmp_path / "ledger.jsonl"))
        first, second = fake_record(), fake_record()
        ledger.append(first)
        ledger.append(second)
        assert ledger.resolve("-1")["run_id"] == second["run_id"]
        assert (ledger.resolve(first["run_id"][:6])["run_id"]
                == first["run_id"])
        with pytest.raises(LookupError):
            ledger.resolve("zzzzzz")
        # An all-digit run-id prefix is a prefix, not an index.
        ledger.append(fake_record(run_id="875491abcdef"))
        assert ledger.resolve("875491")["run_id"] == "875491abcdef"
        with pytest.raises(LookupError, match="out of range"):
            ledger.resolve("-7")

    def test_run_sweep_appends_when_enabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        assert ledger_enabled()
        path = str(tmp_path / "ledger.jsonl")
        grid = tiny_grid(schemes=(Scheme.SRAM_64TSB,))
        sweep = run_sweep(grid, workers=1, ledger_path=path)
        records = RunLedger(path=path).entries()
        assert len(records) == 1
        assert records[0]["fingerprint"] == sweep.fingerprint()[:16]
        run_sweep(grid, workers=1, ledger_path=path, ledger=False)
        assert len(RunLedger(path=path).entries()) == 1

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert not ledger_enabled()
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert not ledger_enabled()
        monkeypatch.setenv("REPRO_LEDGER", "1")
        assert ledger_enabled()


class TestLedgerDiff:
    def test_throughput_regression_flagged(self):
        a = fake_record(points_per_sec=10.0)
        b = fake_record(points_per_sec=5.0)
        lines, failures = diff_records(a, b, threshold=0.2)
        assert any("points_per_sec" in f for f in failures)
        assert any("points_per_sec" in line for line in lines)

    def test_span_growth_flagged(self):
        a = fake_record(spans={"engine.simulate":
                               {"count": 4, "total_s": 1.0}})
        b = fake_record(spans={"engine.simulate":
                               {"count": 4, "total_s": 2.0}})
        _lines, failures = diff_records(a, b, threshold=0.2)
        assert any("engine.simulate" in f for f in failures)

    def test_within_threshold_passes(self):
        a = fake_record(points_per_sec=10.0)
        b = fake_record(points_per_sec=9.5)
        _lines, failures = diff_records(a, b, threshold=0.2)
        assert failures == []

    def test_format_entries_lists_every_run(self):
        records = [fake_record(), fake_record()]
        listing = format_entries(records)
        for record in records:
            assert record["run_id"] in listing


# ----------------------------------------------------------------------
# Live progress
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


class TestProgress:
    def renderer(self, mode="plain"):
        import io

        clock = FakeClock()
        out = io.StringIO()
        renderer = ProgressRenderer(mode=mode, out=out, now=clock)
        return renderer, out, clock

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ProgressRenderer(mode="fancy")

    def test_plain_prints_one_line_per_point(self):
        renderer, out, clock = self.renderer("plain")
        renderer.begin(total=3, workers=1)
        for done in range(1, 4):
            clock.t += 1.0
            renderer.on_point("x264/SRAM-64TSB", "sim", 1000.0, 71,
                              done=done, total=3)
        renderer.close()
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert "[3/3]" in lines[-1]

    def test_rolling_rate_and_eta(self):
        renderer, _out, clock = self.renderer("plain")
        renderer.begin(total=10, workers=1)
        for done in range(1, 5):
            clock.t += 2.0
            renderer.on_point("p", "sim", 2000.0, None,
                              done=done, total=10)
        assert renderer.points_per_sec() == pytest.approx(0.5)
        assert renderer.eta_seconds() == pytest.approx(12.0)

    def test_hits_excluded_from_rate(self):
        renderer, _out, clock = self.renderer("plain")
        renderer.begin(total=4, workers=1)
        clock.t += 1.0
        renderer.on_point("p", "hit", 0.0, None, done=1, total=4)
        assert renderer.hits == 1
        assert not renderer._ticks

    def test_straggler_flagged_after_silence(self):
        renderer, out, clock = self.renderer("rich")
        renderer.begin(total=10, workers=2)
        clock.t += 1.0
        renderer.on_point("p", "sim", 500.0, 71, done=1, total=10)
        clock.t += 0.1
        renderer.on_point("p", "sim", 500.0, 72, done=2, total=10)
        clock.t += 60.0
        stragglers = renderer.stragglers()
        assert 71 in stragglers and 72 in stragglers
        renderer.on_point("p", "sim", 500.0, 72, done=3, total=10)
        assert "STRAGGLER w71" in out.getvalue()
        renderer.close()

    def test_no_stragglers_once_done(self):
        renderer, _out, clock = self.renderer("rich")
        renderer.begin(total=1, workers=1)
        clock.t += 1.0
        renderer.on_point("p", "sim", 500.0, 71, done=1, total=1)
        clock.t += 999.0
        assert renderer.stragglers() == {}

    def test_rich_renders_bar_and_roster(self):
        renderer, out, clock = self.renderer("rich")
        renderer.begin(total=2, workers=2)
        clock.t += 1.0
        renderer.on_point("p", "sim", 500.0, 71, done=1, total=2)
        text = out.getvalue()
        assert "[" in text and "1/2" in text and "w71:1" in text
        renderer.close()
        assert out.getvalue().endswith("\n")


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


class TestCLI:
    def seed_ledger(self, tmp_path, n=2, **kw):
        path = str(tmp_path / "ledger.jsonl")
        ledger = RunLedger(path=path)
        for _ in range(n):
            ledger.append(fake_record(**kw))
        return path

    def test_ledger_list(self, tmp_path, capsys):
        from repro.cli import main

        path = self.seed_ledger(tmp_path)
        assert main(["ledger", "--path", path]) == 0
        out = capsys.readouterr().out
        assert "run_id" in out
        assert len(out.strip().splitlines()) == 3  # header + 2 rows

    def test_ledger_list_filters(self, tmp_path, capsys):
        from repro.cli import main

        path = self.seed_ledger(tmp_path)
        assert main(["ledger", "--path", path,
                     "--spec", "zzzz"]) == 0
        assert "no matching runs" in capsys.readouterr().out
        digest = RunLedger(path=path).entries()[0]["spec_digest"]
        assert main(["ledger", "--path", path, "--spec", digest[:6]]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_ledger_diff_and_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "ledger.jsonl")
        ledger = RunLedger(path=path)
        ledger.append(fake_record(points_per_sec=10.0))
        ledger.append(fake_record(points_per_sec=4.0))
        assert main(["ledger", "diff", "-2", "-1", "--path", path]) == 1
        assert "REGRESSION" in capsys.readouterr().err
        assert main(["ledger", "diff", "-1", "-2", "--path", path]) == 0
        assert main(["ledger", "diff", "-1", "--path", path]) == 2
        capsys.readouterr()
        assert main(["ledger", "diff", "some.json", "-1",
                     "--path", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_ledger_validate(self, tmp_path, capsys):
        from repro.cli import main

        path = self.seed_ledger(tmp_path)
        with open(path, "a", encoding="ascii") as fh:
            fh.write("garbage\n")
        assert main(["ledger", "validate", "--path", path]) == 1
        assert "LEDGER VIOLATION" in capsys.readouterr().err

    def test_ledger_validate_unreadable_path(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["ledger", "validate", "--path", str(tmp_path)]) == 1
        assert capsys.readouterr().err.count("LEDGER VIOLATION") == 1

    def test_report_still_needs_app_without_compare(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2
        assert "--app" in capsys.readouterr().err

    def test_sweep_telemetry_flags(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_LEDGER", "1")
        trace = str(tmp_path / "trace.json")
        ledger_path = str(tmp_path / "ledger.jsonl")
        code = main([
            "sweep", "--apps", "x264", "--schemes", "SRAM-64TSB",
            "--workers", "1", "--no-cache", "--cycles", "200",
            "--warmup", "80", "--mesh-width", "4",
            "--capacity-scale", str(1 / 64),
            "--progress", "plain", "--trace-out", trace,
            "--ledger-path", ledger_path,
        ])
        assert code == 0
        slices, _tracks, errors = validate_chrome_trace(trace)
        assert errors == [] and slices > 0
        assert len(RunLedger(path=ledger_path).entries()) == 1
        assert "telemetry:" in capsys.readouterr().out
