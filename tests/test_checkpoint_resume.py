"""Crash-survivable sweeps: resume through the result cache, hardened
cache reads, and per-point retry with bounded backoff.

Two crash shapes are exercised: an in-process abort partway through a
grid (exception out of ``run_points``) and a real ``SIGKILL`` of a CLI
sweep subprocess.  Re-run against the same cache, both must serve the
finished points as hits without recomputing them, and the completed
grid must match a clean uninterrupted run byte for byte.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import WorkloadError
from repro.obs.telemetry import SweepTelemetry
from repro.sim import parallel
from repro.sim.config import Scheme
from repro.sim.parallel import (
    SweepCache, SweepPoint, SweepRunStats, run_points,
)
from repro.sim.sweep import SweepGrid, run_sweep

FAST = {"mesh_width": 4, "capacity_scale": 1 / 64}


def specs(n=4):
    return [
        SweepPoint.build(app, Scheme.SRAM_64TSB, 200, 80, 1, FAST)
        for app in ("x264", "hmmer", "mcf", "tpcc")[:n]
    ]


class _AbortAfter:
    """Progress callback that raises after N completions (the
    in-process stand-in for a crash mid-grid)."""

    def __init__(self, n):
        self.n = n
        self.seen = 0

    def __call__(self, app, scheme):
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt("simulated crash")


class TestCheckpointResume:
    def test_resume_after_inprocess_crash(self, tmp_path):
        cache_dir = str(tmp_path)
        points = specs(4)

        with pytest.raises(KeyboardInterrupt):
            run_points(points, workers=1, cache=True, cache_dir=cache_dir,
                       progress=_AbortAfter(2))

        stats = SweepRunStats()
        resumed = run_points(points, workers=1, cache=True,
                             cache_dir=cache_dir, stats=stats)
        assert stats.cache_hits == 2  # written before the crash
        assert stats.simulated == 2  # only the unfinished half

        clean = run_points(points, workers=1, cache=False)
        assert resumed == clean


def cache_entries(cache_dir):
    """Completed entries only: in-flight writes are ``*.json.tmp.*``."""
    return glob.glob(os.path.join(cache_dir, "*", "*.json"))


class TestSIGKILLResume:
    """A real kill -9 of a CLI sweep, then resume to completion."""

    GRID = ["--apps", "sclust,x264", "--schemes",
            "SRAM-64TSB,MRAM-4TSB", "--workers", "1",
            "--mesh-width", "4", "--capacity-scale", "0.015625",
            "--cycles", "12000", "--warmup", "1000"]

    def test_kill_and_resume(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "sweep",
             *self.GRID, "--cache-dir", cache_dir],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if cache_entries(cache_dir):
                    break
                if proc.poll() is not None:
                    pytest.fail("sweep finished before the kill; "
                                "raise --cycles")
                time.sleep(0.05)
            else:
                pytest.fail("no cache entry ever appeared")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()

        survived = len(cache_entries(cache_dir))
        assert 1 <= survived < 4

        grid = SweepGrid(
            apps=["sclust", "x264"],
            schemes=(Scheme.SRAM_64TSB, Scheme.STTRAM_4TSB),
            cycles=12000, warmup=1000,
            overrides={"mesh_width": 4, "capacity_scale": 0.015625},
        )
        stats = SweepRunStats()
        sweep = run_sweep(grid, workers=1, cache=True,
                          cache_dir=cache_dir, stats=stats)
        assert stats.cache_hits == survived
        assert stats.simulated == 4 - survived
        assert len(sweep.data) == 2
        assert all(len(v) == 2 for v in sweep.data.values())


class TestHardenedCache:
    def test_truncated_entry_evicts_and_recomputes(self, tmp_path):
        cache_dir = str(tmp_path)
        points = specs(1)
        clean = run_points(points, workers=1, cache=True,
                           cache_dir=cache_dir)
        cache = SweepCache(cache_dir)
        path = cache.path_for(points[0].key())
        with open(path) as fh:
            blob = fh.read()
        with open(path, "w") as fh:
            fh.write(blob[: len(blob) // 2])  # truncate mid-payload

        stats = SweepRunStats()
        results = run_points(points, workers=1, cache=True,
                             cache_dir=cache_dir, stats=stats)
        assert stats.cache_evictions == 1
        assert stats.cache_hits == 0
        assert stats.simulated == 1
        assert results == clean  # recomputed, not served corrupt
        # ... and the recompute repopulated a valid entry
        assert SweepCache(cache_dir).get(points[0].key()) is not None

    def test_tampered_payload_fails_digest_on_get(self, tmp_path):
        cache_dir = str(tmp_path)
        points = specs(1)
        run_points(points, workers=1, cache=True, cache_dir=cache_dir)
        cache = SweepCache(cache_dir)
        path = cache.path_for(points[0].key())
        with open(path) as fh:
            payload = json.load(fh)
        payload["result"]["cycles"] = 999999  # silent bit-flip
        with open(path, "w") as fh:
            json.dump(payload, fh)

        assert cache.get(points[0].key()) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)  # evicted, not left to fester

    def test_tampered_entry_recomputed(self, tmp_path):
        cache_dir = str(tmp_path)
        points = specs(1)
        clean = run_points(points, workers=1, cache=True,
                           cache_dir=cache_dir)
        cache = SweepCache(cache_dir)
        path = cache.path_for(points[0].key())
        with open(path) as fh:
            payload = json.load(fh)
        payload["result"]["cycles"] = 999999
        with open(path, "w") as fh:
            json.dump(payload, fh)

        stats = SweepRunStats()
        results = run_points(points, workers=1, cache=True,
                             cache_dir=cache_dir, stats=stats)
        assert stats.cache_evictions == 1
        assert results == clean

    def test_eviction_metric_emitted(self, tmp_path):
        cache_dir = str(tmp_path)
        points = specs(1)
        run_points(points, workers=1, cache=True, cache_dir=cache_dir)
        cache = SweepCache(cache_dir)
        path = cache.path_for(points[0].key())
        with open(path, "w") as fh:
            fh.write("{not json")
        tel = SweepTelemetry()
        run_points(points, workers=1, cache=True, cache_dir=cache_dir,
                   telemetry=tel)
        assert tel.registry.counter("sweep.cache.evictions").value == 1


class _FlakyPoint:
    """simulate_point stand-in that fails N times, then succeeds."""

    def __init__(self, failures, real):
        self.failures = failures
        self.real = real
        self.calls = 0

    def __call__(self, spec):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("transient worker wobble")
        return self.real(spec)


class TestPerPointRetry:
    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr(parallel.time, "sleep", slept.append)
        return slept

    def test_flaky_point_retries_and_succeeds(self, monkeypatch, sleeps):
        clean = run_points(specs(1), workers=1, cache=False)
        flaky = _FlakyPoint(2, parallel.simulate_point)
        monkeypatch.setattr(parallel, "simulate_point", flaky)
        stats = SweepRunStats()
        results = run_points(specs(1), workers=1, cache=False,
                             stats=stats)
        assert flaky.calls == 3
        assert stats.retried == 2
        assert stats.simulated == 1
        assert results == clean

    def test_retries_exhausted_raises(self, monkeypatch, sleeps):
        flaky = _FlakyPoint(10, parallel.simulate_point)
        monkeypatch.setattr(parallel, "simulate_point", flaky)
        with pytest.raises(RuntimeError, match="wobble"):
            run_points(specs(1), workers=1, cache=False)
        assert flaky.calls == 3  # initial + 2 retries, then give up

    def test_backoff_is_bounded_exponential(self, monkeypatch, sleeps):
        flaky = _FlakyPoint(2, parallel.simulate_point)
        monkeypatch.setattr(parallel, "simulate_point", flaky)
        run_points(specs(1), workers=1, cache=False)
        assert sleeps == [0.25, 0.5]

    def test_failed_cache_write_is_not_retried(self, tmp_path, monkeypatch,
                                               sleeps):
        """Only the simulation retries: a cache write that fails raises
        after one simulation, on the serial and the pool path alike."""
        def full_disk(*_args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(SweepCache, "put", full_disk)
        counting = _FlakyPoint(0, parallel.simulate_point)
        monkeypatch.setattr(parallel, "simulate_point", counting)
        for workers, points in ((1, specs(1)), (2, specs(2))):
            stats = SweepRunStats()
            with pytest.raises(OSError):
                run_points(points, workers=workers, cache=True,
                           cache_dir=str(tmp_path), stats=stats)
            assert (stats.simulated, stats.retried) == (1, 0), workers
        assert counting.calls == 1  # the pool simulates in its workers
        assert sleeps == []

    def test_typed_error_is_not_retried(self, sleeps):
        """A point is hermetic, so a ``ReproError`` it raises would come
        back on every retry: the sweep fails at once, serial or pooled,
        and no worker counts as crashed."""
        bad = [SweepPoint.build("nosuchapp", scheme, 200, 80, 1, FAST)
               for scheme in (Scheme.SRAM_64TSB, Scheme.STTRAM_4TSB)]
        for workers in (1, 2):
            stats = SweepRunStats()
            with pytest.raises(WorkloadError):
                run_points(bad, workers=workers, cache=False, stats=stats)
            assert (stats.retried, stats.worker_crashes) == (0, 0), workers
        assert sleeps == []
