"""Parallel sweep engine: pickling, determinism, caching, recovery.

The engine's contract (see ``repro/sim/parallel.py``):

* grid points are self-contained picklable specs;
* ``SweepResults.data`` is byte-identical across worker counts and
  warm-cache replays;
* the content-addressed cache hits only when every input -- config,
  scheme, workload, cycles, warmup, seed, code version -- is unchanged,
  and recovers from corrupted entries by re-simulating.
"""

import dataclasses
import json
import os
import pickle

import pytest

from repro.errors import ConfigError
from repro.sim import parallel
from repro.sim.config import (
    Scheme, TSBPlacement, WriteBufferConfig, make_config,
)
from repro.sim.parallel import (
    SweepCache, SweepPoint, SweepRunStats, build_simulator,
    resolve_workers, run_points,
)
from repro.sim.sweep import SweepGrid, run_sweep

FAST = {"mesh_width": 4, "capacity_scale": 1 / 64}
SCHEMES = (Scheme.SRAM_64TSB, Scheme.STTRAM_4TSB_WB)


def tiny_grid(**kw):
    spec = dict(apps=["x264", "hmmer"], schemes=SCHEMES,
                cycles=250, warmup=100, overrides=dict(FAST))
    spec.update(kw)
    return SweepGrid(**spec)


def data_blob(sweep):
    return json.dumps(sweep.data, sort_keys=True)


# ----------------------------------------------------------------------
# Satellite: everything a worker needs must pickle
# ----------------------------------------------------------------------


class TestPickling:
    def test_config_roundtrip(self):
        cfg = make_config(Scheme.STTRAM_4TSB_WB, **FAST)
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_scheme_and_placement_roundtrip(self):
        for scheme in Scheme:
            assert pickle.loads(pickle.dumps(scheme)) is scheme
        for placement in TSBPlacement:
            assert pickle.loads(pickle.dumps(placement)) is placement

    def test_sweep_point_roundtrip(self):
        point = SweepPoint.build(
            "tpcc", Scheme.STTRAM_4TSB, 300, 100, 2,
            {"mesh_width": 4, "tsb_placement": TSBPlacement.STAGGER},
        )
        assert pickle.loads(pickle.dumps(point)) == point

    def test_simulation_result_roundtrip(self):
        point = SweepPoint.build(
            "x264", Scheme.STTRAM_64TSB, 150, 50, 1,
            {"mesh_width": 2, "capacity_scale": 1 / 256})
        result = build_simulator(point).run(150, warmup=50)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.to_dict() == result.to_dict()


# ----------------------------------------------------------------------
# Point specs and content addressing
# ----------------------------------------------------------------------


class TestSweepPoint:
    def test_overrides_are_order_insensitive(self):
        a = SweepPoint.build("tpcc", Scheme.SRAM_64TSB, 300, 100, 1,
                             {"mesh_width": 4, "capacity_scale": 0.5})
        b = SweepPoint.build("tpcc", Scheme.SRAM_64TSB, 300, 100, 1,
                             {"capacity_scale": 0.5, "mesh_width": 4})
        assert a == b
        assert a.key() == b.key()

    @pytest.mark.parametrize("change", [
        dict(app="mcf"),
        dict(scheme=Scheme.STTRAM_4TSB),
        dict(cycles=301),
        dict(warmup=101),
        dict(seed=2),
        dict(overrides={"mesh_width": 8}),
        dict(app="case1"),
        dict(overrides={"write_buffer": WriteBufferConfig()}),
    ])
    def test_any_input_change_changes_key(self, change):
        base = dict(app="tpcc", scheme=Scheme.SRAM_64TSB, cycles=300,
                    warmup=100, seed=1, overrides={"mesh_width": 4})
        merged = dict(base)
        merged.update(change)
        assert (SweepPoint.build(**base).key()
                != SweepPoint.build(**merged).key())

    def test_code_version_changes_key(self):
        point = SweepPoint.build("tpcc", Scheme.SRAM_64TSB, 300, 100, 1)
        assert point.key("v1-aaaa") != point.key("v1-bbbb")

    def test_enum_overrides_canonicalise(self):
        point = SweepPoint.build(
            "tpcc", Scheme.SRAM_64TSB, 300, 100, 1,
            {"tsb_placement": TSBPlacement.STAGGER},
        )
        canon = point.canonical()
        assert canon["overrides"]["tsb_placement"] == (
            "TSBPlacement.STAGGER"
        )
        json.dumps(canon)  # JSON-stable

        # A frozen dataclass canonicalises to its type name and its
        # sorted fields, so BUFF-N is an ordinary override.
        point = SweepPoint.build(
            "tpcc", Scheme.SRAM_64TSB, 300, 100, 1,
            {"write_buffer": WriteBufferConfig(entries=20)},
        )
        canon = point.canonical()["overrides"]["write_buffer"]
        assert list(canon) == ["WriteBufferConfig"]
        fields = canon["WriteBufferConfig"]
        assert list(fields) == sorted(fields)
        assert fields["entries"] == 20
        assert json.loads(json.dumps(canon)) == canon  # JSON-stable

    def test_uncacheable_override_rejected(self):
        mutable = dataclasses.make_dataclass("Mutable", ["entries"])(20)
        for bad in (object(), mutable):
            point = SweepPoint.build("tpcc", Scheme.SRAM_64TSB, 300, 100,
                                     1, {"bad": bad})
            with pytest.raises(ConfigError):
                point.canonical()

    def test_grid_point_specs_cover_grid_in_order(self):
        grid = tiny_grid()
        specs = grid.point_specs()
        assert [(s.app, s.scheme) for s in specs] == list(grid.points())
        assert all(s.cycles == 250 and s.warmup == 100 for s in specs)


class TestResolveWorkers:
    def test_zero_and_none_mean_cpu_count(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_explicit_count_respected(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_workers(-1)


# ----------------------------------------------------------------------
# Satellite: determinism across worker counts and cache replay
# ----------------------------------------------------------------------


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial_reference(self):
        return run_sweep(tiny_grid(), workers=1, cache=False)

    def test_pool_matches_serial_reference(self, serial_reference):
        pooled = run_sweep(tiny_grid(), workers=4, cache=False)
        assert data_blob(pooled) == data_blob(serial_reference)
        assert pooled.fingerprint() == serial_reference.fingerprint()

    def test_warm_cache_replay_matches_serial_reference(
            self, serial_reference, tmp_path):
        cold = run_sweep(tiny_grid(), workers=4, cache=True,
                         cache_dir=str(tmp_path))
        warm_stats = SweepRunStats()
        warm = run_sweep(tiny_grid(), workers=4, cache=True,
                         cache_dir=str(tmp_path), stats=warm_stats)
        assert warm_stats.cache_hits == warm_stats.points
        assert data_blob(cold) == data_blob(serial_reference)
        assert data_blob(warm) == data_blob(serial_reference)

    def test_merge_order_is_grid_order_not_completion_order(self):
        sweep = run_sweep(tiny_grid(), workers=4)
        assert sweep.apps() == ["x264", "hmmer"]
        assert sweep.schemes() == ["SRAM-64TSB", "MRAM-4TSB-WB"]


# ----------------------------------------------------------------------
# Satellite: cache correctness
# ----------------------------------------------------------------------


class TestCacheCorrectness:
    def run_stats(self, grid, tmp_path, **kw):
        stats = SweepRunStats()
        sweep = run_sweep(grid, workers=1, cache=True,
                          cache_dir=str(tmp_path), stats=stats, **kw)
        return sweep, stats

    def test_identical_rerun_hits(self, tmp_path):
        _, cold = self.run_stats(tiny_grid(), tmp_path)
        assert cold.cache_hits == 0 and cold.simulated == cold.points
        _, warm = self.run_stats(tiny_grid(), tmp_path)
        assert warm.cache_hits == warm.points and warm.simulated == 0

    @pytest.mark.parametrize("change", [
        dict(seed=2),
        dict(cycles=260),
        dict(warmup=110),
        dict(overrides={"mesh_width": 4, "capacity_scale": 1 / 32}),
    ])
    def test_changed_input_misses(self, tmp_path, change):
        self.run_stats(tiny_grid(), tmp_path)
        _, stats = self.run_stats(tiny_grid(**change), tmp_path)
        assert stats.cache_hits == 0
        assert stats.simulated == stats.points

    def test_code_version_change_misses(self, tmp_path, monkeypatch):
        self.run_stats(tiny_grid(), tmp_path)
        monkeypatch.setattr(parallel, "_CODE_VERSION", "v1-testdrift")
        _, stats = self.run_stats(tiny_grid(), tmp_path)
        assert stats.cache_hits == 0

    def test_corrupted_entry_resimulated(self, tmp_path):
        reference, _ = self.run_stats(tiny_grid(), tmp_path)
        entries = sorted(tmp_path.rglob("*.json"))
        assert len(entries) == 4
        entries[0].write_text(entries[0].read_text()[:40])  # truncate
        entries[1].write_text("not json at all")
        sweep, stats = self.run_stats(tiny_grid(), tmp_path)
        assert stats.cache_hits == 2
        assert stats.simulated == 2
        assert data_blob(sweep) == data_blob(reference)

    def test_wrong_version_payload_discarded(self, tmp_path):
        point = SweepPoint.build("x264", Scheme.SRAM_64TSB, 250, 100, 1,
                                 FAST)
        writer = SweepCache(str(tmp_path), version="v1-old")
        writer.put(point.key("v1-old"), point.canonical(), {"ok": 1})
        # Same key, different engine version: self-check rejects it.
        reader = SweepCache(str(tmp_path), version="v1-new")
        assert reader.get(point.key("v1-old")) is None
        assert not os.path.exists(writer.path_for(point.key("v1-old")))

    def test_registry_and_dataclass_points_replay_from_cache(
            self, tmp_path):
        # BUFF-20 (a dataclass override), a Case 2 mix and one Case 3
        # mix go through the pool and the cache like any app point.
        specs = [
            SweepPoint.build("tpcc", Scheme.STTRAM_64TSB, 200, 80, 1, FAST),
            SweepPoint.build("tpcc", Scheme.STTRAM_64TSB, 200, 80, 1,
                             dict(FAST, write_buffer=WriteBufferConfig())),
            SweepPoint.build("case2", Scheme.STTRAM_4TSB_WB, 200, 80, 1,
                             FAST),
            SweepPoint.build("case3-2x4-1", Scheme.STTRAM_4TSB_WB, 200, 80,
                             7, FAST),
        ]
        cold_stats, warm_stats = SweepRunStats(), SweepRunStats()
        cold = run_points(specs, workers=2, cache=True,
                          cache_dir=str(tmp_path), stats=cold_stats)
        warm = run_points(specs, workers=2, cache=True,
                          cache_dir=str(tmp_path), stats=warm_stats)
        assert cold_stats.simulated == 4
        assert warm_stats.cache_hits == warm_stats.points == 4
        assert warm_stats.simulated == 0
        assert json.dumps(warm, sort_keys=True) == json.dumps(
            cold, sort_keys=True)
        plain, buffered, case2, case3 = (cold[s.key()] for s in specs)
        assert plain != buffered
        assert set(case2["ipc_by_app"]) == {"lbm", "hmmer", "bzip2",
                                            "libquantum"}
        assert len(case3["ipc_by_app"]) == 4

    def test_duplicate_points_simulated_once(self):
        spec = SweepPoint.build("x264", Scheme.SRAM_64TSB, 200, 80, 1,
                                FAST)
        stats = SweepRunStats()
        results = run_points([spec, spec], workers=1, cache=False,
                             stats=stats)
        assert stats.points == 1
        assert stats.simulated == 1
        assert len(results) == 1


# ----------------------------------------------------------------------
# Fault tolerance: crashes, timeouts, serial fallback
# ----------------------------------------------------------------------


def _exploding_chunk(specs):  # top-level: must pickle into workers
    raise RuntimeError("injected worker crash")


class TestFaultTolerance:
    def specs(self, n=2):
        return [
            SweepPoint.build(app, Scheme.SRAM_64TSB, 200, 80, 1, FAST)
            for app in ("x264", "hmmer", "mcf", "tpcc")[:n]
        ]

    def test_worker_crash_retries_serially(self, monkeypatch):
        monkeypatch.setattr(parallel, "_simulate_chunk",
                            _exploding_chunk)
        stats = SweepRunStats()
        results = run_points(self.specs(), workers=2, cache=False,
                             stats=stats)
        assert stats.worker_crashes >= 1
        assert stats.retried == stats.points == 2
        assert all(r["cycles"] == 200 for r in results.values())

    def test_timeout_falls_back_to_serial_retry(self):
        stats = SweepRunStats()
        results = run_points(self.specs(), workers=2, cache=False,
                             timeout=1e-4, stats=stats)
        assert stats.retried >= 1
        assert all(r["cycles"] == 200 for r in results.values())

    def test_workers_1_never_builds_a_pool(self, monkeypatch):
        def no_pool(*a, **k):
            raise AssertionError("pool built in serial mode")

        monkeypatch.setattr(
            parallel.concurrent.futures, "ProcessPoolExecutor", no_pool)
        stats = SweepRunStats()
        results = run_points(self.specs(), workers=1, cache=False,
                             stats=stats)
        assert stats.simulated == 2
        assert len(results) == 2

    def test_genuine_bug_raises_after_retry(self, monkeypatch):
        def bad_point(spec):
            raise ValueError("real simulation bug")

        monkeypatch.setattr(parallel, "_simulate_chunk",
                            _exploding_chunk)
        monkeypatch.setattr(parallel, "simulate_point", bad_point)
        with pytest.raises(ValueError, match="real simulation bug"):
            run_points(self.specs(), workers=2, cache=False)


# ----------------------------------------------------------------------
# Metrics wiring
# ----------------------------------------------------------------------


class TestMetricsWiring:
    def test_registry_sees_hits_misses_and_utilisation(self, tmp_path):
        from repro.obs.telemetry import SweepTelemetry

        cold, warm = SweepTelemetry(), SweepTelemetry()
        for tel in (cold, warm):
            run_sweep(tiny_grid(), workers=1, cache=True,
                      cache_dir=str(tmp_path), telemetry=tel)
        for tel, hits in ((cold, 0), (warm, 4)):
            registry = tel.registry
            assert registry.counter("sweep.points").value == 4
            assert registry.counter("sweep.cache.misses").value == 4 - hits
            assert registry.counter("sweep.cache.hits").value == hits
            assert registry.counter("sweep.simulated").value == 4 - hits
            assert "sweep.workers" in registry
            assert "sweep.utilization" in registry
        assert cold.registry.histogram("worker.point_ms").count == 4

    def test_stats_points_per_sec_and_hit_rate(self, tmp_path):
        stats = SweepRunStats()
        run_sweep(tiny_grid(), workers=1, cache=True,
                  cache_dir=str(tmp_path), stats=stats)
        as_dict = stats.as_dict()
        assert as_dict["points"] == 4
        assert as_dict["points_per_sec"] > 0
        assert 0.0 <= as_dict["hit_rate"] <= 1.0
