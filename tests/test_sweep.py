"""Tests for the sweep grid and its JSON persistence."""

import os
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.sim.config import Scheme, TSBPlacement, WriteBufferConfig
from repro.sim.sweep import SweepGrid, SweepResults, run_sweep

FAST = {"mesh_width": 4, "capacity_scale": 1 / 64}
SCHEMES = (Scheme.SRAM_64TSB, Scheme.STTRAM_4TSB_WB)


@pytest.fixture(scope="module")
def sweep():
    grid = SweepGrid(apps=["x264", "hmmer"], schemes=SCHEMES,
                     cycles=400, warmup=150, overrides=dict(FAST))
    return run_sweep(grid)


#: One-point sweep run in a fresh interpreter; ``{plant}`` may block an
#: import before the package loads.  Prints whether numpy got imported.
NUMPY_FREE_SCRIPT = """
import sys
{plant}
from repro.errors import ConfigError
from repro.sim.config import Scheme
from repro.sim.sweep import SweepGrid, run_sweep

grid = SweepGrid(apps=["x264"], schemes=(Scheme.SRAM_64TSB,),
                 cycles=200, warmup=80,
                 overrides={{"mesh_width": 4, "capacity_scale": 1 / 64}})
sweep = run_sweep(grid, workers=1, cache=False)
assert sweep.data["x264"]["SRAM-64TSB"]["packets_delivered"] > 0
print(sys.modules.get("numpy") is not None)
"""


class TestRunSweep:
    def test_sweep_needs_no_numpy(self):
        """A sweep imports only the standard library: numpy never loads,
        and a sweep still runs where importing numpy would fail."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        for plant in ("", 'sys.modules["numpy"] = None'):
            out = subprocess.run(
                [sys.executable, "-c", NUMPY_FREE_SCRIPT.format(plant=plant)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            assert out.strip() == "False", (plant, out)

    def test_covers_full_grid(self, sweep):
        assert sweep.apps() == ["x264", "hmmer"]
        assert sweep.schemes() == ["SRAM-64TSB", "MRAM-4TSB-WB"]

    def test_metric_extraction(self, sweep):
        it = sweep.metric("instruction_throughput")
        for app in ("x264", "hmmer"):
            for scheme in ("SRAM-64TSB", "MRAM-4TSB-WB"):
                assert it[app][scheme] > 0

    def test_normalisation(self, sweep):
        norm = sweep.normalized("instruction_throughput",
                                baseline="SRAM-64TSB")
        for app in sweep.apps():
            assert norm[app]["SRAM-64TSB"] == pytest.approx(1.0)

    def test_missing_baseline_yields_zero(self, sweep):
        norm = sweep.normalized("instruction_throughput",
                                baseline="nonexistent")
        assert all(v == 0.0
                   for by_scheme in norm.values()
                   for v in by_scheme.values())

    def test_progress_callback(self):
        seen = []
        grid = SweepGrid(apps=["x264"], schemes=(Scheme.SRAM_64TSB,),
                         cycles=200, warmup=50, overrides=dict(FAST))
        run_sweep(grid, progress=lambda a, s: seen.append((a, s)))
        assert seen == [("x264", Scheme.SRAM_64TSB)]


def test_default_sweep_writes_nothing_outside_its_cache(tmp_path,
                                                        monkeypatch):
    """With the cache off, a sweep writes no file at all: not under the
    home or cache directories, and not when the removed run-ledger
    switch ``REPRO_LEDGER=1`` is still set."""
    home = tmp_path / "home"
    home.mkdir()
    for name in ("HOME", "XDG_CACHE_HOME", "REPRO_SWEEP_CACHE_DIR"):
        monkeypatch.setenv(name, str(home))
    monkeypatch.setenv("REPRO_LEDGER", "1")
    grid = SweepGrid(apps=["x264"], schemes=(Scheme.SRAM_64TSB,),
                     cycles=200, warmup=80, overrides=dict(FAST))
    sweep = run_sweep(grid, workers=1)
    assert sweep.data["x264"]["SRAM-64TSB"]["packets_delivered"] > 0
    assert list(home.rglob("*")) == []
    with pytest.raises(ConfigError):
        run_sweep(grid, ledger=True)


class TestPersistence:
    def test_save_load_roundtrip(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        sweep.save(str(path))
        loaded = SweepResults.load(str(path))
        assert loaded.data == sweep.data
        assert loaded.grid_spec["apps"] == ["x264", "hmmer"]
        norm_a = sweep.normalized("avg_bank_queue_wait", "SRAM-64TSB")
        norm_b = loaded.normalized("avg_bank_queue_wait", "SRAM-64TSB")
        assert norm_a == norm_b

    def test_grid_spec_records_overrides(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        sweep.save(str(path))
        loaded = SweepResults.load(str(path))
        assert loaded.grid_spec["overrides"]["mesh_width"] == 4

    def test_save_load_roundtrip_with_enum_and_dataclass_overrides(
            self, tmp_path):
        # Figs 11/12 override an enum and BUFF-20 a frozen dataclass;
        # the saved grid spec holds their canonical forms.
        stagger = dict(FAST, tsb_placement=TSBPlacement.STAGGER)
        for overrides in (stagger,
                          dict(stagger, write_buffer=WriteBufferConfig())):
            grid = SweepGrid(apps=["x264"], schemes=(Scheme.STTRAM_4TSB_WB,),
                             cycles=200, warmup=80, overrides=overrides)
            sweep = run_sweep(grid)
            path = tmp_path / "sweep.json"
            sweep.save(str(path))
            loaded = SweepResults.load(str(path))
            assert loaded.data == sweep.data
            assert loaded.grid_spec == sweep.grid_spec
            saved = loaded.grid_spec["overrides"]
            assert saved["tsb_placement"] == "TSBPlacement.STAGGER"
        assert saved["write_buffer"]["WriteBufferConfig"]["entries"] == 20
