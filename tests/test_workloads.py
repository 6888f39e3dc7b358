"""Tests for the Table 3 data, synthetic streams, and workload mixes."""

import pytest

from repro.errors import WorkloadError
from repro.sim.config import Scheme, make_config
from repro.workloads.benchmarks import (
    BENCHMARKS, PARSEC, SERVER, SPEC, all_benchmarks,
    characterization_table, get_benchmark, suite_benchmarks,
)
from repro.workloads import mixes
from repro.workloads.mixes import (
    CASE1_APPS, CASE2_APPS, case1, case2, case3_mixes, homogeneous,
    make_stream, make_workload, mix,
)
from repro.workloads.synthetic import MEM_OP_RATE, SyntheticStream


class TestTable3:
    def test_forty_two_applications(self):
        assert len(all_benchmarks()) == 42

    def test_suite_sizes(self):
        assert len(suite_benchmarks(SERVER)) == 4
        assert len(suite_benchmarks(PARSEC)) == 13
        assert len(suite_benchmarks(SPEC)) == 25

    def test_l1mpki_identity(self):
        # Table 3: every L1 miss becomes exactly one L2 read or write.
        # (The paper's own rounding leaves sap 0.19 off; everything else
        # agrees to the printed precision.)
        for b in all_benchmarks():
            assert b.l1mpki == pytest.approx(b.l2wpki + b.l2rpki,
                                             abs=0.2), b.name

    def test_spot_check_tpcc(self):
        tpcc = get_benchmark("tpcc")
        assert tpcc.l1mpki == 51.47
        assert tpcc.l2wpki == 40.9
        assert tpcc.bursty
        assert tpcc.write_intensive

    def test_spot_check_libquantum(self):
        lib = get_benchmark("libquantum")
        assert lib.l2wpki == 0.0
        assert lib.read_intensive
        assert not lib.bursty

    def test_aliases(self):
        assert get_benchmark("streamcluster") is get_benchmark("sclust")
        assert get_benchmark("gems") is get_benchmark("gemsfdtd")
        assert get_benchmark("libqntm") is get_benchmark("libquantum")

    def test_unknown_benchmark(self):
        with pytest.raises(WorkloadError):
            get_benchmark("doom")
        with pytest.raises(WorkloadError):
            suite_benchmarks("nacl")

    def test_sharing_classification(self):
        assert get_benchmark("tpcc").shared
        assert get_benchmark("ferret").shared
        assert not get_benchmark("mcf").shared

    def test_characterization_rows(self):
        rows = characterization_table()
        assert len(rows) == 42
        assert rows[0]["benchmark"] == "tpcc"
        assert rows[0]["bursty"] == "High"


class TestSyntheticStream:
    def _stream(self, app="tpcc", core=0, seed=1):
        cfg = make_config(Scheme.STTRAM_64TSB, mesh_width=4,
                          capacity_scale=1 / 64)
        return SyntheticStream(get_benchmark(app), core, cfg, seed=seed,
                               shared_pool_blocks=1024)

    def test_deterministic_given_seed(self):
        a_stream = self._stream(seed=3)
        a = [a_stream.next_access() for _ in range(50)]
        b_stream = self._stream(seed=3)
        b = [b_stream.next_access() for _ in range(50)]
        assert a == b

    def test_different_cores_diverge(self):
        s0 = self._stream(core=0)
        s1 = self._stream(core=1)
        seq0 = [s0.next_access() for _ in range(50)]
        seq1 = [s1.next_access() for _ in range(50)]
        assert seq0 != seq1

    def test_miss_rate_calibrated(self):
        stream = self._stream("hmmer")
        n = 30_000
        for _ in range(n):
            stream.next_access()
        measured = stream.generated_misses / n
        target = get_benchmark("hmmer").l1mpki / 1000.0 / MEM_OP_RATE
        assert measured == pytest.approx(target, rel=0.25)

    def test_store_fraction_calibrated(self):
        stream = self._stream("tpcc")
        for _ in range(30_000):
            stream.next_access()
        frac = stream.generated_stores / max(1, stream.generated_misses)
        assert frac == pytest.approx(get_benchmark("tpcc").write_fraction,
                                     rel=0.2)

    def test_zero_write_app_generates_no_stores(self):
        stream = self._stream("libquantum")
        for _ in range(20_000):
            stream.next_access()
        assert stream.generated_stores == 0

    def test_bursty_app_clusters_banks(self):
        """High-bursty streams revisit the same bank in close succession
        far more often than low-bursty ones."""
        def same_bank_ratio(app):
            stream = self._stream(app)
            n_banks = stream.n_banks
            banks = []
            for _ in range(40_000):
                gap, block, _st = stream.next_access()
                if gap < 10_000:  # memory op (always true here)
                    banks.append(block % n_banks)
            repeats = sum(1 for a, b in zip(banks, banks[1:]) if a == b)
            return repeats / len(banks)

        # tpcc (High) vs mcf (Low): hot-set accesses dilute both, but
        # bursts make consecutive same-bank pairs far likelier.
        assert same_bank_ratio("tpcc") > 2 * same_bank_ratio("mcf")

    def test_prewarm_blocks_fill_pool(self):
        stream = self._stream("tpcc")
        blocks = stream.prewarm_blocks()
        assert len(blocks) >= stream._pool_capacity // 2
        assert len(stream._pool) == stream._pool_capacity

    def test_hot_blocks_are_stable(self):
        stream = self._stream("mcf")
        assert stream.hot_blocks() == stream.hot_blocks()

    def test_shared_blocks_only_for_shared_apps(self):
        assert len(self._stream("tpcc").shared_blocks()) == 1024
        assert len(self._stream("mcf").shared_blocks()) == 0


class TestMixes:
    def _cfg(self):
        return make_config(Scheme.STTRAM_64TSB, mesh_width=4,
                           capacity_scale=1 / 64)

    def test_homogeneous(self):
        wl = homogeneous("tpcc", self._cfg())
        assert wl.n_cores == 16
        assert set(wl.app_of_core) == {"tpcc"}
        assert wl.apps() == ["tpcc"]

    def test_mix_interleaves_evenly(self):
        wl = mix(["lbm", "hmmer"], self._cfg())
        assert len(wl.cores_of_app("lbm")) == 8
        assert len(wl.cores_of_app("hmmer")) == 8

    def test_case1_composition(self):
        wl = case1(self._cfg())
        assert wl.name == "case1"
        assert set(wl.app_of_core) == set(CASE1_APPS)
        # All four Case-1 applications carry substantial write traffic.
        for app in CASE1_APPS:
            assert get_benchmark(app).l2wpki > 10

    def test_case2_composition(self):
        wl = case2(self._cfg())
        assert set(wl.app_of_core) == set(CASE2_APPS)

    def test_case3_mix_structure(self):
        mixes = case3_mixes(self._cfg(), n_mixes=8, apps_per_mix=4)
        assert len(mixes) == 8
        tags = [m.name.split("-")[1] for m in mixes]
        assert tags.count("read") == 2
        assert tags.count("write") == 2
        assert tags.count("mixed") == 4

    def test_empty_mix_rejected(self):
        with pytest.raises(WorkloadError):
            mix([], self._cfg())


class TestRegistry:
    """``make_workload`` builds exactly what the direct builders do."""

    def _cfg(self):
        return make_config(Scheme.STTRAM_64TSB, mesh_width=4,
                           capacity_scale=1 / 64)

    @staticmethod
    def _accesses(workload, n=50):
        return [[stream.next_access() for _ in range(n)]
                for stream in workload.streams]

    @pytest.mark.parametrize("name, seed, build", [
        ("tpcc", 3, lambda cfg: homogeneous("tpcc", cfg, seed=3)),
        ("case1", 1, lambda cfg: case1(cfg, seed=1)),
        ("case2", 2, lambda cfg: case2(cfg, seed=2)),
        ("case3-2x4-1", 7,
         lambda cfg: case3_mixes(cfg, n_mixes=2, apps_per_mix=4)[1]),
        ("case3-32x8-31", 7,
         lambda cfg: case3_mixes(cfg, n_mixes=32, apps_per_mix=8)[31]),
    ], ids=["tpcc", "case1", "case2", "case3-2x4-1", "case3-32x8-31"])
    def test_matches_direct_builders(self, name, seed, build):
        got = make_workload(name, self._cfg(), seed)
        want = build(self._cfg())
        assert got.name == want.name
        assert got.app_of_core == want.app_of_core
        assert self._accesses(got) == self._accesses(want)

    def test_case3_name_builds_only_its_mix(self, monkeypatch):
        config = make_config(Scheme.STTRAM_64TSB)
        calls = []

        def counting(*args):
            calls.append(args)
            return make_stream(*args)

        monkeypatch.setattr(mixes, "make_stream", counting)
        make_workload("case3-32x8-31", config, 7)
        assert len(calls) == config.n_cores

    @pytest.mark.parametrize("name", ["case3-x", "case3-2x4-2",
                                      "nosuchapp"])
    def test_bad_names_rejected(self, name):
        with pytest.raises(WorkloadError):
            make_workload(name, self._cfg())
