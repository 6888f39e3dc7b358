"""Set-up pinned against the per-block reference prewarm.

:func:`reference_prewarm` is the per-block prewarm: one ``_fresh_block``
call per pool block, and every L2 block filled into its home bank in
the interleaved order it is generated in (per core: pool, hot set, then
the shared pool once), hot blocks also into the core's L1 and its home
directory.  ``CMPSimulator.prewarm`` gathers the same blocks per home
bank and fills each bank's list in one loop; every case here is built
both ways and the whole cache, directory and stream state compared.

The count gates pin what set-up builds: no cache set before its first
fill, and after a prewarm exactly the sets its blocks map to.
"""

import pytest

from repro.cache.arrays import EMPTY_SET
from repro.cpu.trace import IdleStream
from repro.sim.config import Scheme, make_config
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import Workload, case1, homogeneous
from repro.workloads.synthetic import SyntheticStream
from tests.conftest import burst_workload, small_config


def reference_pool_blocks(stream: SyntheticStream):
    """``SyntheticStream.prewarm_blocks``, one fresh block at a time."""
    blocks = []
    if stream.bursty:
        per_bank = max(8, stream._pool_capacity // (2 * stream.n_banks))
        for bank in range(stream.n_banks):
            for _ in range(per_bank):
                blocks.append(stream._fresh_block(bank=bank))
    while len(stream._pool) < stream._pool_capacity:
        blocks.append(stream._fresh_block())
    return blocks


def reference_prewarm(sim: CMPSimulator) -> None:
    """Install every prewarm block as it is generated."""

    def install_l2(block):
        sim.banks[sim.bank_for_block(block)].array.fill(block)

    shared_done = False
    for core in sim.cores:
        stream = core.stream
        if not isinstance(stream, SyntheticStream):
            continue
        for block in reference_pool_blocks(stream):
            install_l2(block)
        for block in stream.hot_blocks():
            install_l2(block)
            core.l1.fill(block)
            bank = sim.banks[sim.bank_for_block(block)]
            bank.directory.on_request(core.core_id, block, False)
        if not shared_done:
            for block in stream.shared_blocks():
                install_l2(block)
            shared_done = True


def array_state(array):
    # The sets' items as lists: plain dicts compare equal whatever their
    # order, and the order is the LRU order.
    return (
        [list(s.items()) for s in array._sets],
        [s is EMPTY_SET for s in array._sets],
    )


def sim_state(sim: CMPSimulator):
    """Everything the prewarm writes, in comparable form."""
    return {
        "l2": [array_state(bank.array) for bank in sim.banks],
        "l1": [array_state(core.l1) for core in sim.cores],
        "directory": [
            [(block, entry.sharers, entry.owner)
             for block, entry in bank.directory._entries.items()]
            for bank in sim.banks
        ],
        "streams": [
            (s._stream_counter, s._pool, s._bank_pools, s._rng.getstate())
            for s in (core.stream for core in sim.cores)
            if isinstance(s, SyntheticStream)
        ],
    }


def case1_on(n_cores):
    """Case-1 streams on the first ``n_cores`` cores, the rest idle."""
    def build(config):
        load = case1(config, seed=1)
        idle = [IdleStream() for _ in range(config.n_cores - n_cores)]
        return Workload(load.streams[:n_cores] + idle,
                        load.app_of_core, "case1-part")
    return build


SMALL = small_config()
SMALL_SRAM = small_config(Scheme.SRAM_64TSB)
PAPER = make_config(Scheme.STTRAM_4TSB_RCA, mesh_width=8,
                    capacity_scale=1 / 16)
PAPER_SRAM = make_config(Scheme.SRAM_64TSB, mesh_width=8,
                         capacity_scale=1 / 16)
DEFAULT = make_config(Scheme.SRAM_64TSB)

CASES = {
    # bursty and shared, shared only, bursty only, neither; the SRAM
    # L2 is smaller than the pools, so fills there also evict
    "small-tpcc": (SMALL, lambda c: homogeneous("tpcc", c, seed=5)),
    "small-x264": (SMALL_SRAM, lambda c: homogeneous("x264", c, seed=2)),
    "small-gcc": (SMALL, lambda c: homogeneous("gcc", c, seed=3)),
    "small-mcf": (SMALL_SRAM, lambda c: homogeneous("mcf", c, seed=4)),
    "small-case1": (SMALL, lambda c: case1(c, seed=6)),
    "paper-tpcc": (PAPER_SRAM, lambda c: homogeneous("tpcc", c, seed=1)),
    "paper-x264": (PAPER, lambda c: homogeneous("x264", c, seed=7)),
    "paper-case1": (PAPER, lambda c: case1(c, seed=2)),
    # Case 1 on all 64 cores of the default config takes about 5 s on
    # a 2-vCPU host, mostly in the per-block reference; eight cores
    # cover the default geometry at a tenth of that
    "default-case1": (DEFAULT, case1_on(8)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_prewarm_matches_per_block_reference(case):
    config, build = CASES[case]
    reference = CMPSimulator(config, build(config), prewarm=False)
    reference_prewarm(reference)
    grouped = CMPSimulator(config, build(config))
    assert any(bank.array.occupancy() for bank in grouped.banks)
    assert sim_state(grouped) == sim_state(reference)


def created_sets(array):
    return {i for i, s in enumerate(array._sets) if s is not EMPTY_SET}


def test_construction_without_prewarm_creates_no_set():
    # The phased burst stream has no prewarm protocol.
    config = make_config(Scheme.STTRAM_4TSB_WB)
    sim = CMPSimulator(config, burst_workload(config))
    arrays = [bank.array for bank in sim.banks]
    arrays += [core.l1 for core in sim.cores]
    assert not any(created_sets(array) for array in arrays)


def test_prewarm_creates_exactly_the_sets_of_its_blocks():
    config = PAPER
    sim = CMPSimulator(config, homogeneous("tpcc", config, seed=3))
    streams = homogeneous("tpcc", config, seed=3).streams
    l2_blocks = []
    for stream in streams:
        l2_blocks += stream.prewarm_blocks()
        l2_blocks += stream.hot_blocks()
    l2_blocks += streams[0].shared_blocks()

    def set_index(array, block):
        return (block // array.index_stride) % array.n_sets

    want = {(block % config.n_banks,
             set_index(sim.banks[block % config.n_banks].array, block))
            for block in l2_blocks}
    got = {(b, i) for b, bank in enumerate(sim.banks)
           for i in created_sets(bank.array)}
    assert got == want
    for core, stream in zip(sim.cores, streams):
        assert created_sets(core.l1) == {
            set_index(core.l1, block) for block in stream.hot_blocks()}
