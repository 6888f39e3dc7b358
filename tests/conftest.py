"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.cpu.trace import AccessStream, bank_block
from repro.noc.packet import Packet
from repro.sim.config import Scheme, SystemConfig, make_config
from repro.workloads.mixes import Workload


def small_config(scheme: Scheme = Scheme.STTRAM_4TSB_WB,
                 **overrides) -> SystemConfig:
    """A 4x4-mesh, scaled-capacity configuration for fast tests."""
    defaults = dict(mesh_width=4, capacity_scale=1 / 64)
    defaults.update(overrides)
    return make_config(scheme, **defaults)


def tiny_config(scheme: Scheme = Scheme.STTRAM_64TSB,
                **overrides) -> SystemConfig:
    """A 2x2-mesh configuration for protocol-level tests."""
    defaults = dict(mesh_width=2, capacity_scale=1 / 256)
    defaults.update(overrides)
    return make_config(scheme, **defaults)


def queued(pkt: Packet, arrival: int = 0, in_port: int = 0,
           vc: int = 0) -> Packet:
    """``pkt`` as a router's candidate queue holds it: in VC ``vc`` of
    ``in_port`` since ``arrival`` (the fields ``Router.accept`` writes)."""
    pkt.in_port = in_port
    pkt.vc = vc
    pkt.ready_at = arrival
    return pkt


class PhasedBurstStream(AccessStream):
    """Deterministic burst/compute-phase stream.

    Each period issues one burst of ``burst_length`` accesses pinned to
    a rotating home bank (store-heavy, small intra-burst gaps -- the
    paper's Figure 3 write pattern), followed by a long compute phase
    (a single large instruction gap).  Compute gaps carry only small
    per-core jitter, so cores behave like a barrier-synchronised
    data-parallel program: memory waves hammer the banks together,
    then the whole chip goes quiet until the next wave -- the regime
    where the event scheduler skips most cycles.
    """

    def __init__(self, core_id: int, config: SystemConfig, seed: int,
                 burst_length: int = 12, mean_compute_gap: int = 20_000,
                 store_fraction: float = 0.7):
        self._rng = random.Random((seed * 911_383) ^ (core_id * 65_537))
        self.core_id = core_id
        self.n_banks = config.n_banks
        self.burst_length = burst_length
        self.mean_compute_gap = mean_compute_gap
        self.store_fraction = store_fraction
        self._bank = core_id % self.n_banks
        self._index = 0
        self._in_burst = 0
        #: small start-phase jitter only -- waves stay coherent
        self._pending_gap = self._rng.randrange(64)

    def next_access(self):
        rng = self._rng
        if self._in_burst <= 0:
            # Start a new burst at the next bank after the compute phase.
            self._in_burst = self.burst_length
            self._bank = (self._bank + 1 + rng.randrange(3)) % self.n_banks
            gap = self._pending_gap
            self._pending_gap = (
                self.mean_compute_gap + rng.randrange(-256, 257)
            )
        else:
            gap = rng.randrange(2, 9)
        self._in_burst -= 1
        self._index += 1
        # Private per-core index range; rotate within a small window so
        # bursts re-touch recent blocks (bank stays the serialisation
        # point, directory state stays small).
        index = 1 + self.core_id * 4096 + (self._index % 512)
        block = bank_block(self._bank, index, self.n_banks)
        is_store = rng.random() < self.store_fraction
        return (gap, block, is_store)


def burst_workload(config: SystemConfig, seed: int = 1) -> Workload:
    """One staggered :class:`PhasedBurstStream` per core."""
    streams = [
        PhasedBurstStream(core, config, seed)
        for core in range(config.n_cores)
    ]
    return Workload(streams, ["burst"] * config.n_cores, "burst")


@pytest.fixture
def cfg_small():
    return small_config()


@pytest.fixture
def cfg_tiny():
    return tiny_config()
