"""Golden result digests: an absolute pin on simulated results.

Every other identity gate compares two execution paths of the same
commit (dense vs event, scalar vs batch, telemetry on vs off).  The
dense reference loop shares the bank, memory-controller, core,
arbiter, estimator and stream code with the production path, so a
change inside one of those shared models moves both sides alike and
passes every relative gate.  This table pins the results themselves.

Each case is a small configuration run on the production (event)
scheduler.  ``golden_results.json`` holds, per case, one digest for
every field of ``SimulationResult.to_dict()``, recorded under the dense
reference schedule by ``tests/record_golden.py``; a failure names the
fields that drifted.  A change meant to alter simulated results
re-records the table and names each changed case and the model change
behind it in CHANGES.md; a speed-only change leaves it untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict

import pytest

from repro.resilience import FaultConfig
from repro.sim.config import (
    ALL_SCHEMES, Scheme, TSBPlacement, WriteBufferConfig,
)
from repro.sim.parallel import SweepPoint, build_simulator

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_results.json")

WARMUP = 400
CYCLES = 800
SMALL = dict(mesh_width=4, capacity_scale=1 / 64)
#: fault schedules fire mid-warmup, as ``repro.cli chaos`` does
FAULT_AT = WARMUP // 2

#: name -> (scheme, config overrides, extras).  Extras: ``app`` (any
#: ``make_workload`` name; default tpcc) and ``faults`` (a FaultConfig;
#: the run then also attaches the invariant guard, as ``repro.cli
#: chaos`` does).  Each case is a ``SweepPoint`` run through
#: ``build_simulator``, so the digests also pin the builder, the
#: workload registry (mix-case1) and the dataclass override (buff-20).
CASES: Dict[str, tuple] = {
    **{f"scheme-{s.value}": (s, SMALL, {}) for s in ALL_SCHEMES},
    "rca-period-4": (Scheme.STTRAM_4TSB_RCA,
                     dict(SMALL, rca_update_period=4), {}),
    "buff-20": (Scheme.STTRAM_64TSB,
                dict(SMALL, write_buffer=WriteBufferConfig(entries=20)), {}),
    "hybrid-4-sram-ways": (Scheme.STTRAM_4TSB_WB,
                           dict(SMALL, hybrid_sram_ways=4), {}),
    # 16 regions need the 8x8 mesh: a 4x4 layer has 16 nodes in all.
    "regions-16-stagger": (Scheme.STTRAM_4TSB_WB,
                           dict(SMALL, mesh_width=8, n_region_tsbs=16,
                                tsb_placement=TSBPlacement.STAGGER), {}),
    "hop-distance-1": (Scheme.STTRAM_4TSB_WB,
                       dict(SMALL, parent_hop_distance=1), {}),
    "hop-distance-3": (Scheme.STTRAM_4TSB_WB,
                       dict(SMALL, parent_hop_distance=3), {}),
    "fault-crc": (Scheme.STTRAM_4TSB_WB, SMALL, {
        "faults": FaultConfig(seed=7, crc_rate=0.005)}),
    "fault-tsb": (Scheme.STTRAM_4TSB_RCA, SMALL, {
        "faults": FaultConfig(seed=7, tsb_failures=((0, FAULT_AT),))}),
    "fault-bank-port": (Scheme.STTRAM_4TSB_WB, SMALL, {
        "faults": FaultConfig(
            seed=7, bank_port_failures=((8, FAULT_AT, 500),))}),
    "mix-case1": (Scheme.STTRAM_4TSB_WB, SMALL, {"app": "case1"}),
}


def simulate(name: str, scheduler: str = "event") -> dict:
    """Run one case and return its ``SimulationResult.to_dict()``."""
    scheme, overrides, extras = CASES[name]
    point = SweepPoint.build(extras.get("app", "tpcc"), scheme, CYCLES,
                             WARMUP, 1, overrides)
    faults = extras.get("faults")
    sim = build_simulator(point, scheduler=scheduler,
                          guard=faults is not None, faults=faults)
    return sim.run(point.cycles, warmup=point.warmup).to_dict()


def field_digests(summary: dict) -> Dict[str, str]:
    """One short SHA-256 per result field (floats hashed by ``repr``,
    so any last-bit change shows)."""
    return {
        field: hashlib.sha256(json.dumps(
            value, sort_keys=True, separators=(",", ":")
        ).encode("ascii")).hexdigest()[:16]
        for field, value in summary.items()
    }


def load_golden() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


def test_table_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_matches_golden(name):
    expected = load_golden()[name]
    actual = field_digests(simulate(name))
    drifted = sorted(
        field for field in expected.keys() | actual.keys()
        if expected.get(field) != actual.get(field)
    )
    assert not drifted, (
        f"{name}: fields drifted from tests/golden_results.json: "
        f"{', '.join(drifted)}"
    )
