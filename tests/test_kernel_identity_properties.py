"""Field-level identity of the production sweep path.

A sweep worker resolves its chunk of grid points back to back in one
process (``repro.sim.parallel._simulate_chunk`` calling
``simulate_point``), each point on the event-driven cycle driver.  These
tests assert more than summary identity: the *internal*
instrumentation of every simulator the sweep path builds -- every
``CoreStats`` field of every core, each MSHR file's ``full_stalls`` and
every ``BankStats`` field including the ``service_intervals`` schedule
-- equals, field by field, a fresh run of the same point on the dense
reference loop.  Inputs cover the four paper schemes, randomized odd
warm-ups and windows, and chunk widths {1, 3, 8, 16}: width 1 gives
every point a chunk of its own, wider chunks run several points in one
call, so state leaking from one point into the next would show.
"""

import random
import time

import pytest

from repro.sim import parallel
from repro.sim import simulator as simulator_module
from repro.sim.config import Scheme
from repro.sim.parallel import SweepPoint, build_simulator
from repro.sim.simulator import CMPSimulator
from tests.test_scheduler_equivalence import _assert_fields_equal

FAST = {"mesh_width": 4, "capacity_scale": 1 / 64}
SCHEMES = (Scheme.SRAM_64TSB, Scheme.STTRAM_4TSB,
           Scheme.STTRAM_4TSB_SS, Scheme.STTRAM_4TSB_WB)


def _dense_reference(spec):
    """One dense-loop run built by ``build_simulator``, as
    ``simulate_point`` builds its simulator; returns the live simulator
    plus its summary dict."""
    sim = build_simulator(spec, scheduler="dense")
    summary = sim.run(spec.cycles, warmup=spec.warmup).to_dict()
    return sim, summary


@pytest.mark.parametrize("width", [1, 3, 8, 16])
@pytest.mark.parametrize("seed", [3, 11])
def test_field_level_identity_across_schemes(width, seed, monkeypatch):
    rng = random.Random(seed * 1000 + width)
    specs = [
        SweepPoint.build(
            "tpcc", scheme,
            rng.randrange(150, 300),
            2 * rng.randrange(25, 50) + 1,  # odd warm-up
            seed, FAST,
        )
        for scheme in SCHEMES
    ]

    # Keep every simulator the sweep path builds, so its internal stats
    # can be inspected after the chunk finishes.
    captured = []

    class CapturingSimulator(CMPSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            captured.append(self)

    monkeypatch.setattr(simulator_module, "CMPSimulator",
                        CapturingSimulator)
    results = []
    for chunk in parallel._chunked(specs, width):
        payload = parallel._simulate_chunk(chunk, time.monotonic())
        results.extend(row["result"] for row in payload["rows"])
    monkeypatch.undo()

    assert len(captured) == len(specs)
    assert all(sim.scheduler == "event" for sim in captured)

    refs = [_dense_reference(spec) for spec in specs]
    assert results == [summary for _, summary in refs]
    for spec, event_sim, (ref_sim, summary) in zip(specs, captured, refs):
        assert summary["packets_delivered"] > 0
        _assert_fields_equal(ref_sim, event_sim)
