"""RCA tick exactness against the original dict-based tick.

The production tick (``RegionalCongestionEstimator.tick``) reads two
counters each router keeps -- ``n_flits`` and ``link_busy_until`` --
and folds node-indexed lists.  The dense reference loop calls the same
tick, so dense-vs-event identity cannot see a mistake in it.  Here the
original tick, which walks every candidate queue and output port and
rebuilds a dict, runs as a shadow bound to the same network right after
every production tick, and each tick must agree:

* every aggregate is equal under exact float ``==``;
* ``n_flits == queued_flits()`` at every router;
* ``link_busy_until == max(out_busy_until[:LOCAL])`` at every router.

This is the test that sees float evaluation order (the golden digests
mostly do not): ``total`` starts from ``0.0`` and adds neighbours in
``neighbors_of`` order, the mean divides by the degree, and each
aggregate is ``min(max_value, 0.5 * local + 0.5 * mean)``.  The mesh
widths cover every degree mix: at width 2 every node has degree 3, and
widths 3 and up mix degrees 3, 4 and 5.

No simulation reaches either 8-bit clamp (over tpcc, lbm and sjbb the
largest local value seen is 244 and the largest aggregate 168.8), so a
separate case drives the router counters of a bound network past both
and drains them again.
"""

from __future__ import annotations

import random

import pytest

from repro.noc.packet import Packet, PacketClass
from repro.noc.topology import LOCAL, N_PORTS
from repro.resilience import FaultConfig
from repro.sim import reset_state
from repro.sim.config import Scheme, make_config
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous

APPS = ("tpcc", "sjbb", "sclust", "lbm", "mcf", "gcc")


class ReferenceRCA:
    """The original RCA tick, kept verbatim as the test-only reference
    (only ``Router.max_output_residual`` is inlined)."""

    def __init__(self, config):
        self.update_period = max(1, config.rca_update_period)
        self.max_value = 255  # 8-bit side-band wires
        self.local = {}
        self.agg = {}
        self.network = None

    def bind(self, network) -> None:
        self.network = network

    def tick(self, now: int) -> None:
        if self.network is None or now % self.update_period:
            return
        topo = self.network.topo
        routers = self.network.routers
        local = self.local
        max_value = self.max_value
        for router in routers:
            value = router.queued_flits()
            busy = 0
            out_busy_until = router.out_busy_until
            for port in range(N_PORTS):
                if port == LOCAL:
                    continue
                left = out_busy_until[port] - now
                if left > busy:
                    busy = left
            local[router.node] = min(max_value, value + busy)
        prev = dict(self.agg) if self.agg else local
        prev_get = prev.get
        local_get = local.get
        agg = self.agg
        neighbors_of = self.network.neighbors_of
        for node in range(topo.n_nodes):
            neigh = neighbors_of[node]
            if neigh:
                total = 0.0
                for n in neigh:
                    total += prev_get(n, 0.0)
                downstream = total / len(neigh)
            else:
                downstream = 0.0
            agg[node] = min(
                max_value, 0.5 * local_get(node, 0.0) + 0.5 * downstream
            )


def shadow(sim) -> list:
    """Tick a :class:`ReferenceRCA` after every production tick of
    ``sim`` and check both counters and the aggregates; returns the
    list the checked tick cycles are appended to."""
    est = sim.estimator
    ref = ReferenceRCA(sim.config)
    ref.bind(sim.network)
    production_tick = est.tick
    routers = sim.network.routers
    checked = []

    def tick(now: int) -> None:
        production_tick(now)
        ref.tick(now)
        if now % est.update_period:
            return
        for router in routers:
            assert router.n_flits == router.queued_flits(), (
                f"cycle {now}: n_flits drifted at router {router.node}")
            assert router.link_busy_until == max(
                router.out_busy_until[:LOCAL]), (
                f"cycle {now}: link_busy_until drifted at router "
                f"{router.node}")
        agg = est.agg
        bad = [n for n in ref.agg if agg[n] != ref.agg[n]]
        assert not bad and len(agg) == len(ref.agg), (
            f"cycle {now}: aggregates differ at nodes {bad[:8]}")
        checked.append(now)

    est.tick = tick
    return checked


def rca_sim(mesh_width, period, app, seed, faults=None):
    reset_state()
    # An odd width cannot be tiled into four equal regions; it gets one
    # region per row instead.
    regions = {"n_region_tsbs": mesh_width} if mesh_width % 2 else {}
    config = make_config(Scheme.STTRAM_4TSB_RCA, mesh_width=mesh_width,
                         capacity_scale=1 / 64, rca_update_period=period,
                         **regions)
    return CMPSimulator(config, homogeneous(app, config, seed=seed),
                        faults=faults)


@pytest.mark.parametrize("mesh_width,period,cycles", [
    (4, 1, 400), (4, 3, 600), (8, 1, 100), (8, 3, 200),
    (2, 1, 400), (3, 1, 400), (3, 2, 400),
])
def test_tick_matches_reference(mesh_width, period, cycles):
    rng = random.Random(mesh_width * 10 + period)
    app = rng.choice(APPS)
    seed = rng.randrange(1, 1000)
    sim = rca_sim(mesh_width, period, app, seed)
    checked = shadow(sim)
    sim.run(cycles, warmup=cycles // 4)
    total = cycles + cycles // 4
    assert len(checked) == (total + period - 1) // period
    assert all(now % period == 0 for now in checked)
    # Both counters were exercised, not just their zero start.
    assert sum(sim.network.link_flits) > 0


def test_tick_matches_reference_across_tsb_remap():
    faults = FaultConfig(seed=7, tsb_failures=((0, 120),))
    sim = rca_sim(4, 1, "tpcc", 3, faults=faults)
    checked = shadow(sim)
    sim.run(300, warmup=100)
    assert sim.fault_plane.report()["tsb_remapped"] == {0: 1}
    assert len(checked) == 400


def downstream(topo, parent, bank):
    """Nodes after ``parent`` on RCA's path to ``bank``: X-Y within the
    cache layer, after one hop down from a core-layer parent."""
    bank_node = topo.bank_node(bank)
    if topo.layer_of(parent) == 1:
        return topo.xy_path(parent, bank_node)[1:]
    return topo.xy_path(parent + topo.nodes_per_layer, bank_node)


def park(router, rng, now) -> None:
    """Park an 8-flit packet on a free input VC, as ``Router.accept``
    does for an arriving packet (no-op when every VC is taken)."""
    for port in rng.sample(range(N_PORTS), N_PORTS):
        vc = router.free_vc(port, now)
        if vc >= 0:
            pkt = Packet(PacketClass.REQUEST, router.node, router.node, 8,
                         now)
            router.accept(port, vc, pkt, rng.randrange(N_PORTS), now)
            return


def hold_link(router, port, until) -> None:
    """Keep an output link busy until ``until``, raising both counters
    as ``Network._forward`` does."""
    if until > router.out_busy_until[port]:
        router.out_busy_until[port] = until
        if until > router.link_busy_until:
            router.link_busy_until = until


@pytest.mark.parametrize("mesh_width", [2, 3, 4])
def test_tick_matches_reference_at_both_clamps(mesh_width):
    """Every router past local 255, then random load, then a drain.

    An aggregate reaches 255 only as exactly ``255.0``, from a node and
    neighbours whose previous values are all ``255.0`` (converging from
    below stalls an ulp short at degrees 3 and 5), so the routers are
    saturated from the seeding first tick on.  Node 0 alone starts idle:
    its first aggregate then reads clamped seeds beside an unclamped
    local value.  The shadow checks every tick, and each estimate must
    be ``int(min(255, total / 2.0))``.
    """
    sim = rca_sim(mesh_width, 1, "tpcc", mesh_width)
    est = sim.estimator
    checked = shadow(sim)
    routers = sim.network.routers
    rm = sim.region_map
    paths = [(parent, bank, downstream(sim.topo, parent, bank))
             for parent in rm.parent_nodes()
             for bank in rm.children_of[parent]]
    rng = random.Random(mesh_width)
    seen = {"local<255": 0, "local>=255": 0, "agg<255": 0, "agg=255": 0,
            "est<255": 0, "est=255": 0}
    for now in range(200):
        for router in routers:
            if now < 50:
                if now == 0 and router.node == 0:
                    continue
                park(router, rng, now)
                hold_link(router, rng.randrange(LOCAL),
                          now + rng.randrange(256, 300))
                continue
            if now < 120:
                if rng.random() < 0.3:
                    park(router, rng, now)
                if rng.random() < 0.3:
                    hold_link(router, rng.randrange(LOCAL),
                              now + rng.randrange(400))
            port = rng.randrange(N_PORTS)
            if router.out_entries[port]:
                router.remove_entry_at(port, 0, now)
        est.tick(now)
        for router in routers:
            local = router.n_flits + max(0, router.link_busy_until - now)
            seen["local<255" if local < 255 else "local>=255"] += 1
        agg = est.agg
        for value in agg.values():
            seen["agg<255" if value < 255 else "agg=255"] += 1
            assert value <= 255
        for parent, bank, nodes in paths:
            total = 0.0
            for n in nodes:
                total += agg[n]
            estimate = est.congestion_estimate(parent, bank, now)
            assert estimate == int(min(255, total / 2.0)), (
                f"cycle {now}: estimate {parent}->{bank} differs")
            seen["est<255" if estimate < 255 else "est=255"] += 1
    assert len(checked) == 200
    # Both 8-bit clamps ran, and so did the unclamped branches.
    assert all(seen.values()), seen
