"""Hot-path datapath invariants (flat router state, inlines, dispatch).

The optimized executed-cycle datapath -- flat ``port * n_vcs + vc`` VC
arrays, precomputed routing tables, per-node arbiter dispatch, the
active-set route loop and ``_forward``'s inlined router methods -- must
be observationally invisible.  These tests pin that down three ways:

* a fingerprint matrix: four benchmark schemes under the dense oracle
  (reference route loop) and the event scheduler (active-set route
  loop) must produce the same ``SimulationResult`` bit for bit,
* ``Network._forward`` must leave both routers exactly as
  ``Router.remove_entry_at`` and ``free_vc`` + ``accept`` would,
* the precomputed XY routing table must agree with the closed-form
  ``_compute_port`` reference at every (node, destination, via) step.
"""

import pytest

from repro.core.arbitration import RoundRobinArbiter
from repro.noc.network import Network
from repro.noc.packet import Packet, PacketClass, reset_packet_ids
from repro.noc.router import NEVER, Router
from repro.noc.routing import RoutingPolicy
from repro.noc.topology import EAST, LOCAL, OPPOSITE, SOUTH, WEST, Mesh3D
from repro.sim.config import Scheme, make_config
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous
from tests.conftest import small_config

#: Four schemes covering both memory technologies and both TSB
#: organisations: SRAM baseline, naive STT-RAM, region-restricted
#: STT-RAM, and the paper's full WB-estimator configuration.
SCHEMES = [
    Scheme.SRAM_64TSB,
    Scheme.STTRAM_64TSB,
    Scheme.STTRAM_4TSB,
    Scheme.STTRAM_4TSB_WB,
]

def _fingerprint(scheme, scheduler, cycles=400, warmup=100):
    reset_packet_ids()
    cfg = small_config(scheme)
    sim = CMPSimulator(
        cfg, homogeneous("sclust", cfg, seed=5), scheduler=scheduler)
    return sim.run(cycles, warmup=warmup)


class TestFingerprintIdentity:
    """The production datapath must agree with the authoritative dense
    oracle, field for field."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    def test_all_datapaths_byte_identical(self, scheme):
        base = _fingerprint(scheme, "dense")
        assert base.packets_delivered > 0  # non-vacuous comparison
        result = _fingerprint(scheme, "event")
        diffs = [
            key for key in base.__dict__
            if base.__dict__[key] != result.__dict__[key]
        ]
        assert not diffs, (
            f"{scheme.value}: SimulationResult drift in {diffs}")


def _copy_router(router):
    """A twin of ``router`` sharing its packets but none of its lists."""
    twin = Router(router.node, router.n_vcs)
    for name in Router.__slots__:
        value = getattr(router, name)
        if name == "out_entries":
            value = [[list(e) for e in queue] for queue in value]
        elif isinstance(value, list):
            value = list(value)
        setattr(twin, name, value)
    return twin


class TestForwardInlines:
    """``_forward`` inlines ``Router.remove_entry_at`` and ``free_vc`` +
    ``accept``.  Both datapaths run the same ``_forward``, so only a
    direct comparison with those methods checks the inlines."""

    def test_forward_matches_router_methods(self):
        cfg = make_config(Scheme.SRAM_64TSB, mesh_width=4)
        topo = Mesh3D(cfg.mesh_width)
        net = Network(cfg, topo, RoutingPolicy(topo, None),
                      RoundRobinArbiter())
        up, down = net.routers[5], net.routers[6]
        assert topo.neighbor(5, EAST) == 6
        in_p = OPPOSITE[EAST]
        # Three entries queue for EAST; downstream, VC 0 holds a packet
        # and VC 1 drains until cycle 20, so the claims take VCs 2, 3
        # and then the drained VC 1.
        for in_port, vc, flits, arrival in (
                (LOCAL, 0, 1, 2), (WEST, 1, 8, 4), (SOUTH, 0, 8, 3)):
            pkt = Packet(PacketClass.REQUEST, 5, 7, flits, inject_cycle=0)
            up.accept(in_port, vc, pkt, EAST, arrival)
        down.accept(in_p, 0, Packet(PacketClass.REQUEST, 5, 6, 1,
                                    inject_cycle=0), LOCAL, 1)
        down.vc_free_at[in_p * cfg.n_vcs + 1] = 20
        up.next_active = down.next_active = NEVER
        now = 10
        # The middle entry, the last one, then the sole one left.
        for index in (1, 1, 0):
            ref_up, ref_down = _copy_router(up), _copy_router(down)
            entry = up.out_entries[EAST][index]
            pkt = entry[2]
            out_p = net.routing.next_port(6, pkt)  # pure: no waypoint
            net._forward(up, down, EAST, entry, index, now)

            ref_up.remove_entry_at(EAST, index, now)
            busy = ref_up.out_busy_until[EAST] = now + pkt.flits
            ref_up.link_busy_until = max(ref_up.link_busy_until, busy)
            ref_down.accept(in_p, ref_down.free_vc(in_p, now), pkt, out_p,
                            now + cfg.hop_cycles)
            for name in Router.__slots__:
                assert getattr(up, name) == getattr(ref_up, name), name
                assert getattr(down, name) == getattr(ref_down, name), name
            now += 8
        assert up.port_mask == 0
        assert [e[1] for e in down.out_entries[EAST]] == [2, 3, 1]


class TestRoutingTableEquivalence:
    """The precomputed XY table path of ``next_port`` must match the
    closed-form ``_compute_port`` reference at every routing step."""

    @pytest.mark.parametrize("klass", [
        PacketClass.REQUEST, PacketClass.RESPONSE, PacketClass.COHERENCE,
    ], ids=lambda k: k.name)
    def test_table_matches_reference_on_all_pairs(self, klass):
        topo = Mesh3D(width=4)
        policy = RoutingPolicy(topo, region_map=None)
        for src in range(topo.n_nodes):
            for dst in range(topo.n_nodes):
                if src == dst:
                    continue
                pkt = Packet(klass, src, dst, 1, inject_cycle=0)
                policy.prepare(pkt)
                node, via, hops = src, pkt.via, 0
                while node != dst:
                    expect_port, expect_via = policy._compute_port(
                        node, dst, via)
                    pkt.via = via
                    port = policy.next_port(node, pkt)
                    assert port == expect_port, (
                        f"table/reference split at node {node} "
                        f"(src={src}, dst={dst}, via={via})"
                    )
                    via = pkt.via
                    assert via == expect_via
                    if port == LOCAL:
                        break
                    node = topo.neighbor(node, port)
                    hops += 1
                    assert hops <= 3 * topo.n_nodes, "routing loop"
                assert node == dst
