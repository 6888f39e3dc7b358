"""Tests for repro.noc.network and repro.noc.router."""

import pytest

from repro.core.arbitration import RoundRobinArbiter
from repro.core.regions import RegionMap
from repro.noc.network import Network
from repro.noc.packet import Packet, PacketClass
from repro.noc.router import Router
from repro.noc.routing import RoutingPolicy
from repro.noc.topology import LOCAL, Mesh3D
from repro.sim.config import Scheme, make_config


def build_network(scheme=Scheme.STTRAM_64TSB, width=4, **overrides):
    cfg = make_config(scheme, mesh_width=width, **overrides)
    topo = Mesh3D(cfg.mesh_width)
    region_map = None
    if cfg.n_region_tsbs is not None:
        region_map = RegionMap(topo, cfg.n_region_tsbs,
                               cfg.tsb_placement, cfg.parent_hop_distance)
    routing = RoutingPolicy(topo, region_map)
    return cfg, topo, Network(cfg, topo, routing, RoundRobinArbiter())


def run_until_delivered(net, cycles=500):
    now = 0
    while not net.quiesced() and now < cycles:
        net.step(now)
        now += 1
    return now


class TestRouterPrimitives:
    def test_vc_allocation_and_release(self):
        router = Router(node=0, n_vcs=2)
        pkt = Packet(PacketClass.REQUEST, 0, 1, 4, inject_cycle=0)
        vc = router.free_vc(LOCAL, 0)
        assert vc == 0
        router.accept(LOCAL, vc, pkt, out_port=0, arrival=0)
        assert router.n_resident == 1
        assert router.free_vc(LOCAL, 0) == 1
        assert router.n_flits == 4 and router.port_mask == 1
        router.remove_entry_at(0, 0, now=10)
        assert router.out_entries[0] == []
        assert router.n_flits == 0
        assert router.port_mask == 0
        assert router.n_resident == 0
        # The tail keeps the VC busy for `flits` cycles.
        assert router.free_vc(LOCAL, 10) == 1
        assert router.vcs[LOCAL][0] is None
        assert router.free_vc(LOCAL, 14) in (0, 1)
        assert router.free_vc_count(LOCAL, 14) == 2

    def test_queued_flits(self):
        router = Router(node=0, n_vcs=4)
        for i in range(3):
            pkt = Packet(PacketClass.REQUEST, 0, 1, 8, inject_cycle=0)
            router.accept(LOCAL, i, pkt, out_port=0, arrival=0)
        assert router.queued_flits() == 24
        assert router.queued_packets() == 3
        assert router.queued_packets(0) == 3
        assert router.queued_packets(1) == 0

    def test_occupancy(self):
        router = Router(node=0, n_vcs=2)
        assert router.occupancy() == 0.0
        pkt = Packet(PacketClass.REQUEST, 0, 1, 1, inject_cycle=0)
        router.accept(LOCAL, 0, pkt, out_port=0, arrival=0)
        assert 0 < router.occupancy() < 1


class TestDelivery:
    def test_single_packet_delivery_and_latency(self):
        cfg, topo, net = build_network()
        delivered = []
        dst = topo.bank_node(15)
        net.register_sink(dst, lambda p, t: delivered.append((p, t)))
        pkt = Packet(PacketClass.REQUEST, 0, dst, 1, inject_cycle=0)
        net.inject(pkt, 0)
        run_until_delivered(net)
        assert len(delivered) == 1
        p, t = delivered[0]
        # Z-X-Y: 1 vertical + 6 mesh hops; ~3 cycles per hop.
        hops = topo.manhattan(0, dst)
        assert p.hops == hops
        assert t >= hops * cfg.hop_cycles - cfg.hop_cycles

    def test_multi_flit_serialisation_delays_second_packet(self):
        cfg, topo, net = build_network()
        arrivals = []
        dst = topo.bank_node(1)
        net.register_sink(dst, lambda p, t: arrivals.append(t))
        for _ in range(2):
            net.inject(
                Packet(PacketClass.REQUEST, 0, dst, 8, inject_cycle=0), 0)
        run_until_delivered(net)
        assert len(arrivals) == 2
        # The second 8-flit packet trails by at least the link
        # serialisation time.
        assert arrivals[1] - arrivals[0] >= 8

    def test_statistics_track_injections_and_deliveries(self):
        cfg, topo, net = build_network()
        dst = topo.bank_node(3)
        net.register_sink(dst, lambda p, t: None)
        for i in range(5):
            net.inject(
                Packet(PacketClass.REQUEST, 0, dst, 1, inject_cycle=0), 0)
        run_until_delivered(net)
        assert net.stats.injected[PacketClass.REQUEST] == 5
        assert net.stats.delivered[PacketClass.REQUEST] == 5
        assert net.stats.in_flight() == 0
        assert net.stats.average_latency() > 0
        assert net.stats.average_hops() > 0

    def test_quiesced_initially(self):
        _cfg, _topo, net = build_network()
        assert net.quiesced()


class TestFlowControl:
    def test_ejection_stalls_when_sink_refuses(self):
        cfg, topo, net = build_network()
        dst = topo.bank_node(0)
        delivered = []
        accepting = [False]
        net.register_sink(dst, lambda p, t: delivered.append(t),
                          flow_control=lambda p: accepting[0])
        net.inject(Packet(PacketClass.REQUEST, 0, dst, 1, inject_cycle=0), 0)
        for now in range(60):
            net.step(now)
        assert not delivered  # parked at the router
        assert net.total_resident() == 1
        accepting[0] = True
        for now in range(60, 120):
            net.step(now)
        assert len(delivered) == 1

    def test_source_queue_limit(self):
        cfg, topo, net = build_network()
        node = 0
        limit = cfg.ni_queue_entries
        queue = net.source_queues[node]
        for i in range(limit):
            assert len(queue) < limit
            net.inject(Packet(PacketClass.REQUEST, node,
                              topo.bank_node(1), 8, inject_cycle=0), 0)
        assert len(queue) == limit


class TestRegionTSBCombining:
    def test_combiner_installed_on_region_tsbs(self):
        cfg, topo, net = build_network(Scheme.STTRAM_4TSB, width=8)
        assert sum(c is not None for c in net._combiner_at) == 4

    def test_data_packets_record_combining(self):
        cfg, topo, net = build_network(Scheme.STTRAM_4TSB, width=8)
        dst = topo.bank_node(9)
        net.register_sink(dst, lambda p, t: None)
        pkt = Packet(PacketClass.REQUEST, 0, dst, 8, inject_cycle=0)
        net.inject(pkt, 0)
        run_until_delivered(net, cycles=1000)
        assert pkt.combined
        assert net.stats.tsb_combined_flit_pairs > 0


class TestInjectionHeadOfLine:
    """Pin `_inject_sources` head-of-line semantics (in-order NIs).

    The per-node injection loop must stop at the first packet whose
    ``ready_at`` is in the future: packets queued behind it stay queued
    even if they are ready *now*.  The active-set scheduler's wake hints
    key off the head packet, so silently reordering injection would
    both change results and break the hints.
    """

    def test_future_head_blocks_ready_follower(self):
        cfg, topo, net = build_network()
        dst = topo.bank_node(15)
        net.register_sink(dst, lambda p, t: None)
        head = Packet(PacketClass.REQUEST, 0, dst, 1, inject_cycle=5)
        follower = Packet(PacketClass.REQUEST, 0, dst, 1, inject_cycle=0)
        net.inject(head, 0)
        net.inject(follower, 0)
        for now in range(5):
            net.step(now)
            # Nothing may enter the mesh while the head is not ready,
            # even though the follower has been ready since cycle 0.
            assert net.total_resident() == 0
            assert list(net.source_queues[0]) == [head, follower]
        net.step(5)
        # Both inject on the head's ready cycle, in queue order: the
        # head wins the same-cycle route arbitration and moves one hop
        # downstream while the follower waits at the source router.
        assert not net.source_queues[0]
        assert net.total_resident() == 2
        assert head.hops == 1
        assert follower.hops == 0
        resident_here = [
            e[2] for port in net.routers[0].out_entries for e in port
        ]
        assert resident_here == [follower]

    def test_blocked_node_does_not_block_other_sources(self):
        cfg, topo, net = build_network()
        dst = topo.bank_node(15)
        net.register_sink(dst, lambda p, t: None)
        blocked = Packet(PacketClass.REQUEST, 0, dst, 1, inject_cycle=50)
        other = Packet(PacketClass.REQUEST, 1, dst, 1, inject_cycle=0)
        net.inject(blocked, 0)
        net.inject(other, 0)
        net.step(0)
        assert list(net.source_queues[0]) == [blocked]
        assert not net.source_queues[1]
        assert net.total_resident() == 1
        assert other.network_cycle == 0
