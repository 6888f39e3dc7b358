"""Packet-granular wormhole router model.

Models the paper's two-stage virtual-channel router (Table 1): per-port
virtual channels, credit-style backpressure (a packet may only move when
a downstream VC at the target input port is free), per-output-port
arbitration, and flit-accurate link serialisation (an output link stays
busy for ``n_flits`` cycles per forwarded packet).

Routing decisions are made once, when a packet arrives at the router, and
the packet is then parked in a per-output-port candidate queue; this is
equivalent to (and much faster than) re-running route computation every
cycle for every buffered flit.

For the event-driven scheduler the router additionally maintains an
*active output-port set* (``port_mask``, one bit per port holding at
least one parked entry, kept incrementally by :meth:`accept` and the
removal paths) and a ``next_active`` wake hint: a lower bound on the
next cycle at which any entry at this router could possibly move.  The
network may skip the router entirely until that cycle; any state change
that could enable earlier progress (a new entry arriving, an upstream VC
freeing) lowers the hint again.

Hot-path state layout
---------------------
Per-port/per-VC state is stored *flat*: ``vc_pkt`` and ``vc_free_at``
are single preallocated lists indexed ``port * n_vcs + vc`` so the
per-cycle VC scans touch one list object instead of walking a
list-of-lists.  Candidate-queue entries are ``[in_port, vc, pkt,
arrival]`` lists, removed by *index* (the caller tracked where the entry
sits in its queue), preserving FIFO candidate order exactly -- no
value-equality ``list.remove`` scan.
"""

from __future__ import annotations

from typing import List, Optional

from repro.noc.packet import Packet
from repro.noc.topology import N_PORTS

#: Sentinel "never" wake cycle for the event-driven scheduler.
NEVER = 1 << 60

#: port_mask -> ascending tuple of set port indices (7 ports -> 128 rows);
#: lets the route loop visit only occupied output ports in dense order.
MASK_PORTS = tuple(
    tuple(p for p in range(N_PORTS) if (mask >> p) & 1)
    for mask in range(1 << N_PORTS)
)


class Router:
    """One 7-port (4 cardinal + up/down + local) mesh router."""

    __slots__ = (
        "node", "n_vcs", "vc_pkt", "vc_free_at", "out_busy_until",
        "out_entries", "port_mask", "n_resident", "n_flits",
        "link_busy_until", "next_active", "kblocked",
    )

    def __init__(self, node: int, n_vcs: int):
        self.node = node
        self.n_vcs = n_vcs
        #: vc_pkt[port * n_vcs + vc] -> resident/reserved Packet or None
        self.vc_pkt: List[Optional[Packet]] = [None] * (N_PORTS * n_vcs)
        #: cycle until which a drained VC is still occupied by a tail
        self.vc_free_at: List[int] = [0] * (N_PORTS * n_vcs)
        self.out_busy_until: List[int] = [0] * N_PORTS
        #: max of ``out_busy_until`` over the non-LOCAL ports, raised at
        #: that field's only write site (``Network._forward``); exact,
        #: because a port forwards only once its busy time has passed,
        #: so each write is the port's largest value yet
        self.link_busy_until = 0
        #: out_entries[port] -> list of [in_port, vc, pkt, arrival_cycle]
        self.out_entries: List[List[list]] = [[] for _ in range(N_PORTS)]
        #: bit ``p`` set iff ``out_entries[p]`` is non-empty
        self.port_mask = 0
        self.n_resident = 0
        #: flits of the resident entries: :meth:`queued_flits`, kept at
        #: every accept and removal so the RCA tick reads one counter
        self.n_flits = 0
        #: earliest cycle any entry here could possibly move (lower bound)
        self.next_active = 0
        #: True while the router sleeps awaiting space in its node's bank
        #: queue: the last scan's only ready LOCAL work was refused by it,
        #: and the bank's dequeue notification re-arms ``next_active``
        #: (see ``Network.on_bank_dequeue``)
        self.kblocked = False

    # ------------------------------------------------------------------

    @property
    def vcs(self) -> List[List[Optional[Packet]]]:
        """Nested ``[port][vc]`` view of the flat VC state (introspection
        only -- the hot path indexes ``vc_pkt`` directly)."""
        n = self.n_vcs
        return [self.vc_pkt[p * n:(p + 1) * n] for p in range(N_PORTS)]

    def free_vc(self, port: int, now: int) -> int:
        """Index of a free VC at an input port, or -1."""
        pkts = self.vc_pkt
        free_at = self.vc_free_at
        base = port * self.n_vcs
        for i in range(base, base + self.n_vcs):
            if pkts[i] is None and free_at[i] <= now:
                return i - base
        return -1

    def free_vc_count(self, port: int, now: int) -> int:
        pkts = self.vc_pkt
        free_at = self.vc_free_at
        base = port * self.n_vcs
        count = 0
        for i in range(base, base + self.n_vcs):
            if pkts[i] is None and free_at[i] <= now:
                count += 1
        return count

    def next_free_vc_at(self, port: int, now: int) -> int:
        """Earliest cycle a VC at ``port`` becomes allocatable.

        Returns ``now`` if one is free already, the earliest tail-drain
        completion among unoccupied VCs otherwise, and :data:`NEVER`
        when every VC still holds a resident packet (a release -- an
        *activity* at this router -- is needed first).
        """
        pkts = self.vc_pkt
        free_at = self.vc_free_at
        base = port * self.n_vcs
        best = NEVER
        for i in range(base, base + self.n_vcs):
            if pkts[i] is None:
                t = free_at[i]
                if t <= now:
                    return now
                if t < best:
                    best = t
        return best

    def accept(self, port: int, vc: int, pkt: Packet, out_port: int,
               arrival: int) -> None:
        """Reserve an input VC for an incoming packet and park it on its
        output-port candidate queue."""
        self.vc_pkt[port * self.n_vcs + vc] = pkt
        self.out_entries[out_port].append([port, vc, pkt, arrival])
        self.port_mask |= 1 << out_port
        self.n_resident += 1
        self.n_flits += pkt.flits
        if arrival < self.next_active:
            self.next_active = arrival

    def remove_entry_at(self, out_port: int, index: int, now: int) -> None:
        """Unpark the entry at ``index`` of an output queue and free its
        input VC."""
        entries = self.out_entries[out_port]
        entry = entries[index]
        del entries[index]
        if not entries:
            self.port_mask &= ~(1 << out_port)
        slot = entry[0] * self.n_vcs + entry[1]
        self.vc_pkt[slot] = None
        self.vc_free_at[slot] = now + entry[2].flits
        self.n_resident -= 1
        self.n_flits -= entry[2].flits

    # ------------------------------------------------------------------
    # Introspection used by the RCA estimator and the stats collector
    # ------------------------------------------------------------------

    def queued_flits(self) -> int:
        """Total flits buffered across all candidate queues."""
        total = 0
        for entries in self.out_entries:
            for entry in entries:
                total += entry[2].flits
        return total

    def queued_packets(self, out_port: Optional[int] = None) -> int:
        if out_port is None:
            count = 0
            for entries in self.out_entries:
                count += len(entries)
            return count
        return len(self.out_entries[out_port])

    def occupancy(self) -> float:
        """Fraction of input VCs currently holding a packet."""
        held = 0
        for pkt in self.vc_pkt:
            if pkt is not None:
                held += 1
        return held / float(N_PORTS * self.n_vcs)
