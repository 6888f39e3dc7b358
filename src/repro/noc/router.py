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
A buffered packet is its own candidate-queue entry: ``out_entries[port]``
holds :class:`~repro.noc.packet.Packet` objects in FIFO order, and each
packet carries the input port and VC it holds (``in_port``, ``vc``) and
its arrival cycle (``ready_at``), all three written by the accept.  An
entry leaves its queue by *index* (the caller tracked where it sits),
preserving FIFO candidate order exactly -- no value-equality
``list.remove`` scan.

Per-VC state is one flat timestamp list, ``vc_free_at``, indexed
``port * n_vcs + vc``: :data:`NEVER` while a packet holds the VC, and
after it leaves, the cycle its tail drains.  A VC is free at ``now``
iff ``vc_free_at[slot] <= now``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.noc.packet import Packet
from repro.noc.topology import N_PORTS

#: Sentinel "never" cycle: a wake hint with nothing due, and the
#: ``vc_free_at`` of a held VC.
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
        "node", "n_vcs", "vc_free_at", "out_busy_until",
        "out_entries", "port_mask", "n_resident", "n_flits",
        "link_busy_until", "next_active", "kblocked",
    )

    def __init__(self, node: int, n_vcs: int):
        self.node = node
        self.n_vcs = n_vcs
        #: vc_free_at[port * n_vcs + vc] -> NEVER while a packet holds the
        #: VC, else the cycle its last tail drains (free iff <= now)
        self.vc_free_at: List[int] = [0] * (N_PORTS * n_vcs)
        self.out_busy_until: List[int] = [0] * N_PORTS
        #: max of ``out_busy_until`` over the non-LOCAL ports, raised at
        #: that field's only write site (``Network._forward``); exact,
        #: because a port forwards only once its busy time has passed,
        #: so each write is the port's largest value yet
        self.link_busy_until = 0
        #: out_entries[port] -> resident packets routed to ``port``, FIFO
        self.out_entries: List[List[Packet]] = [[] for _ in range(N_PORTS)]
        #: bit ``p`` set iff ``out_entries[p]`` is non-empty
        self.port_mask = 0
        self.n_resident = 0
        #: flits of the resident packets: :meth:`queued_flits`, kept at
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

    def free_vc(self, port: int, now: int) -> int:
        """Index of a free VC at an input port, or -1."""
        free_at = self.vc_free_at
        base = port * self.n_vcs
        for i in range(base, base + self.n_vcs):
            if free_at[i] <= now:
                return i - base
        return -1

    def free_vc_count(self, port: int, now: int) -> int:
        free_at = self.vc_free_at
        base = port * self.n_vcs
        count = 0
        for i in range(base, base + self.n_vcs):
            if free_at[i] <= now:
                count += 1
        return count

    def next_free_vc_at(self, port: int, now: int) -> int:
        """Earliest cycle a VC at ``port`` becomes allocatable.

        Returns ``now`` if one is free already, the earliest tail-drain
        completion among unoccupied VCs otherwise, and :data:`NEVER`
        when every VC still holds a resident packet (a release -- an
        *activity* at this router -- is needed first).
        """
        free_at = self.vc_free_at
        base = port * self.n_vcs
        best = NEVER
        for i in range(base, base + self.n_vcs):
            t = free_at[i]
            if t <= now:
                return now
            if t < best:
                best = t
        return best

    def accept(self, port: int, vc: int, pkt: Packet, out_port: int,
               arrival: int) -> None:
        """Hold an input VC for an incoming packet, stamp its arrival as
        its ``ready_at`` and park it on its output-port candidate
        queue."""
        self.vc_free_at[port * self.n_vcs + vc] = NEVER
        pkt.in_port = port
        pkt.vc = vc
        pkt.ready_at = arrival
        self.out_entries[out_port].append(pkt)
        self.port_mask |= 1 << out_port
        self.n_resident += 1
        self.n_flits += pkt.flits
        if arrival < self.next_active:
            self.next_active = arrival

    def remove_entry_at(self, out_port: int, index: int, now: int) -> None:
        """Unpark the packet at ``index`` of an output queue and free its
        input VC once its tail drains."""
        entries = self.out_entries[out_port]
        pkt = entries[index]
        del entries[index]
        if not entries:
            self.port_mask &= ~(1 << out_port)
        self.vc_free_at[pkt.in_port * self.n_vcs + pkt.vc] = now + pkt.flits
        self.n_resident -= 1
        self.n_flits -= pkt.flits

    # ------------------------------------------------------------------
    # Introspection: the tests' reference for the ``n_flits`` counter
    # the RCA tick reads
    # ------------------------------------------------------------------

    def queued_flits(self) -> int:
        """Total flits buffered across all candidate queues, counted
        from the queues (``n_flits`` keeps the same total)."""
        total = 0
        for entries in self.out_entries:
            for pkt in entries:
                total += pkt.flits
        return total

    def queued_packets(self, out_port: Optional[int] = None) -> int:
        if out_port is None:
            count = 0
            for entries in self.out_entries:
                count += len(entries)
            return count
        return len(self.out_entries[out_port])
