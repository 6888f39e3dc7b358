"""Network packet model.

The simulator is packet-granular with flit-accurate serialisation: a packet
occupies one virtual channel per router and holds an output link for
``n_flits`` cycles when it is forwarded, which preserves wormhole contention
behaviour while keeping a pure-Python cycle simulator tractable (see
DESIGN.md, "Substitutions").

A packet buffered in a router is its own candidate-queue entry: each
accept writes the VC it holds (``in_port``, ``vc``) and its arrival
cycle (``ready_at``) onto it, and nothing else records them (see
:mod:`repro.noc.router`).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional


class PacketClass(enum.IntEnum):
    """Traffic classes distinguished by the paper's arbitration policy.

    The STT-RAM-aware arbiter may *delay* ``REQUEST`` packets headed to a
    busy bank while *boosting* coherence and memory-controller traffic
    (Section 3.2).
    """

    REQUEST = 0      # core -> L2 bank (read request or write-back data)
    RESPONSE = 1     # L2 bank -> core (fill data)
    COHERENCE = 2    # directory invalidations / forwards / acks
    MEMORY = 3       # L2 bank <-> memory controller
    ACK = 4          # WB-estimator timestamp acknowledgements


_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Restart packet id numbering (used by tests for determinism)."""
    global _packet_ids
    _packet_ids = itertools.count()


class Packet:
    """A network packet.

    Attributes:
        klass: Traffic class, see :class:`PacketClass`.
        src: Source router node id.
        dst: Destination router node id.
        flits: Packet length in flits (1 for address, 8 for data packets).
        is_write: For ``REQUEST`` packets: whether this access writes the
            L2 bank (a store miss fill-request is a read; a write-back is
            a write).
        bank: Destination L2 bank index for bank-bound requests else None.
        via: Optional intermediate node (same layer as the packet's
            current position) the packet must reach before changing
            layers; used to implement Z-X-Y routing and the region-TSB
            serialisation points.
        inject_cycle: Cycle the packet entered the source NI queue.
        ready_at: Cycle at which the packet may move on from where it
            is.  At the source NI: the cycle it may inject
            (``inject_cycle``, or a retransmission's backoff).  In a
            router: its arrival cycle there, which the accept writes.
        in_port: Input port of the VC the packet holds at its current
            router; written by the accept, with ``vc``.
        vc: Index of that VC within ``in_port``.
        wb_timestamp: Timestamp tag carried for the WB estimator, or None.
        payload: Opaque reference used by the endpoints (transaction).
    """

    __slots__ = (
        "pid", "klass", "src", "dst", "flits", "is_write", "bank", "via",
        "inject_cycle", "ready_at", "in_port", "vc", "wb_timestamp",
        "payload", "hops", "delayed_cycles",
    )

    def __init__(
        self,
        klass: PacketClass,
        src: int,
        dst: int,
        flits: int,
        inject_cycle: int,
        is_write: bool = False,
        bank: Optional[int] = None,
        via: Optional[int] = None,
        payload=None,
    ):
        self.pid = next(_packet_ids)
        self.klass = klass
        self.src = src
        self.dst = dst
        self.flits = flits
        self.is_write = is_write
        self.bank = bank
        self.via = via
        self.inject_cycle = inject_cycle
        self.ready_at = inject_cycle
        self.wb_timestamp: Optional[int] = None
        self.payload = payload
        self.hops = 0
        #: Cycles this packet spent explicitly delayed by the bank-aware
        #: arbiter (for instrumentation).
        self.delayed_cycles = 0

    def latency(self, now: int) -> int:
        """Total latency from NI enqueue until ``now``."""
        return now - self.inject_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        wr = "W" if self.is_write else "R"
        return (
            f"Packet#{self.pid}({self.klass.name}/{wr} {self.src}->"
            f"{self.dst} flits={self.flits})"
        )
