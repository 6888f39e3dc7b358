"""Payload types carried by network packets between endpoints."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class CoherenceOp(enum.IntEnum):
    """Directory-protocol messages (two-level MESI, Table 1)."""

    INVALIDATE = 0   # home -> sharer: drop your copy
    INV_ACK = 1      # sharer -> home: dropped
    FORWARD = 2      # home -> dirty owner: send data to requester
    RECALL = 4       # home -> sharer: inclusive-L2 eviction recall


@dataclass(slots=True)
class Transaction:
    """One core-initiated L2 access travelling through the system."""

    core: int
    block: int
    is_store: bool
    #: "read" (demand fetch / RFO) or "writeback" (dirty L1 eviction)
    kind: str
    issue_cycle: int
    #: filled by the bank: cycle the request started bank service
    service_start: Optional[int] = None
    forwarded_from_owner: bool = False


@dataclass(slots=True)
class CoherenceMsg:
    op: CoherenceOp
    block: int
    requester_core: Optional[int]
    home_bank: int
    #: whether the requester needs exclusive ownership (store)
    exclusive: bool = False
    #: for INVALIDATE/RECALL: the sharer core the message targets
    sharer: Optional[int] = None
    txn: Optional[Transaction] = None


@dataclass(slots=True)
class MemMsg:
    """L2 bank <-> memory controller message."""

    block: int
    is_write: bool
    bank: int
    #: True on the MC -> bank data-return leg
    response: bool = False


@dataclass(slots=True)
class AckMsg:
    """WB-estimator timestamp acknowledgement (child -> parent)."""

    bank: int
    timestamp: int
