"""Flit combining over the high-density region TSBs (Section 3.4).

Restricting requests to a few TSBs raises hop counts, so the paper widens
the region TSBs to 256 bits and -- XShare-style -- transmits two 128-bit
flits side by side whenever possible.  At packet granularity this halves
the serialisation time of multi-flit packets crossing a region TSB (two
flits per cycle instead of one) and lets an address flit ride along with
a data flit.
"""

from __future__ import annotations

from repro.noc.packet import Packet


class FlitCombiner:
    """Serialisation-time calculator for links with widened TSBs.

    A pure rule: the network books what the widening saved
    (``NetworkStats.tsb_combined_flit_pairs``) where it forwards.

    Args:
        width_factor: Number of 128-bit flits the link moves per cycle
            (2 for the paper's 256-bit region TSBs, 1 for normal links).
    """

    def __init__(self, width_factor: int = 2):
        if width_factor < 1:
            raise ValueError("width_factor must be >= 1")
        self.width_factor = width_factor

    def serialization_cycles(self, pkt: Packet) -> int:
        """Cycles the widened link stays busy transmitting ``pkt``."""
        return -(-pkt.flits // self.width_factor)  # ceil division
