"""Link-utilisation measurement and hotspot analysis.

The region-TSB scheme concentrates request traffic: X-Y flows converge
on the TSB columns in the core layer, and the TSB landing routers fan
the whole region's traffic back out in the cache layer.  This module
samples a running simulation and reports per-link utilisation so those
hotspots (and the relief provided by staggered TSB placement) can be
quantified -- the analysis behind the Figure 11/12 discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.noc.topology import LOCAL, PORT_NAMES


@dataclass
class LinkSample:
    """Utilisation of one directed link over a measurement window."""

    node: int
    port: int
    flits: int
    cycles: int

    @property
    def utilization(self) -> float:
        return self.flits / self.cycles if self.cycles else 0.0

    def label(self, topo) -> str:
        layer, x, y = topo.coords(self.node)
        return (f"L{layer}({x},{y}) {PORT_NAMES[self.port]}")


class LinkUtilizationProbe:
    """Counts flits forwarded per (node, out_port) while attached.

    Wraps the network's forward path non-invasively::

        probe = LinkUtilizationProbe(sim.network)
        sim.run(2000, warmup=500)   # or manual stepping
        hot = probe.hottest(10)
    """

    def __init__(self, network):
        self.network = network
        self.flit_counts: Dict[Tuple[int, int], int] = {}
        self.cycles_observed = 0
        self._original_forward = network._forward
        network._forward = self._forward_hook
        self._start_cycle = None

    def _forward_hook(self, router, downstream, out_port, entry, index, now):
        if self._start_cycle is None:
            self._start_cycle = now
        pkt = entry[2]
        key = (router.node, out_port)
        self.flit_counts[key] = self.flit_counts.get(key, 0) + pkt.flits
        self.cycles_observed = max(self.cycles_observed,
                                   now - self._start_cycle + 1)
        self._original_forward(router, downstream, out_port, entry, index, now)

    def detach(self) -> None:
        """Restore the unwrapped forward path."""
        self.network._forward = self._original_forward

    # ------------------------------------------------------------------

    def samples(self, include_local: bool = False) -> List[LinkSample]:
        cycles = max(1, self.cycles_observed)
        return [
            LinkSample(node=node, port=port, flits=flits, cycles=cycles)
            for (node, port), flits in self.flit_counts.items()
            if include_local or port != LOCAL
        ]

    def hottest(self, n: int = 10) -> List[LinkSample]:
        """The ``n`` most utilised links, hottest first."""
        return sorted(self.samples(), key=lambda s: -s.utilization)[:n]

    def layer_average(self, topo, layer: int) -> float:
        """Mean utilisation over all sampled links of one layer."""
        samples = [s for s in self.samples()
                   if topo.layer_of(s.node) == layer]
        if not samples:
            return 0.0
        return sum(s.utilization for s in samples) / len(samples)

    def saturation_count(self, threshold: float = 0.8) -> int:
        """Number of links above a utilisation threshold."""
        return sum(1 for s in self.samples()
                   if s.utilization >= threshold)
