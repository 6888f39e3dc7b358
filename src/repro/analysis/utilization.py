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

from repro.noc.topology import PORT_NAMES


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
    """Flits sent per directed link since the probe was created.

    Reads the network's monotonic per-link counters (``link_flits``,
    indexed ``node << 3 | out_port``) against a snapshot taken at
    creation, so the window is exactly the cycles advanced since::

        probe = LinkUtilizationProbe(sim)
        sim.run(2000)   # or sim.step(n)
        hot = probe.hottest(10)
    """

    def __init__(self, sim):
        self.sim = sim
        self._base = list(sim.network.link_flits)
        self._start_cycle = sim.cycle

    @property
    def cycles_observed(self) -> int:
        return self.sim.cycle - self._start_cycle

    @property
    def flit_counts(self) -> Dict[Tuple[int, int], int]:
        """(node, out_port) -> flits, for every link that carried any."""
        return {
            (link >> 3, link & 7): flits - base
            for link, (flits, base) in enumerate(
                zip(self.sim.network.link_flits, self._base))
            if flits != base
        }

    # ------------------------------------------------------------------

    def samples(self) -> List[LinkSample]:
        cycles = max(1, self.cycles_observed)
        return [
            LinkSample(node=node, port=port, flits=flits, cycles=cycles)
            for (node, port), flits in self.flit_counts.items()
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
