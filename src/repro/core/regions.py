"""Logical partitioning of the cache layer and TSB placement (Section 3.4).

The paper's key structural idea: divide the cache layer into a few logical
regions and force *all* core->cache request packets for a region through a
single designated vertical through-silicon bus (TSB).  Combined with X-Y
routing inside the cache layer this creates serialisation points: every
request for a given bank passes through one fixed upstream router (its
*parent*, ``H`` hops before the bank on the TSB->bank path), which can then
estimate the bank's busy status and re-order packets (Sections 3.4-3.5).

This module computes, for a given mesh and region count:

* the region of every bank,
* the TSB node of every region (corner or staggered placement, Figure 11),
* the parent router of every bank and the child set of every parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.noc.topology import Mesh3D
from repro.sim.config import SystemConfig, TSBPlacement


def _region_grid(n_regions: int, width: int) -> Tuple[int, int]:
    """Pick a ``(cols, rows)`` region grid that tiles a ``width**2`` mesh.

    Prefers the squarest factorisation whose tile dimensions divide the
    mesh width: 4 regions on an 8x8 mesh -> 2x2 grid of 4x4 tiles,
    8 regions -> 2x4 grid of 4x2 tiles, 16 regions -> 4x4 grid of 2x2.
    """
    best: Optional[Tuple[int, int]] = None
    for cols in range(1, n_regions + 1):
        if n_regions % cols:
            continue
        rows = n_regions // cols
        if width % cols or width % rows:
            continue
        if best is None or abs(cols - rows) < abs(best[0] - best[1]):
            best = (cols, rows)
    if best is None:
        raise ConfigError(
            f"cannot tile a {width}x{width} mesh into {n_regions} regions"
        )
    return best


@dataclass
class Region:
    """One logical region of the cache layer."""

    index: int
    #: Inclusive coordinate bounds within the cache layer: (x0, y0, x1, y1).
    bounds: Tuple[int, int, int, int]
    #: Cache-layer router node hosting this region's TSB.
    tsb_cache_node: int
    #: Core-layer router node directly above the TSB.
    tsb_core_node: int
    #: Bank indices belonging to this region.
    banks: List[int] = field(default_factory=list)


class RegionMap:
    """Region partition, TSB placement and parent/child maps.

    Args:
        topo: The two-layer mesh.
        n_regions: Number of logical regions (and region TSBs).
        placement: Corner or staggered TSB placement (Figure 11).
        hop_distance: Parent-to-child distance ``H`` (Section 4.3; the
            paper's sweet spot is 2).
    """

    def __init__(
        self,
        topo: Mesh3D,
        n_regions: int,
        placement: TSBPlacement = TSBPlacement.CORNER,
        hop_distance: int = 2,
    ):
        if hop_distance < 1:
            raise ConfigError("hop_distance must be >= 1")
        self.topo = topo
        self.n_regions = n_regions
        self.placement = placement
        self.hop_distance = hop_distance
        #: failed region index -> healthy region index it degraded onto
        #: (stuck-at TSB fault injection; empty on fault-free runs)
        self.failed_regions: Dict[int, int] = {}

        width = topo.width
        cols, rows = _region_grid(n_regions, width)
        self.tile_w = width // cols
        self.tile_h = width // rows
        self._grid = (cols, rows)

        self.regions: List[Region] = []
        self.region_of_bank: List[int] = [0] * topo.nodes_per_layer
        self._build_regions()

        #: bank index -> parent router node id (core- or cache-layer).
        self.parent_of_bank: Dict[int, int] = {}
        #: parent router node id -> tuple of child bank indices.
        self.children_of: Dict[int, Tuple[int, ...]] = {}
        self._build_parent_maps()

    # ------------------------------------------------------------------

    def _tsb_coords(self, rx: int, ry: int,
                    bounds: Tuple[int, int, int, int]) -> Tuple[int, int]:
        """Coordinates of the region TSB given the region's grid cell."""
        x0, y0, x1, y1 = bounds
        cx = (self.topo.width - 1) / 2.0
        cy = cx
        # Corner placement: the region corner nearest the mesh centre
        # ("innermost corner", Section 3.4 / Figure 4).
        corner_x = x0 if abs(x0 - cx) <= abs(x1 - cx) else x1
        corner_y = y0 if abs(y0 - cy) <= abs(y1 - cy) else y1
        if self.placement is TSBPlacement.CORNER:
            return corner_x, corner_y
        # Staggered placement: keep the innermost row, but spread TSBs
        # across distinct columns so Y-direction flows toward different
        # TSBs do not overlap (Figure 11b/c).
        cols, _rows = self._grid
        offset = (rx + ry * cols) % (x1 - x0 + 1)
        return x0 + offset, corner_y

    def _build_regions(self) -> None:
        cols, rows = self._grid
        for ry in range(rows):
            for rx in range(cols):
                idx = ry * cols + rx
                x0, y0 = rx * self.tile_w, ry * self.tile_h
                x1, y1 = x0 + self.tile_w - 1, y0 + self.tile_h - 1
                tsb_x, tsb_y = self._tsb_coords(rx, ry, (x0, y0, x1, y1))
                cache_node = self.topo.node_id(1, tsb_x, tsb_y)
                core_node = self.topo.node_id(0, tsb_x, tsb_y)
                region = Region(idx, (x0, y0, x1, y1), cache_node, core_node)
                for y in range(y0, y1 + 1):
                    for x in range(x0, x1 + 1):
                        bank = self.topo.node_id(1, x, y) - \
                            self.topo.nodes_per_layer
                        region.banks.append(bank)
                        self.region_of_bank[bank] = idx
                self.regions.append(region)

    def _build_parent_maps(self) -> None:
        children: Dict[int, List[int]] = {}
        for region in self.regions:
            for bank in region.banks:
                bank_node = self.topo.bank_node(bank)
                path = self.topo.xy_path(region.tsb_cache_node, bank_node)
                # path[-1] is the bank itself; the parent sits H hops
                # upstream on the deterministic X-Y route from the TSB.
                if len(path) - 1 >= self.hop_distance:
                    parent = path[-(self.hop_distance + 1)]
                else:
                    # Banks closer than H hops to the TSB are managed by
                    # the region-TSB node vertically above in the core
                    # layer (Section 3.4).
                    parent = region.tsb_core_node
                self.parent_of_bank[bank] = parent
                children.setdefault(parent, []).append(bank)
        self.children_of = {
            node: tuple(sorted(banks)) for node, banks in children.items()
        }

    # ------------------------------------------------------------------
    # Degraded operation (stuck-at TSB faults)
    # ------------------------------------------------------------------

    def remap_tsb(self, region_index: int,
                  to_region: Optional[int] = None) -> int:
        """Degrade a region whose TSB went stuck-at onto a neighbour.

        The failed region keeps its banks but borrows the TSB of the
        nearest healthy region (ties broken toward the lowest region
        index), so its request traffic serialises through the
        neighbour's vertical link; parent/child maps are rebuilt for
        the new TSB->bank X-Y paths.  Returns the donor region's index.
        """
        region = self.regions[region_index]
        if to_region is None:
            candidates = [
                r for r in self.regions
                if r.index != region_index
                and r.index not in self.failed_regions
                and r.tsb_cache_node != region.tsb_cache_node
            ]
            if not candidates:
                from repro.errors import FaultError

                raise FaultError(
                    f"no healthy region TSB left to remap region "
                    f"{region_index} onto"
                )
            donor = min(candidates, key=lambda r: (
                self.topo.manhattan(region.tsb_cache_node,
                                    r.tsb_cache_node),
                r.index,
            ))
        else:
            donor = self.regions[to_region]
        self.failed_regions[region_index] = donor.index
        region.tsb_cache_node = donor.tsb_cache_node
        region.tsb_core_node = donor.tsb_core_node
        self._build_parent_maps()
        return donor.index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def region_of(self, bank: int) -> Region:
        return self.regions[self.region_of_bank[bank]]

    def request_via(self, bank: int) -> int:
        """Core-layer node through which requests for ``bank`` must pass."""
        return self.region_of(bank).tsb_core_node

    def tsb_cache_nodes(self) -> Tuple[int, ...]:
        return tuple(r.tsb_cache_node for r in self.regions)

    def parent_nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self.children_of))

    def expected_child_distance(self, bank: int) -> int:
        """Hop distance from a bank's parent to the bank itself.

        Off the hot path: the bank-aware arbiter reads it once per bank
        when it is built or its topology refreshed, into its travel
        table (``BankAwareArbiter._travel``).
        """
        parent = self.parent_of_bank[bank]
        return self.topo.manhattan(parent, self.topo.bank_node(bank))


def build_region_map(config: SystemConfig,
                     topo: Optional[Mesh3D] = None) -> Optional[RegionMap]:
    """Region map for a configuration, or None for unrestricted routing."""
    if config.n_region_tsbs is None:
        return None
    topo = topo or Mesh3D(config.mesh_width)
    return RegionMap(
        topo,
        config.n_region_tsbs,
        placement=config.tsb_placement,
        hop_distance=config.parent_hop_distance,
    )
