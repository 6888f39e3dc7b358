"""System configuration for the 3D STT-RAM CMP simulator.

The defaults reproduce Table 1 of the paper: a two-layer 3D CMP with an
8x8 mesh NoC per layer, 64 out-of-order cores in the top layer, 64 shared
L2 cache banks in the bottom layer, four memory controllers at the corner
nodes of the cache layer, and two-stage wormhole-switched virtual-channel
routers.

The six design scenarios evaluated in Section 4 of the paper are exposed
through :class:`Scheme` and :func:`make_config`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError

#: Paper Table 2: read/write service latency of a 1 MB SRAM bank at 3 GHz.
SRAM_READ_CYCLES = 3
SRAM_WRITE_CYCLES = 3
#: Paper Table 2: read/write service latency of a 4 MB STT-RAM bank at 3 GHz.
STTRAM_READ_CYCLES = 3
STTRAM_WRITE_CYCLES = 33

#: Paper Section 3.5: parent-to-child base latency for a two-hop path --
#: one intermediate two-stage router (2 cycles) plus two link traversals.
TWO_HOP_BASE_CYCLES = 4


class CacheTechnology(enum.Enum):
    """The memory technology used for the L2 cache banks."""

    SRAM = "sram"
    STTRAM = "sttram"


class Estimator(enum.Enum):
    """Busy-duration / congestion estimation scheme (Section 3.5)."""

    NONE = "none"
    SIMPLE = "ss"
    RCA = "rca"
    WINDOW = "wb"


class TSBPlacement(enum.Enum):
    """Placement of the region through-silicon buses (Figure 11)."""

    CORNER = "corner"
    STAGGER = "stagger"


class Scheme(enum.Enum):
    """The six design scenarios of Section 4.1."""

    SRAM_64TSB = "SRAM-64TSB"
    STTRAM_64TSB = "MRAM-64TSB"
    STTRAM_4TSB = "MRAM-4TSB"
    STTRAM_4TSB_SS = "MRAM-4TSB-SS"
    STTRAM_4TSB_RCA = "MRAM-4TSB-RCA"
    STTRAM_4TSB_WB = "MRAM-4TSB-WB"


#: Scheme evaluation order used throughout the paper's figures.
ALL_SCHEMES = (
    Scheme.SRAM_64TSB,
    Scheme.STTRAM_64TSB,
    Scheme.STTRAM_4TSB,
    Scheme.STTRAM_4TSB_SS,
    Scheme.STTRAM_4TSB_RCA,
    Scheme.STTRAM_4TSB_WB,
)


@dataclass(frozen=True)
class WriteBufferConfig:
    """Sun et al. HPCA'09 per-bank SRAM write buffer (Section 4.4).

    Attributes:
        entries: Number of write-buffer entries per STT-RAM bank.
        read_preemption: Whether a read may preempt an in-progress
            buffered write drain.
        detect_cycles: The one-cycle read/write detection overhead that
            sits on the critical path of every request.
        sram_write_cycles: Latency to complete a write into the buffer.
    """

    entries: int = 20
    read_preemption: bool = True
    detect_cycles: int = 1
    sram_write_cycles: int = SRAM_WRITE_CYCLES


@dataclass(frozen=True)
class SystemConfig:
    """Full configuration of the simulated CMP (paper Tables 1 and 2)."""

    # --- Topology -------------------------------------------------------
    mesh_width: int = 8
    #: Number of region TSBs used for core->cache request traffic.
    #: ``None`` means unrestricted: all per-node vertical TSVs usable.
    n_region_tsbs: Optional[int] = None
    tsb_placement: TSBPlacement = TSBPlacement.CORNER
    #: Width multiplier of region TSBs relative to normal 128b links;
    #: 256b region TSBs allow two-flit combining (Section 3.4).
    region_tsb_width_factor: int = 2

    # --- Router / network (Table 1) --------------------------------------
    n_vcs: int = 6
    data_packet_flits: int = 8
    addr_packet_flits: int = 1
    router_pipeline_cycles: int = 2
    link_cycles: int = 1

    #: Core-side NI source queue / store-buffer depth: a core stalls its
    #: memory stream when this many of its packets are waiting to enter
    #: the network (Table 1: up to 16 outstanding requests per processor).
    ni_queue_entries: int = 16

    #: Finite bank-interface queue (network-interface buffering at the
    #: cache module).  When full, ejection stalls and requests back up
    #: into the router buffers -- the congestion the paper's scheme
    #: relieves by re-ordering packets toward idle banks.
    bank_queue_entries: int = 4

    # --- L2 cache (Tables 1 and 2) ---------------------------------------
    cache_technology: CacheTechnology = CacheTechnology.STTRAM
    #: Bank capacity in bytes. 1 MB SRAM banks; 4 MB STT-RAM banks
    #: (iso-area, Table 2).
    sram_bank_bytes: int = 1 << 20
    sttram_bank_bytes: int = 4 << 20
    l2_associativity: int = 16
    block_bytes: int = 128
    #: Scale factor (<= 1.0) applied to cache capacities so that dense
    #: parameter sweeps finish quickly; synthetic working sets scale with it.
    capacity_scale: float = 1.0

    # --- L1 cache (Table 1) ----------------------------------------------
    l1_bytes: int = 32 << 10
    l1_associativity: int = 4
    l1_mshrs: int = 32

    # --- Core (Table 1) ---------------------------------------------------
    commit_width: int = 2
    instruction_window: int = 128
    #: Dependent-load model: a load miss is a serializing dependency with
    #: this probability, limiting further commits to ``load_dep_window``
    #: instructions until it returns.  Approximates the dependency chains
    #: that keep real out-of-order server/SPEC IPCs well below width.
    load_dep_prob: float = 0.4
    load_dep_window: int = 16

    # --- Memory (Table 1) --------------------------------------------------
    memory_latency_cycles: int = 320
    n_memory_controllers: int = 4
    max_outstanding_memory: int = 16

    # --- Paper mechanism (Section 3) ---------------------------------------
    estimator: Estimator = Estimator.NONE
    parent_hop_distance: int = 2
    #: WB estimator: tag one packet in every ``wb_sample_period`` packets.
    wb_sample_period: int = 100
    wb_timestamp_bits: int = 8
    #: RCA: congestion estimates are exchanged between neighbours with
    #: this period (cycles).
    rca_update_period: int = 1
    #: Safety valve: a deprioritised packet is never delayed beyond this
    #: many cycles (prevents starvation; about 2x the write latency).
    max_delay_cycles: int = 66
    #: Among eligible requests at a parent, let reads pass write-data
    #: packets (the paper's network-level read-over-write complement to
    #: bank-side read preemption).  Exposed for ablation.
    arbiter_read_priority: bool = True
    #: Park a delayed packet only while its input port keeps this many
    #: free VCs (the paper buffers delayed requests in the *available*
    #: VCs).  Exposed for ablation.
    arbiter_min_free_vcs: int = 2

    # --- Optional comparators (Section 4.4) ---------------------------------
    write_buffer: Optional[WriteBufferConfig] = None

    # --- Extensions (related-work mitigations, off by default) -------------
    #: Early write termination (Zhou et al., ICCAD'09): a write finishes
    #: once every bit has actually switched; service time becomes
    #: uniform in [min_fraction, 1] x the full write latency.  The
    #: paper's scheme is complementary to this circuit technique.
    write_termination: bool = False
    write_termination_min_fraction: float = 0.4
    #: Hybrid SRAM/STT-RAM banks (Sun et al. / Qureshi et al. style):
    #: this many ways per set are built from SRAM; writes allocate into
    #: the SRAM partition at SRAM speed and dirty SRAM victims migrate
    #: into the STT-RAM array in the background.  0 disables.
    hybrid_sram_ways: int = 0

    # --- Misc ----------------------------------------------------------------
    seed: int = 1

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    @property
    def nodes_per_layer(self) -> int:
        return self.mesh_width * self.mesh_width

    @property
    def n_cores(self) -> int:
        return self.nodes_per_layer

    @property
    def n_banks(self) -> int:
        return self.nodes_per_layer

    @property
    def n_routers(self) -> int:
        return 2 * self.nodes_per_layer

    @property
    def hop_cycles(self) -> int:
        """Per-hop latency: router pipeline plus link traversal."""
        return self.router_pipeline_cycles + self.link_cycles

    @property
    def l2_read_cycles(self) -> int:
        if self.cache_technology is CacheTechnology.SRAM:
            return SRAM_READ_CYCLES
        return STTRAM_READ_CYCLES

    @property
    def l2_write_cycles(self) -> int:
        if self.cache_technology is CacheTechnology.SRAM:
            return SRAM_WRITE_CYCLES
        return STTRAM_WRITE_CYCLES

    @property
    def l2_bank_bytes(self) -> int:
        if self.cache_technology is CacheTechnology.SRAM:
            raw = self.sram_bank_bytes
        else:
            raw = self.sttram_bank_bytes
        scaled = int(raw * self.capacity_scale)
        return max(scaled, self.block_bytes * self.l2_associativity)

    @property
    def l1_effective_bytes(self) -> int:
        """L1 capacity after gentle sweep scaling.

        Dense sweeps shrink the L2 by ``capacity_scale``; the L1 shrinks
        by the square root of that so the L1 < L2-share ordering is
        preserved without collapsing the L1 to a handful of blocks.
        """
        if self.capacity_scale >= 1.0:
            return self.l1_bytes
        scaled = int(self.l1_bytes * self.capacity_scale ** 0.5)
        return max(scaled, self.block_bytes * self.l1_associativity * 4)

    @property
    def sram_equivalent_bank_bytes(self) -> int:
        """Scaled SRAM-bank capacity, used to size synthetic working
        sets identically across cache technologies."""
        scaled = int(self.sram_bank_bytes * self.capacity_scale)
        return max(scaled, self.block_bytes * self.l2_associativity)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> "SystemConfig":
        """Check internal consistency; return self for chaining.

        Raises :class:`~repro.errors.ConfigError` (never a bare
        ``ValueError`` or a deep simulator crash) so the CLI can turn
        an impossible configuration into a clean non-zero exit.
        """
        if self.mesh_width < 2:
            raise ConfigError("mesh_width must be >= 2")
        if self.n_vcs < 1:
            raise ConfigError("n_vcs must be >= 1")
        for name in (
            "data_packet_flits", "addr_packet_flits",
            "router_pipeline_cycles", "ni_queue_entries",
            "bank_queue_entries", "l2_associativity", "l1_associativity",
            "commit_width", "instruction_window", "load_dep_window",
            "memory_latency_cycles", "n_memory_controllers",
            "max_outstanding_memory", "wb_sample_period",
            "rca_update_period", "max_delay_cycles",
            "region_tsb_width_factor",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"{name} must be a positive integer, got {value!r}")
        if self.link_cycles < 0:
            raise ConfigError("link_cycles must be >= 0")
        if self.hop_cycles < 1:
            raise ConfigError(
                "router_pipeline_cycles + link_cycles must be >= 1")
        if self.n_region_tsbs is not None:
            n = self.n_region_tsbs
            if n < 1 or self.nodes_per_layer % n != 0:
                raise ConfigError(
                    f"n_region_tsbs={n} must divide the {self.nodes_per_layer}"
                    " cache banks into equal regions"
                )
            # Mirror the region-map tiling constraint here so the
            # failure happens at config time, not deep in construction.
            width = self.mesh_width
            if not any(
                n % cols == 0
                and width % cols == 0
                and width % (n // cols) == 0
                for cols in range(1, n + 1)
            ):
                raise ConfigError(
                    f"cannot tile a {width}x{width} mesh into {n} regions"
                )
        if self.parent_hop_distance < 1:
            raise ConfigError("parent_hop_distance must be >= 1")
        if not 0.0 < self.capacity_scale <= 1.0:
            raise ConfigError("capacity_scale must be in (0, 1]")
        if not 0.0 <= self.load_dep_prob <= 1.0:
            raise ConfigError("load_dep_prob must be in [0, 1]")
        if self.block_bytes < 1 or self.block_bytes & (self.block_bytes - 1):
            raise ConfigError("block_bytes must be a power of two")
        if self.n_memory_controllers > self.nodes_per_layer:
            raise ConfigError("more memory controllers than nodes")
        if self.hybrid_sram_ways < 0:
            raise ConfigError("hybrid_sram_ways must be >= 0")
        if self.hybrid_sram_ways >= self.l2_associativity:
            raise ConfigError(
                f"hybrid_sram_ways={self.hybrid_sram_ways} must leave at "
                f"least one STT-RAM way of {self.l2_associativity}")
        if not 0.0 < self.write_termination_min_fraction <= 1.0:
            raise ConfigError(
                "write_termination_min_fraction must be in (0, 1]")
        return self


def parse_scheme(label: str) -> Scheme:
    """Map a CLI scheme label to a :class:`Scheme`, with a typed error.

    Accepts the paper labels (``MRAM-4TSB-WB``), case-insensitively.
    """
    wanted = label.strip().upper()
    for scheme in Scheme:
        if scheme.value.upper() == wanted or scheme.name == wanted:
            return scheme
    valid = ", ".join(s.value for s in ALL_SCHEMES)
    raise ConfigError(f"unknown scheme {label!r}; valid schemes: {valid}")


def make_config(scheme: Scheme, **overrides) -> SystemConfig:
    """Build a :class:`SystemConfig` for one of the paper's six scenarios.

    Keyword overrides are applied on top of the scenario (for example
    ``mesh_width=4`` or ``capacity_scale=1/64`` for scaled-down sweeps).
    """
    base = {
        Scheme.SRAM_64TSB: dict(
            cache_technology=CacheTechnology.SRAM,
            n_region_tsbs=None,
            estimator=Estimator.NONE,
        ),
        Scheme.STTRAM_64TSB: dict(
            cache_technology=CacheTechnology.STTRAM,
            n_region_tsbs=None,
            estimator=Estimator.NONE,
        ),
        Scheme.STTRAM_4TSB: dict(
            cache_technology=CacheTechnology.STTRAM,
            n_region_tsbs=4,
            estimator=Estimator.NONE,
        ),
        Scheme.STTRAM_4TSB_SS: dict(
            cache_technology=CacheTechnology.STTRAM,
            n_region_tsbs=4,
            estimator=Estimator.SIMPLE,
        ),
        Scheme.STTRAM_4TSB_RCA: dict(
            cache_technology=CacheTechnology.STTRAM,
            n_region_tsbs=4,
            estimator=Estimator.RCA,
        ),
        Scheme.STTRAM_4TSB_WB: dict(
            cache_technology=CacheTechnology.STTRAM,
            n_region_tsbs=4,
            estimator=Estimator.WINDOW,
        ),
    }[scheme]
    merged = dict(base)
    merged.update(overrides)
    cfg = SystemConfig(**merged)
    # Small meshes cannot host 4 regions of useful size; shrink the region
    # count proportionally unless the caller pinned it explicitly.
    if (
        cfg.n_region_tsbs is not None
        and "n_region_tsbs" not in overrides
        and cfg.nodes_per_layer < 16
    ):
        cfg = replace(cfg, n_region_tsbs=max(1, cfg.nodes_per_layer // 4))
    return cfg.validate()
