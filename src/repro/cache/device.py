"""SRAM and STT-RAM device models (paper Table 2, 32 nm).

The paper derives these from CACTI 6.0 (SRAM) and from scaling the
Hosomi et al. 0.18um STT-RAM prototype to 32 nm with a 10 ns write-pulse
floor.  We transcribe the resulting table and expose it as first-class
model objects consumed by the timing and energy models.
"""

from __future__ import annotations

from dataclasses import dataclass

CLOCK_GHZ = 3.0
CYCLE_SECONDS = 1.0 / (CLOCK_GHZ * 1e9)


@dataclass(frozen=True)
class MemoryDevice:
    """A cache-bank memory macro.

    Attributes mirror Table 2: area, per-access read/write energy,
    leakage power at 80C, and read/write latency in nanoseconds and in
    3 GHz cycles.
    """

    name: str
    capacity_bytes: int
    area_mm2: float
    read_energy_nj: float
    write_energy_nj: float
    leakage_mw: float
    read_latency_ns: float
    write_latency_ns: float
    read_cycles: int
    write_cycles: int
    nonvolatile: bool

    @property
    def density_mb_per_mm2(self) -> float:
        return (self.capacity_bytes / (1 << 20)) / self.area_mm2

    def access_energy_joules(self, is_write: bool) -> float:
        nj = self.write_energy_nj if is_write else self.read_energy_nj
        return nj * 1e-9

    def write_read_latency_ratio(self) -> float:
        return self.write_cycles / self.read_cycles


#: 1 MB SRAM bank at 32 nm (Table 2 row 1).
SRAM_1MB = MemoryDevice(
    name="1MB SRAM",
    capacity_bytes=1 << 20,
    area_mm2=3.03,
    read_energy_nj=0.168,
    write_energy_nj=0.168,
    leakage_mw=444.6,
    read_latency_ns=0.702,
    write_latency_ns=0.702,
    read_cycles=3,
    write_cycles=3,
    nonvolatile=False,
)

#: 4 MB STT-RAM bank at 32 nm (Table 2 row 2).
STTRAM_4MB = MemoryDevice(
    name="4MB STT-RAM",
    capacity_bytes=4 << 20,
    area_mm2=3.39,
    read_energy_nj=0.278,
    write_energy_nj=0.765,
    leakage_mw=190.5,
    read_latency_ns=0.880,
    write_latency_ns=10.67,
    read_cycles=3,
    write_cycles=33,
    nonvolatile=True,
)


def device_for(cache_technology) -> MemoryDevice:
    """Map a :class:`repro.sim.config.CacheTechnology` to its device."""
    from repro.sim.config import CacheTechnology

    if cache_technology is CacheTechnology.SRAM:
        return SRAM_1MB
    return STTRAM_4MB


def comparison_table() -> list:
    """Rows of Table 2 for the device-model benchmark."""
    rows = []
    for device in (SRAM_1MB, STTRAM_4MB):
        rows.append({
            "name": device.name,
            "area_mm2": device.area_mm2,
            "read_energy_nj": device.read_energy_nj,
            "write_energy_nj": device.write_energy_nj,
            "leakage_mw": device.leakage_mw,
            "read_lat_ns": device.read_latency_ns,
            "write_lat_ns": device.write_latency_ns,
            "read_cycles": device.read_cycles,
            "write_cycles": device.write_cycles,
            "density_mb_per_mm2": round(device.density_mb_per_mm2, 3),
        })
    return rows
