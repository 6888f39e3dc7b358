"""Measurement-window results collected from a :class:`CMPSimulator`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.noc.packet import PacketClass
from repro.obs.accuracy import resolve_predictions
from repro.sim import metrics


@dataclass
class SimulationResult:
    """Everything the experiment harness needs from one run."""

    cycles: int
    instructions: List[int]
    app_of_core: List[str]
    ipc: List[float]

    # network
    avg_packet_latency: float
    avg_request_latency: float
    avg_response_latency: float
    packets_delivered: int
    delayed_cycle_sum: int
    flits_forwarded: int
    combined_flit_pairs: int

    # banks
    avg_bank_queue_wait: float
    bank_reads: int
    bank_writes: int
    bank_fills: int
    bank_drains: int
    l2_hits: int
    l2_misses: int
    max_bank_queue_depth: int
    write_buffer_preemptions: int

    # cores
    avg_miss_latency: float
    l1_misses: int
    writebacks: int
    stall_cycles: int

    # tail latencies (nearest-rank percentiles of the NI-to-NI latency
    # distribution; see repro.obs.metrics.percentiles_from_hist)
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    #: busy-prediction accuracy of the active estimator (SS/RCA/WB):
    #: AccuracySummary.as_dict() payload, or None without an estimator
    estimator_accuracy: Optional[Dict] = None

    energy: Optional[EnergyBreakdown] = None

    # ------------------------------------------------------------------

    @classmethod
    def collect(cls, sim, start_cycle: int, committed_at_start: List[int],
                link_flits_at_start: int) -> "SimulationResult":
        cycles = sim.cycle - start_cycle
        instructions = [
            core.stats.committed - base
            for core, base in zip(sim.cores, committed_at_start)
        ]
        ipc = [i / cycles if cycles else 0.0 for i in instructions]

        net = sim.network.stats
        flits = sum(sim.network.link_flits) - link_flits_at_start
        banks = [b.stats for b in sim.banks]
        total_wait = sum(b.queue_wait_sum for b in banks)
        total_samples = sum(b.queue_wait_samples for b in banks)
        wb_preemptions = sum(
            b.write_buffer.preemptions for b in sim.banks
            if b.write_buffer is not None
        )
        wb_accesses = sum(
            b.write_buffer.writes_absorbed + b.write_buffer.read_hits
            + b.write_buffer.drains_completed
            for b in sim.banks if b.write_buffer is not None
        )

        bank_reads = sum(b.reads for b in banks)
        array_writes = sum(b.writes for b in banks)
        fills = sum(b.fills for b in banks)
        drains = sum(b.drains for b in banks)

        energy = EnergyModel(sim.config).compute(
            cycles=cycles,
            bank_reads=bank_reads,
            bank_writes=array_writes + fills + drains,
            router_flits=flits,
            link_flits=flits,
            tsb_flits=0,
            write_buffer_accesses=wb_accesses,
        )

        miss_lat_sum = sum(c.stats.miss_latency_sum for c in sim.cores)
        miss_lat_n = sum(c.stats.miss_latency_samples for c in sim.cores)

        percentiles = net.latency_percentiles()
        accuracy = None
        if sim.tracker is not None and sim.estimator is not None:
            # Predictions whose arrival lies past the end of the run are
            # unresolvable (horizon) and dropped identically under both
            # schedulers, keeping this field scheduler-invariant.
            accuracy = resolve_predictions(
                sim.tracker.predictions,
                {b.bank: b.stats.service_intervals for b in sim.banks},
                estimator=sim.estimator.name,
                horizon=sim.cycle,
            ).as_dict()

        return cls(
            cycles=cycles,
            instructions=instructions,
            app_of_core=list(sim.workload.app_of_core),
            ipc=ipc,
            avg_packet_latency=net.average_latency(),
            avg_request_latency=net.average_latency(PacketClass.REQUEST),
            avg_response_latency=net.average_latency(PacketClass.RESPONSE),
            packets_delivered=net.total_delivered,
            delayed_cycle_sum=net.delayed_cycle_sum,
            flits_forwarded=flits,
            combined_flit_pairs=net.tsb_combined_flit_pairs,
            avg_bank_queue_wait=(
                total_wait / total_samples if total_samples else 0.0
            ),
            bank_reads=bank_reads,
            bank_writes=array_writes,
            bank_fills=fills,
            bank_drains=drains,
            l2_hits=sum(b.l2_hits for b in banks),
            l2_misses=sum(b.l2_misses for b in banks),
            max_bank_queue_depth=max(
                (b.max_queue_depth for b in banks), default=0
            ),
            write_buffer_preemptions=wb_preemptions,
            avg_miss_latency=(
                miss_lat_sum / miss_lat_n if miss_lat_n else 0.0
            ),
            l1_misses=sum(c.stats.l1_misses for c in sim.cores),
            writebacks=sum(c.stats.writebacks for c in sim.cores),
            stall_cycles=sum(c.stats.stall_cycles for c in sim.cores),
            latency_p50=percentiles[50.0],
            latency_p95=percentiles[95.0],
            latency_p99=percentiles[99.0],
            estimator_accuracy=accuracy,
            energy=energy,
        )

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    def instruction_throughput(self) -> float:
        return metrics.instruction_throughput(self.ipc)

    def slowest_ipc(self) -> float:
        return metrics.slowest_ipc(self.ipc)

    def total_instructions(self) -> int:
        return sum(self.instructions)

    def ipc_by_app(self) -> Dict[str, float]:
        """Average per-core IPC of each application in the workload."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for app, ipc in zip(self.app_of_core, self.ipc):
            sums[app] = sums.get(app, 0.0) + ipc
            counts[app] = counts.get(app, 0) + 1
        return {app: sums[app] / counts[app] for app in sums}

    def l2_hit_rate(self) -> float:
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0

    def uncore_latency(self) -> float:
        """Average core->bank->core round-trip latency of L1 misses
        (the Figure 14 metric)."""
        return self.avg_miss_latency

    def latency_breakdown(self) -> Dict[str, float]:
        """Figure 7: network latency vs queuing latency at banks."""
        network = self.avg_request_latency + self.avg_response_latency
        return {
            "network_latency": network,
            "bank_queuing_latency": self.avg_bank_queue_wait,
        }

    def uncore_energy(self) -> float:
        return self.energy.total if self.energy else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable summary (used by the CLI)."""
        return {
            "cycles": self.cycles,
            "instructions": self.total_instructions(),
            "instruction_throughput": self.instruction_throughput(),
            "slowest_ipc": self.slowest_ipc(),
            "ipc_by_app": self.ipc_by_app(),
            "avg_packet_latency": self.avg_packet_latency,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "estimator_accuracy": self.estimator_accuracy,
            "avg_request_latency": self.avg_request_latency,
            "avg_bank_queue_wait": self.avg_bank_queue_wait,
            "avg_miss_latency": self.avg_miss_latency,
            "l2_hit_rate": self.l2_hit_rate(),
            "packets_delivered": self.packets_delivered,
            "delayed_cycle_sum": self.delayed_cycle_sum,
            "writebacks": self.writebacks,
            "uncore_energy_j": self.uncore_energy(),
        }
