"""Human-readable reports over traces, metrics and epoch samples.

Renders the observability session's accumulated state as aligned text
tables (estimator accuracy, latency percentiles, per-bank busy heatmap,
epoch time-series).  Consumed by ``repro.cli report`` and the examples.

All imports of :mod:`repro.analysis` are local to the formatting
functions: :mod:`repro.sim.results` imports :mod:`repro.obs.accuracy`,
so a top-level import here would close an import cycle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: Ten-step density ramp used for the busy-fraction heatmap.
_SHADES = " .:-=+*#%@"


def shade(fraction: float) -> str:
    """One heatmap character for a utilisation fraction in [0, 1]."""
    idx = int(fraction * (len(_SHADES) - 1) + 0.5)
    return _SHADES[max(0, min(idx, len(_SHADES) - 1))]


def format_accuracy_table(summaries: Sequence[Dict]) -> str:
    """Table of per-estimator prediction outcomes.

    ``summaries`` holds :meth:`AccuracySummary.as_dict` rows (one per
    estimator/run being compared).
    """
    from repro.analysis.tables import format_table

    rows = [
        [
            s["estimator"].upper(),
            s["samples"],
            s["correct"],
            s["over_predictions"],
            s["under_predictions"],
            100.0 * s["accuracy"],
        ]
        for s in summaries
    ]
    return format_table(
        ["estimator", "samples", "correct", "over", "under", "accuracy %"],
        rows,
        title="Busy-prediction accuracy (predicted vs actual bank state)",
        float_format="{:.1f}",
    )


def format_bank_heatmap(busy_frac: Sequence[float], mesh_width: int,
                        title: str = "Bank busy fraction") -> str:
    """ASCII heatmap of per-bank busy fractions over the mesh grid.

    One character per bank, laid out row-major exactly like the cache
    layer of the mesh, so hot regions are visually adjacent.
    """
    lines = [f"{title} (scale '{_SHADES}' = 0..1):"]
    for y in range(0, len(busy_frac), mesh_width):
        row = busy_frac[y:y + mesh_width]
        lines.append("  " + " ".join(shade(f) for f in row))
    peak = max(busy_frac, default=0.0)
    mean = sum(busy_frac) / len(busy_frac) if busy_frac else 0.0
    lines.append(f"  mean {mean:.3f}  peak {peak:.3f}")
    return "\n".join(lines)


def format_epoch_table(samples: Sequence, max_rows: int = 20) -> str:
    """Epoch time-series: one row per sample (tail-truncated evenly).

    ``samples`` holds :class:`~repro.obs.sampler.EpochSample` objects.
    """
    from repro.analysis.tables import format_table

    picked = list(samples)
    if len(picked) > max_rows:
        step = len(picked) / max_rows
        picked = [picked[int(i * step)] for i in range(max_rows - 1)]
        picked.append(samples[-1])

    rows: List[List] = []
    for s in picked:
        occ = s.router_occupancy
        busy = s.bank_busy_frac
        tsb = s.tsb_flits_per_cycle
        acc = s.estimator_accuracy
        rows.append([
            s.cycle,
            s.span,
            s.injected,
            s.delivered,
            sum(occ),
            (sum(busy) / len(busy)) if busy else 0.0,
            (sum(tsb) / len(tsb)) if tsb else 0.0,
            100.0 * acc["accuracy"] if acc else 0.0,
        ])
    return format_table(
        ["cycle", "span", "inj", "dlv", "net flits",
         "bank busy", "tsb f/cyc", "est acc %"],
        rows,
        title="Epoch samples",
        float_format="{:.3f}",
    )


def format_metrics(registry) -> str:
    """Flat listing of every metric in the registry."""
    lines = ["metrics:"]
    for name, payload in registry.as_dict().items():
        kind = payload.pop("type")
        detail = "  ".join(
            f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in payload.items()
        )
        lines.append(f"  {name:<28} {kind:<9} {detail}")
    return "\n".join(lines)


def render_report(result_dict: Dict, obs, mesh_width: int) -> str:
    """The full ``repro.cli report`` body for one instrumented run.

    ``result_dict`` is a ``SimulationResult.to_dict()`` payload.
    """
    sections: List[str] = [
        "packet latency: mean {mean:.2f}  p50 {p50:.0f}  p95 {p95:.0f}  "
        "p99 {p99:.0f} cycles ({n} delivered)".format(
            mean=result_dict.get("avg_packet_latency", 0.0),
            p50=result_dict.get("latency_p50", 0.0),
            p95=result_dict.get("latency_p95", 0.0),
            p99=result_dict.get("latency_p99", 0.0),
            n=result_dict.get("packets_delivered", 0),
        )
    ]
    acc = result_dict.get("estimator_accuracy")
    if acc:
        sections.append(format_accuracy_table([acc]))
    samples = obs.samples
    if samples:
        last = samples[-1]
        sections.append(format_bank_heatmap(last.bank_busy_frac, mesh_width))
        sections.append(format_epoch_table(samples))
    sections.append(format_metrics(obs.registry))
    return "\n\n".join(sections)
