"""System-level performance metrics (Section 4.1, Eqs. 1-3).

* ``instruction_throughput``: sum of per-core IPC over the whole CMP.
* ``weighted_speedup``: sum over applications of IPC_shared / IPC_alone
  (Snavely & Tullsen), the paper's system-throughput metric for
  multi-programmed workloads.
* ``max_slowdown``: max over applications of IPC_alone / IPC_shared,
  the paper's fairness metric (Figure 10).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence


def instruction_throughput(ipcs: Iterable[float]) -> float:
    """Eq. (1): total committed IPC across all cores.

    Folded left to right from 0.0, not with builtin ``sum()``: Python
    3.12 made float ``sum()`` compensated, which changes the last bits
    of a result that reaches ``SimulationResult.to_dict()``."""
    total = 0.0
    for ipc in ipcs:
        total += ipc
    return total


def weighted_speedup(shared_ipc: Mapping[str, float],
                     alone_ipc: Mapping[str, float]) -> float:
    """Eq. (2): sum of per-application shared/alone IPC ratios.

    Args:
        shared_ipc: Per-application average per-core IPC in the mix.
        alone_ipc: Per-application average per-core IPC when running
            alone under the same configuration.
    """
    total = 0.0
    for app, shared in shared_ipc.items():
        alone = alone_ipc.get(app)
        if alone is None:
            raise KeyError(f"no stand-alone IPC recorded for {app!r}")
        if alone > 0:
            total += shared / alone
    return total


def slowdowns(shared_ipc: Mapping[str, float],
              alone_ipc: Mapping[str, float]) -> Dict[str, float]:
    """Per-application slowdown: IPC_alone / IPC_shared."""
    result = {}
    for app, shared in shared_ipc.items():
        alone = alone_ipc.get(app)
        if alone is None:
            raise KeyError(f"no stand-alone IPC recorded for {app!r}")
        result[app] = alone / shared if shared > 0 else float("inf")
    return result


def max_slowdown(shared_ipc: Mapping[str, float],
                 alone_ipc: Mapping[str, float]) -> float:
    """Eq. (3): the largest per-application slowdown in the mix."""
    values = slowdowns(shared_ipc, alone_ipc)
    return max(values.values()) if values else 0.0


def slowest_ipc(ipcs: Sequence[float]) -> float:
    """IPC of the slowest core/thread (the paper reports improvements
    for the slowest thread/copy)."""
    return min(ipcs) if ipcs else 0.0


def geometric_mean(values: Sequence[float]) -> float:
    """Geomean helper for summarising normalised results."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    product = 1.0
    for v in filtered:
        product *= v
    return product ** (1.0 / len(filtered))
