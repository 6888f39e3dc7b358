"""Metrics registry: counters and percentile histograms.

The simulator's per-subsystem stats objects (``NetworkStats``,
``BankStats``) stay the bit-identical source of truth for the
scheduler-equivalence contract; the registry is the *serving-stack*
view layered on top of them -- named metrics an observability session
accumulates from the event stream and exports to reports and JSON.

The histogram implementation is shared with ``NetworkStats``: both
store exact ``value -> count`` maps (packet latencies are small
integers, so the exact form is cheaper than bucketing) and derive tail
percentiles through :func:`percentiles_from_hist`
(``NetworkStats.latency_percentiles``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

#: The default percentile set reported everywhere (p50/p95/p99).
DEFAULT_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)


def percentiles_from_hist(
    hist: Mapping[int, int],
    percentiles: Iterable[float] = DEFAULT_PERCENTILES,
) -> Dict[float, float]:
    """Percentiles of an exact ``value -> count`` histogram.

    Uses the nearest-rank definition (the smallest value whose
    cumulative count reaches ``ceil(q/100 * total)``), which is exact
    for integer-valued distributions and never interpolates between
    observed values.  An empty histogram yields 0.0 for every quantile.
    """
    qs = list(percentiles)
    if not hist:
        return {q: 0.0 for q in qs}
    total = sum(hist.values())
    # ceil without floats drifting: rank q = smallest k with
    # k * 100 >= q * total.
    targets = sorted(
        (max(1, -(-int(q * total) // 100)), q) for q in qs
    )
    out: Dict[float, float] = {}
    cumulative = 0
    idx = 0
    for value in sorted(hist):
        cumulative += hist[value]
        while idx < len(targets) and cumulative >= targets[idx][0]:
            out[targets[idx][1]] = float(value)
            idx += 1
        if idx == len(targets):
            break
    # Ranks beyond the total (q > 100) clamp to the maximum.
    if idx < len(targets):
        top = float(max(hist))
        for rank, q in targets[idx:]:
            out[q] = top
    return out


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict:
        return {"type": "counter", "value": self.value}


class Histogram:
    """Exact integer-valued distribution with tail percentiles."""

    __slots__ = ("name", "hist", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.hist: Dict[int, int] = {}
        self.count = 0
        self.total = 0

    def observe(self, value: int, n: int = 1) -> None:
        self.hist[value] = self.hist.get(value, 0) + n
        self.count += n
        self.total += value * n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentiles(
        self, qs: Iterable[float] = DEFAULT_PERCENTILES,
    ) -> Dict[float, float]:
        return percentiles_from_hist(self.hist, qs)

    def as_dict(self) -> Dict:
        ps = self.percentiles()
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "p50": ps[50.0],
            "p95": ps[95.0],
            "p99": ps[99.0],
            "max": float(max(self.hist)) if self.hist else 0.0,
        }


class MetricsRegistry:
    """Named metrics, created on first use.

    A name is bound to exactly one metric type for the registry's
    lifetime; asking for the same name with a different type is a
    programming error and raises.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def as_dict(self) -> Dict[str, Dict]:
        return {
            name: self._metrics[name].as_dict() for name in self.names()
        }

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics
