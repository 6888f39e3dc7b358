"""Batch experiment sweeps with JSON persistence.

Runs a grid of (scheme x workload) experiments, collects the
:class:`~repro.sim.results.SimulationResult` summaries, and serialises
them so analyses can be re-plotted without re-simulating::

    grid = SweepGrid(apps=["tpcc", "mcf"], schemes=ALL_SCHEMES,
                     cycles=2500, warmup=1000,
                     overrides={"mesh_width": 8, "capacity_scale": 1/16})
    sweep = run_sweep(grid, workers=4, cache=True)
    sweep.save("results.json")
    later = SweepResults.load("results.json")
    later.normalized("instruction_throughput", baseline="SRAM-64TSB")

Execution is delegated to :mod:`repro.sim.parallel`: grid points are
self-contained picklable :class:`~repro.sim.parallel.SweepPoint` specs
that can fan out across a process pool and be served from the
content-addressed result cache.  Every point simulates from a reset
process state, so ``SweepResults.data`` is byte-identical for any
worker count and for warm-cache replays.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.sim.config import ALL_SCHEMES, Scheme
from repro.sim.parallel import (
    ProgressFn, SweepPoint, SweepRunStats, _json_safe, run_points,
)


@dataclass
class SweepGrid:
    """Specification of one experiment grid."""

    apps: Sequence[str]
    schemes: Sequence[Scheme] = ALL_SCHEMES
    cycles: int = 2500
    warmup: int = 1000
    seed: int = 1
    overrides: Dict[str, object] = field(default_factory=dict)

    def points(self) -> Iterator[Tuple[str, Scheme]]:
        for app in self.apps:
            for scheme in self.schemes:
                yield app, scheme

    def point_specs(self) -> List[SweepPoint]:
        """The grid as self-contained picklable task specs."""
        return [
            SweepPoint.build(app, scheme, self.cycles, self.warmup,
                             self.seed, self.overrides)
            for app, scheme in self.points()
        ]

    def spec_dict(self) -> Dict:
        return {
            "apps": list(self.apps),
            "schemes": [s.value for s in self.schemes],
            "cycles": self.cycles,
            "warmup": self.warmup,
            "seed": self.seed,
            "overrides": {name: _json_safe(value)
                          for name, value in self.overrides.items()},
        }


class SweepResults:
    """Summaries of a completed sweep, keyed by (app, scheme label)."""

    def __init__(self, grid_spec: dict,
                 data: Dict[str, Dict[str, dict]],
                 meta: Optional[Dict] = None):
        self.grid_spec = grid_spec
        #: data[app][scheme_label] -> SimulationResult.to_dict()
        self.data = data
        #: execution metadata (the telemetry payload) -- informational
        #: only: never part of :meth:`fingerprint` or any cache key.
        self.meta = dict(meta or {})

    # ------------------------------------------------------------------

    def metric(self, name: str) -> Dict[str, Dict[str, float]]:
        """One scalar metric across the whole grid."""
        return {
            app: {scheme: summary[name]
                  for scheme, summary in by_scheme.items()}
            for app, by_scheme in self.data.items()
        }

    def normalized(self, name: str,
                   baseline: str) -> Dict[str, Dict[str, float]]:
        """Metric per app/scheme divided by the baseline scheme's value."""
        raw = self.metric(name)
        out: Dict[str, Dict[str, float]] = {}
        for app, by_scheme in raw.items():
            base = by_scheme.get(baseline)
            if not base:
                out[app] = {scheme: 0.0 for scheme in by_scheme}
                continue
            out[app] = {scheme: value / base
                        for scheme, value in by_scheme.items()}
        return out

    def apps(self) -> List[str]:
        return list(self.data)

    def schemes(self) -> List[str]:
        first = next(iter(self.data.values()), {})
        return list(first)

    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        payload = {"grid": self.grid_spec, "data": self.data}
        if self.meta:
            payload["meta"] = self.meta
        with open(path, "w", encoding="ascii") as fp:
            json.dump(payload, fp, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "SweepResults":
        with open(path, "r", encoding="ascii") as fp:
            payload = json.load(fp)
        return cls(payload["grid"], payload["data"],
                   meta=payload.get("meta"))

    def fingerprint(self) -> str:
        """SHA-256 of the canonical result payload.

        Two sweeps of the same grid agree on this digest exactly when
        every per-point summary is byte-identical -- the determinism
        contract checked across worker counts and cache replays.
        """
        blob = json.dumps(self.data, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()


def run_sweep(grid: SweepGrid,
              progress: Optional[ProgressFn] = None,
              *,
              workers: int = 1,
              cache: bool = False,
              cache_dir: Optional[str] = None,
              timeout: Optional[float] = None,
              stats: Optional[SweepRunStats] = None,
              telemetry=None,
              ledger: bool = False) -> SweepResults:
    """Execute every grid point and collect summaries.

    ``workers=1`` (the default) runs in-process, serially; ``workers=N``
    fans grid points out across a process pool, and ``workers=0`` uses
    one worker per host CPU.  With ``cache=True`` previously simulated
    points are served from the content-addressed result cache (see
    :mod:`repro.sim.parallel`), so only changed points simulate; a
    killed sweep resumes by running again with ``cache=True`` against
    the same ``cache_dir``.

    The resulting ``SweepResults.data`` -- and hence the fingerprint --
    is identical in all modes, across worker counts and cache states.

    ``progress`` is called once per finished point (see
    :data:`~repro.sim.parallel.ProgressFn`).  ``telemetry`` accepts a
    :class:`~repro.obs.telemetry.SweepTelemetry`; when given, its span
    rollups, worker roster and the run's ``stats`` land in
    ``SweepResults.meta["telemetry"]`` (informational only -- the
    fingerprint hashes ``data`` alone).

    A sweep writes nothing but its result cache.  ``ledger`` is kept
    only because ``bench/run.py`` still passes ``ledger=False``; the
    run ledger it named is gone, so ``ledger=True`` raises
    :class:`~repro.errors.ConfigError`.
    """
    if ledger:
        raise ConfigError("the run ledger was removed; a sweep writes "
                          "only its result cache")
    specs = grid.point_specs()
    stats = stats if stats is not None else SweepRunStats()
    resolved = run_points(
        specs, workers=workers, cache=cache, cache_dir=cache_dir,
        progress=progress, timeout=timeout, stats=stats,
        telemetry=telemetry,
    )
    data: Dict[str, Dict[str, dict]] = {}
    for spec in specs:
        data.setdefault(spec.app, {})[spec.scheme.value] = (
            resolved[spec.key()]
        )
    meta = {}
    if telemetry is not None:
        meta["telemetry"] = telemetry.as_meta(stats)
    return SweepResults(grid.spec_dict(), data, meta=meta)
