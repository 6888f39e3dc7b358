"""Live sweep progress: a ``progress=`` callable for the sweep engine.

Two modes, selected by ``repro.cli sweep --progress={plain,rich}``:

* ``plain`` -- one line per completed point (CI-log friendly, no
  control characters): label, counter, rolling points/sec and ETA.
* ``rich`` -- a single carriage-return-rewritten status line: progress
  bar, points/sec, ETA, cache-hit rate, per-worker completion counts
  and straggler flagging.

:class:`ProgressRenderer` is the ``progress`` callable of
:func:`~repro.sim.parallel.run_points` (and ``run_sweep``), called
once per finished point; it never touches simulation state, so
rendering cannot perturb results (the pure-reader guarantee).

Straggler heuristic: completions are chunk-granular, so the renderer
cannot see *inside* a worker's in-flight chunk.  It tracks each
worker's last completion time and flags a worker when work remains
pending and that worker has been silent for more than
``STRAGGLER_FACTOR`` times the rolling mean point wall time.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

#: Rolling window (completions) for the points/sec and ETA estimate.
ETA_WINDOW = 24

#: A worker silent for this multiple of the rolling mean point time
#: (while points remain pending) is flagged as a straggler.
STRAGGLER_FACTOR = 3.0

#: Floor on the silence time before flagging, so fast sweeps with
#: sub-millisecond points do not flag on scheduling noise.
STRAGGLER_MIN_S = 1.0


class ProgressRenderer:
    """Terminal renderer for live sweep progress.

    ``stats`` is the run's :class:`~repro.sim.parallel.SweepRunStats`:
    the renderer reads the point total from ``stats.points``, which the
    engine sets before the first point finishes.  Call the renderer as
    ``renderer(spec, source, wall_ms, worker)`` once per finished point,
    where ``source`` is ``"sim"`` or ``"hit"``.
    """

    def __init__(self, stats, mode: str = "plain", out=None,
                 now=time.monotonic):
        if mode not in ("plain", "rich"):
            raise ValueError(f"progress mode must be plain or rich, "
                             f"got {mode!r}")
        self.stats = stats
        self.mode = mode
        self.out = out if out is not None else sys.stderr
        self._now = now
        self.done = 0
        self.hits = 0
        self._t0 = now()
        #: completion timestamps of the rolling ETA window
        self._ticks: Deque[float] = deque(maxlen=ETA_WINDOW)
        #: rolling simulated-point wall times (seconds)
        self._walls: Deque[float] = deque(maxlen=ETA_WINDOW)
        #: worker pid -> (points completed, last completion timestamp)
        self.per_worker: Dict[int, Tuple[int, float]] = {}

    @property
    def total(self) -> int:
        return self.stats.points

    def __call__(self, spec, source: str, wall_ms: float,
                 worker: Optional[int]) -> None:
        now = self._now()
        self.done += 1
        if source == "hit":
            self.hits += 1
        else:
            self._ticks.append(now)
            self._walls.append(wall_ms / 1e3)
        if worker is not None:
            count, _last = self.per_worker.get(worker, (0, now))
            self.per_worker[worker] = (count + 1, now)
        if self.mode == "plain":
            self._render_plain(spec.label(), source)
        else:
            self._render_rich(now)

    # ------------------------------------------------------------------
    # Rate / ETA / straggler estimation
    # ------------------------------------------------------------------

    def points_per_sec(self) -> float:
        """Rolling simulated-point rate (cache hits excluded: they
        complete in microseconds and would make the ETA lie)."""
        if len(self._ticks) >= 2:
            span = self._ticks[-1] - self._ticks[0]
            if span > 0:
                return (len(self._ticks) - 1) / span
        elapsed = self._now() - self._t0
        return self.done / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self) -> Optional[float]:
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        # The rolling rate is measured over completions from *all*
        # workers, so it already reflects pool-level throughput.
        rate = self.points_per_sec()
        if rate <= 0:
            return None
        return remaining / rate

    def mean_point_seconds(self) -> float:
        if not self._walls:
            return 0.0
        return sum(self._walls) / len(self._walls)

    def stragglers(self, now: Optional[float] = None) -> Dict[int, float]:
        """Workers silent beyond the straggler bound -> silence seconds."""
        if self.done >= self.total:
            return {}
        now = self._now() if now is None else now
        bound = max(STRAGGLER_MIN_S,
                    STRAGGLER_FACTOR * self.mean_point_seconds())
        return {
            pid: round(now - last, 2)
            for pid, (_count, last) in self.per_worker.items()
            if now - last > bound
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    @staticmethod
    def _fmt_eta(eta: Optional[float]) -> str:
        if eta is None:
            return "eta ?"
        if eta >= 90:
            return f"eta {eta / 60:.1f}m"
        return f"eta {eta:.0f}s"

    def _render_plain(self, label: str, source: str) -> None:
        eta = self._fmt_eta(self.eta_seconds())
        self.out.write(
            f"  [{self.done}/{self.total}] {source:<7} {label}  "
            f"{self.points_per_sec():.2f} pts/s  {eta}\n"
        )
        self.out.flush()

    def _render_rich(self, now: float) -> None:
        width = 20
        frac = self.done / self.total if self.total else 0.0
        filled = int(frac * width)
        bar = "#" * filled + "-" * (width - filled)
        hit_rate = self.hits / self.done if self.done else 0.0
        parts = [
            f"[{bar}] {self.done}/{self.total}",
            f"{self.points_per_sec():.2f} pts/s",
            self._fmt_eta(self.eta_seconds()),
            f"hits {hit_rate:.0%}",
        ]
        if self.per_worker:
            roster = " ".join(
                f"w{pid}:{count}"
                for pid, (count, _last) in sorted(self.per_worker.items())
            )
            parts.append(roster)
        stragglers = self.stragglers(now)
        if stragglers:
            slowest = max(stragglers.items(), key=lambda kv: kv[1])
            parts.append(f"STRAGGLER w{slowest[0]} "
                         f"silent {slowest[1]:.1f}s")
        line = "  ".join(parts)
        # The last point ends the rewritten line.
        end = "\n" if self.done >= self.total else ""
        self.out.write("\r\x1b[2K" + line + end)
        self.out.flush()
