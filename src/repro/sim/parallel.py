"""Parallel sweep engine: process-pool fan-out with result caching.

Every figure in the paper is a grid -- apps x schemes x seeds
normalised to the SRAM-64TSB baseline -- and the grid points are
embarrassingly parallel: each one builds its own config, workload and
simulator and returns a JSON summary.  This module shards grid points
across a :class:`concurrent.futures.ProcessPoolExecutor` and layers a
content-addressed on-disk result cache underneath, so re-running a
sweep only simulates the points whose inputs actually changed.

Design contract (tested in ``tests/test_parallel_sweep.py``):

* **Determinism** -- each point simulates from a fully reset process
  state (``repro.sim.reset_state``), so its summary depends only on its
  own spec.  ``SweepResults.data`` is therefore byte-identical across
  ``workers=1``, ``workers=N`` and warm-cache replay, independent of
  worker count or completion order.
* **Content addressing** -- a cache entry is keyed by the SHA-256 of
  the canonical point spec (app, scheme, cycles, warmup, seed, sorted
  config overrides) plus a code-version tag derived from the package
  sources.  Changing any input -- or the simulator code itself --
  changes the key and forces re-simulation; nothing is ever
  invalidated in place.
* **Fault tolerance** -- every cache entry carries a SHA-256 payload
  digest that is re-verified on read, so a truncated or tampered entry
  is evicted and re-simulated (counted in
  ``SweepRunStats.cache_evictions``).
  A crashed or timed-out worker chunk falls back to the parent, where
  each point's simulation is retried up to :data:`MAX_RETRIES` times
  with bounded exponential backoff before the sweep fails.  A typed
  :class:`~repro.errors.ReproError` (an unknown app, a bad config) is
  the point's own and fails the sweep at once, unretried.
* **Crash survivability** -- the cache is the sweep's only journal:
  each point is written the moment it finishes, so a killed sweep
  re-run against the same cache directory serves its finished points
  as hits and simulates only the rest.

The engine counts in one place, :class:`SweepRunStats`, records
wall-clock spans on every run (:mod:`repro.obs.telemetry`), reports
each finished point to one ``progress`` callable, and is exposed on
the command line as ``python -m repro.cli sweep``.
"""

from __future__ import annotations

import concurrent.futures
import enum
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, ReproError
from repro.obs.telemetry import SpanRecorder, SweepTelemetry
from repro.sim.config import Scheme

#: Bumped when the cached payload layout (not the simulated content)
#: changes incompatibly.
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"

#: Retries of a failed point's simulation before the sweep fails.
MAX_RETRIES = 2

#: Seconds before the first retry; each further retry doubles it.
RETRY_BACKOFF = 0.25


def default_cache_dir() -> str:
    """``$REPRO_SWEEP_CACHE_DIR``, else ``$XDG_CACHE_HOME`` or
    ``~/.cache``, plus ``repro-sweeps``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-sweeps")


# ----------------------------------------------------------------------
# Code-version tag
# ----------------------------------------------------------------------

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Stable tag of the simulator sources that produced a result.

    A SHA-256 over every ``.py`` file in the installed ``repro``
    package (path-sorted, path+content hashed) truncated to 16 hex
    digits, combined with :data:`CACHE_SCHEMA_VERSION`.  Any source
    edit changes the tag, so stale cache entries simply stop being
    addressed rather than needing explicit invalidation.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        digest = hashlib.sha256()
        root = os.path.dirname(os.path.abspath(repro.__file__))
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _CODE_VERSION = (
            f"v{CACHE_SCHEMA_VERSION}-{digest.hexdigest()[:16]}"
        )
    return _CODE_VERSION


# ----------------------------------------------------------------------
# Point specs
# ----------------------------------------------------------------------


def _json_safe(value):
    """Canonical JSON-compatible form of a config-override value: a
    frozen dataclass (BUFF-N's ``WriteBufferConfig``) becomes
    ``{"Type": {field: value}}`` with its fields sorted."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if (is_dataclass(value) and not isinstance(value, type)
            and value.__dataclass_params__.frozen):
        names = sorted(f.name for f in fields(value))
        return {type(value).__name__: {
            name: _json_safe(getattr(value, name)) for name in names
        }}
    raise ConfigError(
        f"override value {value!r} is not cacheable; use scalars, enums "
        "or frozen dataclasses of them"
    )


@dataclass(frozen=True)
class SweepPoint:
    """One self-contained, picklable grid point.

    Carries everything a worker process needs to reproduce the
    simulation: nothing is closed over, nothing depends on the parent
    process state.
    """

    #: Workload name: an app, ``case1``, ``case2`` or a Case 3 mix
    #: (see :func:`repro.workloads.make_workload`).
    app: str
    scheme: Scheme
    cycles: int
    warmup: int
    seed: int
    #: Sorted ``(name, value)`` pairs of ``make_config`` overrides.
    overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def build(cls, app: str, scheme: Scheme, cycles: int, warmup: int,
              seed: int, overrides: Optional[Dict] = None) -> "SweepPoint":
        items = tuple(sorted((overrides or {}).items()))
        return cls(app=app, scheme=scheme, cycles=cycles, warmup=warmup,
                   seed=seed, overrides=items)

    def overrides_dict(self) -> Dict:
        return dict(self.overrides)

    def canonical(self) -> Dict:
        """JSON-stable spec used for hashing and cache payloads."""
        return {
            "app": self.app,
            "scheme": self.scheme.value,
            "cycles": self.cycles,
            "warmup": self.warmup,
            "seed": self.seed,
            "overrides": {
                name: _json_safe(value) for name, value in self.overrides
            },
        }

    def key(self, version: Optional[str] = None) -> str:
        """Content address of this point under one code version."""
        payload = {
            "spec": self.canonical(),
            "version": version if version is not None else code_version(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    def label(self) -> str:
        return f"{self.app}/{self.scheme.value}/seed{self.seed}"


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------


def _payload_digest(result: Dict) -> str:
    """Canonical SHA-256 of a point summary, stored alongside it."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


class SweepCache:
    """Content-addressed store of point summaries.

    Layout: ``<root>/<key[:2]>/<key>.json`` holding
    ``{"key", "version", "digest", "spec", "result"}``.  Writes are
    atomic (temp file + ``os.replace``); reads re-verify the payload
    digest, so an entry that fails to parse, fails the self-check or
    was truncated/tampered after the write is **evicted** (counted in
    :attr:`evictions`) and treated as a miss, never served.
    """

    def __init__(self, root: Optional[str] = None,
                 version: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.version = version if version is not None else code_version()
        #: corrupt entries discarded by :meth:`get` over this object's
        #: lifetime
        self.evictions = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[Dict]:
        """The cached summary for ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="ascii") as fh:
                payload = json.load(fh)
            if payload["key"] != key or payload["version"] != self.version:
                raise ValueError("cache entry self-check failed")
            result = payload["result"]
            if not isinstance(result, dict):
                raise ValueError("cache entry has no result dict")
            if payload["digest"] != _payload_digest(result):
                raise ValueError("cache entry digest mismatch")
            return result
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._discard(path)
            self.evictions += 1
            return None

    def put(self, key: str, spec: Dict, result: Dict) -> None:
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "key": key,
            "version": self.version,
            "digest": _payload_digest(result),
            "spec": spec,
            "result": result,
        }
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)

    def _discard(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def build_simulator(spec: SweepPoint, **options):
    """The simulator ``spec`` names, built from a reset process state:
    the one place a point becomes a simulator.  ``options`` (``guard``,
    ``faults``, ``log_bank_accesses``, ``scheduler``) go to
    ``CMPSimulator``; the caller runs the point's window."""
    from repro.sim import reset_state
    from repro.sim.config import make_config
    from repro.sim.simulator import CMPSimulator
    from repro.workloads.mixes import make_workload

    reset_state()
    config = make_config(spec.scheme, **spec.overrides_dict())
    workload = make_workload(spec.app, config, spec.seed)
    return CMPSimulator(config, workload, **options)


def simulate_point(spec: SweepPoint,
                   recorder: Optional[SpanRecorder] = None) -> Dict:
    """Simulate one grid point from a clean process-global state.

    Top-level (hence picklable under the ``spawn`` start method) and
    hermetic: the result depends only on ``spec``, never on what ran
    earlier in the process.  ``recorder`` (a private one when none is
    passed) splits the run into ``engine.setup``/``engine.simulate``
    spans; it observes wall time only and never alters the summary.
    """
    recorder = recorder if recorder is not None else SpanRecorder()
    labels = {"app": spec.app, "scheme": spec.scheme.value}
    with recorder.span("engine.setup", **labels):
        sim = build_simulator(spec)
    with recorder.span("engine.simulate", **labels):
        result = sim.run(spec.cycles, warmup=spec.warmup)
    return result.to_dict()


def _simulate_chunk(specs: Sequence[SweepPoint], submit_ts: float) -> Dict:
    """Worker entry point: one IPC round-trip covers a chunk of points.

    Returns ``{"pid", "rows": [{"result", "wall_ms"}, ...], "spans"}``.
    ``submit_ts`` is the parent's monotonic submit time, from which the
    ``chunk.queue_wait`` span is derived (``CLOCK_MONOTONIC`` is
    system-wide on the platforms we run on, so worker and parent share
    a timeline).
    """
    recorder = SpanRecorder()
    t_chunk = time.monotonic()
    # Clamp: clocks agree across processes on one host, but a fork
    # that wins the race could start marginally "early".
    recorder.add("chunk.queue_wait", min(submit_ts, t_chunk),
                 t_chunk - submit_ts)
    rows = []
    for spec in specs:
        t0 = time.perf_counter()
        result = simulate_point(spec, recorder)
        rows.append({"result": result,
                     "wall_ms": (time.perf_counter() - t0) * 1e3})
    recorder.add("chunk.run", t_chunk, time.monotonic() - t_chunk,
                  points=len(specs))
    return {"pid": recorder.worker, "rows": rows,
            "spans": recorder.spans}


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

#: ``progress(spec, source, wall_ms, worker)``, called once per
#: finished point: ``source`` is ``"sim"`` or ``"hit"``, ``wall_ms``
#: the point's simulation time (0 for a hit) and ``worker`` the pid
#: that simulated it (None for a hit).
ProgressFn = Callable[[SweepPoint, str, float, Optional[int]], None]


@dataclass
class SweepRunStats:
    """Execution counters of one engine run: the sweep's only counts
    (spans hold its time)."""

    points: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0
    retried: int = 0
    worker_crashes: int = 0
    workers: int = 1
    chunks: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    #: corrupt cache entries evicted during this run
    cache_evictions: int = 0

    @property
    def points_per_sec(self) -> float:
        return self.points / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.points if self.points else 0.0

    @property
    def utilization(self) -> float:
        """Worker busy time over worker capacity for the run."""
        capacity = self.workers * self.wall_seconds
        return self.busy_seconds / capacity if capacity else 0.0

    def as_dict(self) -> Dict:
        return {
            "points": self.points,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "simulated": self.simulated,
            "retried": self.retried,
            "worker_crashes": self.worker_crashes,
            "cache_evictions": self.cache_evictions,
            "workers": self.workers,
            "chunks": self.chunks,
            "wall_seconds": self.wall_seconds,
            "points_per_sec": self.points_per_sec,
            "hit_rate": self.hit_rate,
            "utilization": self.utilization,
        }


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count request against the host.

    ``None``/``0`` means one worker per CPU.  Platforms without any
    usable multiprocessing start method degrade to serial.
    """
    if workers is None or workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers > 1 and not multiprocessing.get_all_start_methods():
        return 1  # pragma: no cover - exotic platform fallback
    return workers


def _mp_context():
    """Prefer ``fork`` (cheap, inherits warm imports); fall back to
    the platform default (``spawn``) where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _chunked(items: Sequence, size: int) -> List[Tuple]:
    return [tuple(items[i:i + size]) for i in range(0, len(items), size)]


def run_points(
    specs: Sequence[SweepPoint],
    workers: Optional[int] = None,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    timeout: Optional[float] = None,
    stats: Optional[SweepRunStats] = None,
    telemetry: Optional[SweepTelemetry] = None,
) -> Dict[str, Dict]:
    """Resolve every spec to a summary dict, keyed by content address.

    Cached points are served from disk; the rest fan out across a
    process pool (``workers > 1``) or run inline, and each is written to
    the cache the moment it finishes, so a killed sweep re-run against
    the same cache simulates only its unfinished points.  ``timeout``
    is the per-point wall-clock budget; a chunk that exceeds the sum of
    its points' budgets -- or whose worker dies -- falls back to the
    parent, where each unfinished point's simulation retries up to
    :data:`MAX_RETRIES` times with exponential backoff
    (``RETRY_BACKOFF * 2**attempt`` seconds) before the sweep fails.
    The returned mapping is insertion-ordered by first occurrence in
    ``specs`` and independent of completion order.

    ``stats`` receives the run's counters, ``progress`` (a
    :data:`ProgressFn`) hears of every finished point, and
    ``telemetry`` (a :class:`~repro.obs.telemetry.SweepTelemetry`)
    collects the run's spans from the parent and every worker.  Spans
    are recorded on every run -- into a private collector when none is
    passed -- so passing one never changes what runs; none of the three
    alters results, cache keys or completion order.
    """
    stats = stats if stats is not None else SweepRunStats()
    tel = telemetry if telemetry is not None else SweepTelemetry()
    # The parent acts as a worker on the serial and retry paths.
    recorder = tel.recorder
    stats.workers = resolve_workers(workers)
    t_start = time.perf_counter()
    t_mono = time.monotonic()

    store = SweepCache(cache_dir) if cache else None
    results: Dict[str, Dict] = {}
    spec_of_key: Dict[str, SweepPoint] = {}
    for spec in specs:
        # The default code_version() tag keys every point whether or
        # not the cache is consulted, so callers can re-derive the key
        # with ``spec.key()`` regardless of cache settings.
        key = spec.key(store.version if store is not None else None)
        if key not in spec_of_key:
            spec_of_key[key] = spec
            results[key] = None  # placeholder fixing output order
    stats.points = len(spec_of_key)

    def finish(key: str, result: Dict, source: str, wall_ms: float = 0.0,
               worker: Optional[int] = None) -> None:
        results[key] = result
        if progress is not None:
            progress(spec_of_key[key], source, wall_ms, worker)

    def cache_put(key: str, result: Dict) -> None:
        if store is None:
            return
        t0 = time.monotonic()
        store.put(key, spec_of_key[key].canonical(), result)
        recorder.add("point.cache_write", t0, time.monotonic() - t0)

    t_plan = time.monotonic()
    misses: List[str] = []
    for key, spec in spec_of_key.items():
        cached = store.get(key) if store is not None else None
        if cached is not None:
            stats.cache_hits += 1
            finish(key, cached, "hit")
        else:
            misses.append(key)
    stats.cache_misses = len(misses)
    recorder.add("sweep.plan", t_plan, time.monotonic() - t_plan,
                 points=stats.points, misses=len(misses))

    def simulate_with_retries(key: str) -> Tuple[Dict, float]:
        """One point's summary and wall time in ms; the simulation alone
        is retried with bounded exponential backoff.  A typed
        :class:`~repro.errors.ReproError` raises at once: the point is
        hermetic, so every retry would raise it again."""
        attempt = 0
        while True:
            t0 = time.perf_counter()
            try:
                result = simulate_point(spec_of_key[key], recorder)
            except ReproError:
                raise
            except Exception:
                attempt += 1
                if attempt > MAX_RETRIES:
                    raise
                stats.retried += 1
                time.sleep(RETRY_BACKOFF * 2 ** (attempt - 1))
            else:
                return result, (time.perf_counter() - t0) * 1e3

    def run_serially(key: str) -> None:
        result, wall_ms = simulate_with_retries(key)
        stats.busy_seconds += wall_ms / 1e3
        stats.simulated += 1
        cache_put(key, result)
        finish(key, result, "sim", wall_ms, recorder.worker)

    def run_pool() -> None:
        # ~4 chunks per worker: load-balanced while amortising
        # pickling/IPC over several points per round-trip.
        chunk_size = max(1, len(misses) // (stats.workers * 4))
        chunks = _chunked(misses, chunk_size)
        stats.chunks = len(chunks)
        retry: List[str] = []
        # The overall deadline is the sum of the per-point budgets: the
        # pool as a whole never waits longer than ``timeout`` per point.
        deadline = timeout * len(misses) if timeout else None
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(stats.workers, len(chunks)),
            mp_context=_mp_context(),
        )
        finished = False
        try:
            futures = {
                executor.submit(
                    _simulate_chunk,
                    tuple(spec_of_key[k] for k in chunk),
                    time.monotonic(),
                ): chunk
                for chunk in chunks
            }
            for future in concurrent.futures.as_completed(
                    futures, timeout=deadline):
                chunk = futures[future]
                try:
                    payload = future.result()
                except ReproError:
                    # A typed error is the point's own, not the
                    # worker's: it would recur on every retry.
                    raise
                except Exception:
                    # Worker crash (BrokenProcessPool marks every
                    # pending future too) or an in-worker exception:
                    # queue the chunk for the serial retry pass, where
                    # a genuine simulation bug reproduces and raises
                    # with a readable traceback.
                    stats.worker_crashes += 1
                    retry.extend(chunk)
                else:
                    tel.absorb(payload["spans"])
                    for key, row in zip(chunk, payload["rows"]):
                        stats.simulated += 1
                        stats.busy_seconds += row["wall_ms"] / 1e3
                        cache_put(key, row["result"])
                        finish(key, row["result"], "sim", row["wall_ms"],
                               payload["pid"])
            finished = True
        except concurrent.futures.TimeoutError:
            # Deadline tripped: everything unfinished retries serially.
            stats.worker_crashes += 1
            for future, chunk in futures.items():
                if not future.done():
                    future.cancel()
                    retry.extend(chunk)
        finally:
            # Once every chunk is back, join the pool so no worker or
            # pool thread outlives the call.  A tripped deadline or a
            # raised error leaves at once: a hung worker cannot be
            # joined, and an error (a typed one above all) fails fast.
            executor.shutdown(wait=finished, cancel_futures=True)
        for key in retry:
            if results[key] is None:
                stats.retried += 1
                run_serially(key)

    t_dispatch = time.monotonic()
    if stats.workers <= 1 or len(misses) <= 1:
        for key in misses:
            run_serially(key)
    else:
        run_pool()
    recorder.add("sweep.dispatch", t_dispatch,
                 time.monotonic() - t_dispatch, simulated=stats.simulated)

    stats.wall_seconds = time.perf_counter() - t_start
    if store is not None:
        stats.cache_evictions = store.evictions
    recorder.add("sweep.run", t_mono, stats.wall_seconds,
                 points=stats.points)
    return results
