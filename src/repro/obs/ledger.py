"""Persistent run ledger: one JSONL record per completed sweep.

Perf regressions are only diagnosable after the fact if the facts were
written down.  Every ``run_sweep`` appends one schema-versioned record
-- spec digest, worker count, cache behaviour, wall time, span rollups
and host info -- to ``~/.cache/repro-sweeps/ledger.jsonl``
(same root as the result cache; ``$REPRO_LEDGER_DIR`` overrides,
``REPRO_LEDGER=0`` disables).

Durability mirrors the result cache's corrupt-entry handling:

* **Atomic writes** -- the ledger is rewritten whole through a temp
  file + ``os.replace``, so a crash mid-append leaves the previous
  (complete) file behind, never a torn one.
* **Corrupt-tail recovery** -- a line that is not ASCII, fails to
  parse or fails schema validation is skipped on read and dropped on
  the next append; a power cut that truncates the final line (or leaves
  any bytes behind) costs exactly that line.
* **Size-capped rotation** -- only the newest ``max_entries`` records
  are kept (``$REPRO_LEDGER_MAX`` overrides the default), so the
  ledger never grows without bound.

``repro.cli ledger`` lists, filters, validates and diffs the records;
``repro.cli report --compare`` reuses :func:`diff_records` to gate two
runs against a regression threshold.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Bumped when the record layout changes.  Schema 1 records also carry
#: ``backend`` (and, for batch runs, ``lane_groups``/``lanes_packed``/
#: ``scalar_fallbacks``); they still validate, list and diff, because
#: extra fields are ignored.
LEDGER_SCHEMA_VERSION = 2

#: Default number of records kept by rotation.
DEFAULT_MAX_ENTRIES = 200

LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"
LEDGER_MAX_ENV = "REPRO_LEDGER_MAX"
LEDGER_ENABLE_ENV = "REPRO_LEDGER"

#: Fields every valid record must carry (type-checked by validation).
REQUIRED_FIELDS: Dict[str, tuple] = {
    "schema": (int,),
    "run_id": (str,),
    "ts": (int, float),
    "spec_digest": (str,),
    "fingerprint": (str,),
    "workers": (int,),
    "points": (int,),
    "cache_hits": (int,),
    "cache_misses": (int,),
    "cache_evictions": (int,),
    "resumed_points": (int,),
    "simulated": (int,),
    "wall_seconds": (int, float),
    "points_per_sec": (int, float),
    "spans": (dict,),
    "host": (dict,),
}


def default_ledger_path() -> str:
    """``$REPRO_LEDGER_DIR``, else the sweep-cache root, plus
    ``ledger.jsonl``."""
    override = os.environ.get(LEDGER_DIR_ENV)
    if override:
        return os.path.join(override, "ledger.jsonl")
    from repro.sim.parallel import default_cache_dir

    return os.path.join(default_cache_dir(), "ledger.jsonl")


def ledger_enabled() -> bool:
    return os.environ.get(LEDGER_ENABLE_ENV, "1").lower() not in (
        "0", "off", "false", "no",
    )


def _default_max_entries() -> int:
    try:
        return max(1, int(os.environ.get(LEDGER_MAX_ENV, "")))
    except ValueError:
        return DEFAULT_MAX_ENTRIES


def validate_record(record: Dict) -> List[str]:
    """Schema violations of one ledger record (empty when valid)."""
    if not isinstance(record, dict):
        return ["record is not an object"]
    errors: List[str] = []
    for name, types in REQUIRED_FIELDS.items():
        if name not in record:
            errors.append(f"missing field {name!r}")
        elif (not isinstance(record[name], types)
              or isinstance(record[name], bool)):
            errors.append(
                f"field {name!r} is {type(record[name]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    schema = record.get("schema")
    if isinstance(schema, int) and schema > LEDGER_SCHEMA_VERSION:
        errors.append(f"schema {schema} is newer than supported "
                      f"{LEDGER_SCHEMA_VERSION}")
    return errors


def _line_errors(line: Optional[str]) -> List[str]:
    """Why one ledger line is corrupt (empty when it holds a valid
    record); ``None`` stands for a line that is not ASCII."""
    if line is None:
        return ["not ASCII"]
    try:
        record = json.loads(line)
    except ValueError as exc:
        return [f"not JSON ({exc})"]
    return validate_record(record)


def build_record(grid_spec: Dict, fingerprint: str, stats,
                 telemetry=None) -> Dict:
    """Assemble one ledger record from a finished sweep.

    ``stats`` is a :class:`~repro.sim.parallel.SweepRunStats`;
    ``telemetry`` (optional) contributes span rollups and the worker
    roster.  The record is pure observation: nothing in it feeds back
    into cache keys or fingerprints.
    """
    blob = json.dumps(grid_spec, sort_keys=True, separators=(",", ":"))
    spec_digest = hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]
    now = time.time()
    run_id = hashlib.sha256(
        f"{spec_digest}:{now:.6f}:{os.getpid()}".encode("ascii")
    ).hexdigest()[:12]
    record = {
        "schema": LEDGER_SCHEMA_VERSION,
        "run_id": run_id,
        "ts": round(now, 3),
        "spec_digest": spec_digest,
        "grid": grid_spec,
        "fingerprint": fingerprint[:16],
        "workers": stats.workers,
        "points": stats.points,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "cache_evictions": stats.cache_evictions,
        "resumed_points": stats.resumed_points,
        "simulated": stats.simulated,
        "retried": stats.retried,
        "wall_seconds": round(stats.wall_seconds, 6),
        "points_per_sec": round(stats.points_per_sec, 3),
        "hit_rate": round(stats.hit_rate, 4),
        "spans": telemetry.rollups() if telemetry is not None else {},
        "host": {
            "node": platform.node(),
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
            "platform": sys.platform,
        },
    }
    return record


class RunLedger:
    """Schema-versioned JSONL ledger with rotation and recovery."""

    def __init__(self, path: Optional[str] = None,
                 max_entries: Optional[int] = None):
        self.path = path or default_ledger_path()
        self.max_entries = (max_entries if max_entries is not None
                            else _default_max_entries())
        if self.max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {self.max_entries}")
        #: lines discarded as corrupt by the last read
        self.corrupt_dropped = 0

    # ------------------------------------------------------------------

    def _lines(self) -> Iterator[Tuple[int, Optional[str]]]:
        """``(line number, text)`` of every non-blank line, decoded one
        line at a time; ``text`` is ``None`` for a line that is not
        ASCII, so one torn write cannot hide the lines around it."""
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("ascii").strip()
                except UnicodeDecodeError:
                    yield lineno, None
                    continue
                if line:
                    yield lineno, line

    def _read_lines(self) -> List[str]:
        """Raw lines whose records parse and validate; drops the rest."""
        self.corrupt_dropped = 0
        kept: List[str] = []
        try:
            for _lineno, line in self._lines():
                if _line_errors(line):
                    self.corrupt_dropped += 1
                else:
                    kept.append(line)
        except OSError:
            pass
        return kept

    def entries(self) -> List[Dict]:
        """Every valid record, oldest first."""
        return [json.loads(line) for line in self._read_lines()]

    def append(self, record: Dict) -> None:
        """Append one record, rotating to the newest ``max_entries``.

        Read-modify-replace through a temp file: a crash mid-append
        leaves the previous complete ledger, and a corrupt tail from an
        earlier crash is healed (dropped) by the rewrite.
        """
        errors = validate_record(record)
        if errors:
            raise ValueError(f"refusing to append invalid record: "
                             f"{'; '.join(errors)}")
        lines = self._read_lines()
        lines.append(json.dumps(record, sort_keys=True,
                                separators=(",", ":")))
        lines = lines[-self.max_entries:]
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        tmp = self.path + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
        os.replace(tmp, self.path)

    def validate(self) -> Tuple[int, List[str]]:
        """Validate the whole file; returns (valid rows, errors)."""
        errors: List[str] = []
        rows = 0
        try:
            for lineno, line in self._lines():
                line_errors = _line_errors(line)
                if line_errors:
                    errors.extend(
                        f"line {lineno}: {msg}" for msg in line_errors
                    )
                else:
                    rows += 1
        except FileNotFoundError:
            errors.append(f"no ledger at {self.path}")
        except OSError as exc:
            errors.append(f"cannot read {self.path}: {exc.strerror}")
        return rows, errors[:20]

    # ------------------------------------------------------------------

    def resolve(self, ref: str) -> Dict:
        """A record by signed index (``-1`` = newest) or run-id prefix.

        A ref that parses as an in-range index is an index; any other
        ref, including an all-digit run-id prefix such as ``"875491"``,
        is matched as a prefix.
        """
        records = self.entries()
        if not records:
            raise LookupError(f"ledger {self.path} holds no runs")
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None and -len(records) <= index < len(records):
            return records[index]
        matches = [r for r in records if r["run_id"].startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if index is not None and not matches:
            raise LookupError(
                f"index {index} out of range for {len(records)} records"
            )
        raise LookupError(
            f"run id {ref!r} matches {len(matches)} ledger records"
        )


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------


#: Headline scalars diffed between two records (name, lower-is-better).
_DIFF_FIELDS: Tuple[Tuple[str, bool], ...] = (
    ("wall_seconds", True),
    ("points_per_sec", False),
    ("hit_rate", False),
    ("simulated", True),
    ("cache_evictions", True),
)


def diff_records(a: Dict, b: Dict,
                 threshold: float = 0.2) -> Tuple[List[str], List[str]]:
    """Compare run ``b`` against baseline ``a``.

    Returns ``(report_lines, failures)``: the lines render the headline
    and per-span deltas; a failure is recorded when throughput drops --
    or the total of a shared span grows -- by more than ``threshold``
    (a fraction, e.g. ``0.2`` for 20%).
    """
    lines: List[str] = []
    failures: List[str] = []
    lines.append(f"baseline A: {a.get('run_id', '?')} "
                 f"(workers={a.get('workers')}, points={a.get('points')})")
    lines.append(f"candidate B: {b.get('run_id', '?')} "
                 f"(workers={b.get('workers')}, points={b.get('points')})")
    lines.append(f"{'metric':<22} {'A':>12} {'B':>12} {'delta':>9}")
    for field, lower_better in _DIFF_FIELDS:
        va, vb = a.get(field), b.get(field)
        if va is None or vb is None:
            continue
        delta = (vb - va) / va if va else 0.0
        lines.append(f"{field:<22} {va:>12.3f} {vb:>12.3f} "
                     f"{delta:>+8.1%}")
        if field == "points_per_sec" and va and vb < va * (1 - threshold):
            failures.append(
                f"points_per_sec regressed {-delta:.0%} "
                f"(> {threshold:.0%} threshold)"
            )
    spans_a = a.get("spans") or {}
    spans_b = b.get("spans") or {}
    shared = sorted(set(spans_a) & set(spans_b))
    if shared:
        lines.append("")
        lines.append(f"{'span':<22} {'A total_s':>12} {'B total_s':>12} "
                     f"{'delta':>9}")
        for name in shared:
            ta = spans_a[name].get("total_s", 0.0)
            tb = spans_b[name].get("total_s", 0.0)
            delta = (tb - ta) / ta if ta else 0.0
            lines.append(f"{name:<22} {ta:>12.3f} {tb:>12.3f} "
                         f"{delta:>+8.1%}")
            if ta > 0.01 and tb > ta * (1 + threshold):
                failures.append(
                    f"span {name} grew {delta:.0%} "
                    f"(> {threshold:.0%} threshold)"
                )
    only_a = sorted(set(spans_a) - set(spans_b))
    only_b = sorted(set(spans_b) - set(spans_a))
    if only_a:
        lines.append(f"spans only in A: {', '.join(only_a)}")
    if only_b:
        lines.append(f"spans only in B: {', '.join(only_b)}")
    return lines, failures


def format_entries(records: Sequence[Dict]) -> str:
    """Aligned listing for ``repro.cli ledger``."""
    lines = [
        f"{'run_id':<13} {'when':<20} {'wkrs':>4} "
        f"{'points':>6} {'hits':>5} {'sim':>5} {'wall_s':>8} {'pts/s':>8}"
    ]
    for record in records:
        when = time.strftime("%Y-%m-%d %H:%M:%S",
                             time.localtime(record["ts"]))
        lines.append(
            f"{record['run_id']:<13} {when:<20} {record['workers']:>4} "
            f"{record['points']:>6} "
            f"{record['cache_hits']:>5} {record['simulated']:>5} "
            f"{record['wall_seconds']:>8.2f} "
            f"{record['points_per_sec']:>8.2f}"
        )
    return "\n".join(lines)
