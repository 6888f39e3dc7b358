"""Command-line interface for the reproduction.

Subcommands::

    python -m repro run --app tpcc --scheme MRAM-4TSB-WB
    python -m repro compare --app tpcc --mesh-width 8
    python -m repro table3
    python -m repro fig3 --app tpcc
    python -m repro sweep --apps tpcc,mcf --workers 4 --out sweep.json
    python -m repro sweep --apps tpcc --progress rich --trace-out tr.json
    python -m repro chaos --app tpcc --fault crc --verify-determinism
    python -m repro trace --app tpcc --out trace.jsonl --chrome trace.json
    python -m repro report --app tpcc
    python -m repro ledger
    python -m repro ledger diff -2 -1 --threshold 0.3
    python -m repro list

All experiment subcommands accept ``--mesh-width``, ``--capacity-scale``,
``--cycles``, ``--warmup`` and ``--seed``; ``run`` also accepts
``--json`` for machine-readable output.

Configuration errors (and any other typed ``ReproError``) exit with
status 2 and a one-line message on stderr rather than a traceback.

The simulator's own host speed is measured outside the package, by
``bench/run.py`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analysis.access_dist import distribution_for_app
from repro.analysis.tables import format_histogram, format_table
from repro.errors import ReproError
from repro.sim.config import ALL_SCHEMES, Scheme, make_config, parse_scheme
from repro.sim.experiment import app_factory, compare_schemes, run_scheme
from repro.workloads.benchmarks import (
    all_benchmarks, characterization_table,
)

_SCHEME_BY_NAME = {s.value: s for s in ALL_SCHEMES}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mesh-width", type=int, default=8)
    parser.add_argument("--capacity-scale", type=float, default=1 / 16)
    parser.add_argument("--cycles", type=int, default=2500)
    parser.add_argument("--warmup", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)


def _overrides(args) -> dict:
    return dict(mesh_width=args.mesh_width,
                capacity_scale=args.capacity_scale)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STT-RAM NoC reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scheme on one app")
    run_p.add_argument("--app", required=True)
    run_p.add_argument("--scheme", default=Scheme.STTRAM_4TSB_WB.value,
                       choices=sorted(_SCHEME_BY_NAME))
    run_p.add_argument("--json", action="store_true")
    _add_common(run_p)

    cmp_p = sub.add_parser("compare",
                           help="run all six schemes on one app")
    cmp_p.add_argument("--app", required=True)
    _add_common(cmp_p)

    sub.add_parser("table3", help="print the Table 3 characterisation")

    fig3_p = sub.add_parser("fig3",
                            help="print an app's Figure 3 histogram")
    fig3_p.add_argument("--app", required=True)
    _add_common(fig3_p)

    sweep_p = sub.add_parser(
        "sweep", help="run an apps x schemes grid (parallel + cached)")
    sweep_p.add_argument("--apps", required=True, metavar="A,B,...",
                         help="comma-separated application list")
    sweep_p.add_argument("--schemes", default=None, metavar="S,T,...",
                         help="comma-separated scheme labels "
                              "(default: all six)")
    sweep_p.add_argument("--workers", type=int, default=0,
                         help="process-pool size; 0 = one per CPU, "
                              "1 = serial (default: 0)")
    sweep_p.add_argument("--cache", default=True,
                         action=argparse.BooleanOptionalAction,
                         help="serve unchanged points from the "
                              "content-addressed result cache")
    sweep_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache location (default: "
                              "~/.cache/repro-sweeps or "
                              "$REPRO_SWEEP_CACHE_DIR)")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-point wall-clock budget")
    sweep_p.add_argument("--progress", nargs="?", const="plain",
                         default=None, choices=("plain", "rich"),
                         help="live progress: 'plain' prints one line "
                              "per point (CI-friendly), 'rich' renders "
                              "a rewritten status bar with ETA, worker "
                              "roster and straggler flags")
    sweep_p.add_argument("--telemetry", action="store_true",
                         help="record cross-worker spans and merged "
                              "worker metrics into the sweep metadata "
                              "(implied by --trace-out; --progress "
                              "alone keeps saved output telemetry-free)")
    sweep_p.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write the merged sweep Chrome trace "
                              "(one track per worker process)")
    sweep_p.add_argument("--ledger", default=True,
                         action=argparse.BooleanOptionalAction,
                         help="append this run to the persistent run "
                              "ledger (also disabled by REPRO_LEDGER=0)")
    sweep_p.add_argument("--ledger-path", default=None, metavar="PATH",
                         help="ledger file location (default: "
                              "$REPRO_LEDGER_DIR or the sweep cache "
                              "root, ledger.jsonl)")
    sweep_p.add_argument("--out", default=None, metavar="PATH",
                         help="write the sweep results JSON")
    sweep_p.add_argument("--expect-min-hits", type=float, default=None,
                         metavar="FRACTION",
                         help="exit nonzero when the cache hit rate "
                              "falls below this fraction (CI gate)")
    _add_common(sweep_p)

    chaos_p = sub.add_parser(
        "chaos", help="run one scheme under deterministic fault "
                      "injection with invariant guards enabled")
    chaos_p.add_argument("--app", default="tpcc")
    chaos_p.add_argument("--scheme", default=Scheme.STTRAM_4TSB_WB.value,
                         choices=sorted(_SCHEME_BY_NAME))
    chaos_p.add_argument("--fault", default="all",
                         choices=("crc", "tsb", "bank-port", "all"),
                         help="which fault model(s) to inject")
    chaos_p.add_argument("--fault-seed", type=int, default=7,
                         help="seed of the fault plane's RNG (a fixed "
                              "seed makes the run exactly reproducible)")
    chaos_p.add_argument("--crc-rate", type=float, default=0.005,
                         help="per-link-traversal corruption probability")
    chaos_p.add_argument("--bank-fail-duration", type=int, default=500,
                         help="bank-port outage length in cycles "
                              "(0 = permanent)")
    chaos_p.add_argument("--json", action="store_true")
    chaos_p.add_argument("--expect-retransmits", type=int, default=None,
                         metavar="N",
                         help="exit nonzero when fewer than N "
                              "retransmissions happened (CI gate)")
    chaos_p.add_argument("--verify-determinism", action="store_true",
                         help="run twice and require byte-identical "
                              "results")
    _add_common(chaos_p)

    trace_p = sub.add_parser(
        "trace", help="run one scheme with event tracing enabled")
    trace_p.add_argument("--app", required=True)
    trace_p.add_argument("--scheme", default=Scheme.STTRAM_4TSB_WB.value,
                         choices=sorted(_SCHEME_BY_NAME))
    trace_p.add_argument("--out", default="trace.jsonl", metavar="PATH",
                         help="JSONL event log destination")
    trace_p.add_argument("--chrome", default=None, metavar="PATH",
                         help="also write a Chrome/Perfetto trace file")
    trace_p.add_argument("--validate", action="store_true",
                         help="re-read the JSONL and check it against "
                              "the event schema")
    trace_p.add_argument("--epoch", type=_positive_int, default=256,
                         help="epoch sampler period in cycles")
    _add_common(trace_p)

    report_p = sub.add_parser(
        "report", help="run one scheme and print the observability report")
    report_p.add_argument("--app", required=True)
    report_p.add_argument("--scheme", default=Scheme.STTRAM_4TSB_WB.value,
                          choices=sorted(_SCHEME_BY_NAME))
    report_p.add_argument("--epoch", type=_positive_int, default=256,
                          help="epoch sampler period in cycles")
    _add_common(report_p)

    ledger_p = sub.add_parser(
        "ledger", help="inspect the persistent sweep run ledger")
    ledger_p.add_argument("action", nargs="?", default="list",
                          choices=("list", "diff", "validate"),
                          help="list recent runs, diff two runs, or "
                               "validate every ledger row")
    ledger_p.add_argument("refs", nargs="*", metavar="REF",
                          help="for diff: two run refs (run-id prefix "
                               "or signed index, -1 = latest)")
    ledger_p.add_argument("--path", default=None, metavar="PATH",
                          help="ledger file (default: "
                               "$REPRO_LEDGER_DIR or the sweep cache "
                               "root, ledger.jsonl)")
    ledger_p.add_argument("--limit", type=_positive_int, default=20,
                          help="rows shown by list (default 20)")
    ledger_p.add_argument("--spec", default=None, metavar="PREFIX",
                          help="list filter: grid spec digest prefix")
    ledger_p.add_argument("--threshold", type=float, default=0.2,
                          metavar="FRACTION",
                          help="regression threshold for diff "
                               "(default 0.2 = 20%%)")

    sub.add_parser("list", help="list benchmarks and schemes")
    return parser


def _cmd_run(args) -> int:
    scheme = _SCHEME_BY_NAME[args.scheme]
    result = run_scheme(
        scheme, app_factory(args.app, seed=args.seed),
        cycles=args.cycles, warmup=args.warmup, **_overrides(args),
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    summary = result.to_dict()
    rows = [[k, round(v, 4) if isinstance(v, float) else v]
            for k, v in summary.items() if not isinstance(v, dict)]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.app} under {scheme.value}"))
    return 0


def _cmd_compare(args) -> int:
    comparison = compare_schemes(
        app_factory(args.app, seed=args.seed), args.app,
        cycles=args.cycles, warmup=args.warmup, **_overrides(args),
    )
    throughput = comparison.normalized_throughput()
    energy = comparison.normalized_energy()
    rows = []
    for scheme in ALL_SCHEMES:
        result = comparison.results[scheme]
        rows.append([
            scheme.value, round(throughput[scheme], 3),
            round(result.avg_bank_queue_wait, 1),
            round(result.avg_packet_latency, 1),
            round(energy[scheme], 3),
        ])
    print(format_table(
        ["scheme", "throughput", "bank queue", "pkt latency", "energy"],
        rows, title=f"{args.app}: normalised to SRAM-64TSB"))
    return 0


def _cmd_table3(_args) -> int:
    rows = characterization_table()
    headers = list(rows[0].keys())
    print(format_table(headers,
                       [[r[h] for h in headers] for r in rows],
                       title="Table 3: application characterisation"))
    return 0


def _cmd_fig3(args) -> int:
    dist = distribution_for_app(
        args.app, mesh_width=args.mesh_width,
        capacity_scale=args.capacity_scale, cycles=args.cycles,
        warmup=args.warmup,
    )
    labels = ["<16", "<33", "<66", "<99", "<132", "<165", "165+"]
    print(format_histogram(
        labels, dist.percentages,
        title=f"{args.app}: gaps after a same-bank write "
              f"(queued {100 * dist.queued_fraction():.1f}%)"))
    return 0


def _cmd_sweep(args) -> int:
    from repro.sim.parallel import SweepRunStats, resolve_workers
    from repro.sim.sweep import SweepGrid, run_sweep

    apps = [a for a in args.apps.split(",") if a]
    if args.schemes:
        schemes = tuple(
            parse_scheme(s) for s in args.schemes.split(",") if s
        )
    else:
        schemes = ALL_SCHEMES

    grid = SweepGrid(apps=apps, schemes=schemes, cycles=args.cycles,
                     warmup=args.warmup, seed=args.seed,
                     overrides=_overrides(args))
    telemetry = None
    if args.telemetry or args.trace_out or args.progress:
        from repro.obs.progress import ProgressRenderer
        from repro.obs.telemetry import SweepTelemetry

        telemetry = SweepTelemetry()
        if args.progress:
            telemetry.progress = ProgressRenderer(mode=args.progress)
    stats = SweepRunStats()
    sweep = run_sweep(
        grid, workers=args.workers, cache=args.cache,
        cache_dir=args.cache_dir, timeout=args.timeout, stats=stats,
        telemetry=telemetry, ledger=args.ledger,
        ledger_path=args.ledger_path,
    )
    if telemetry is not None and not (args.telemetry or args.trace_out):
        # --progress alone is a live display, not a telemetry request:
        # the saved JSON must stay identical to a progress-less run
        # (CI byte-compares warm replays against it).
        sweep.meta.pop("telemetry", None)

    throughput = sweep.normalized("instruction_throughput",
                                  baseline=Scheme.SRAM_64TSB.value)
    rows = [
        [app] + [round(throughput[app][s], 3) for s in sweep.schemes()]
        for app in sweep.apps()
    ]
    print(format_table(["app"] + sweep.schemes(), rows,
                       title="throughput normalised to SRAM-64TSB"))
    print(
        f"{stats.points} points in {stats.wall_seconds:.2f}s "
        f"({stats.points_per_sec:.2f} points/sec) -- "
        f"workers={resolve_workers(args.workers)} "
        f"hits={stats.cache_hits} misses={stats.cache_misses} "
        f"simulated={stats.simulated} retried={stats.retried} "
        f"evictions={stats.cache_evictions} "
        f"utilization={stats.utilization:.0%}"
    )
    if telemetry is not None:
        rollups = telemetry.rollups()
        spanned = sum(r["total_s"] for name, r in rollups.items()
                      if name == "sweep.run")
        print(f"telemetry: {len(telemetry.spans())} spans from "
              f"{max(1, len(telemetry.workers()))} worker(s), "
              f"sweep.run {spanned:.2f}s")
    if args.trace_out:
        telemetry.write_chrome(args.trace_out)
        print(f"wrote {args.trace_out} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    if args.out:
        sweep.save(args.out)
        print(f"wrote {args.out}")
    if args.expect_min_hits is not None:
        if stats.hit_rate < args.expect_min_hits:
            print(
                f"CACHE MISS RATE TOO HIGH: hit rate {stats.hit_rate:.0%}"
                f" < required {args.expect_min_hits:.0%}",
                file=sys.stderr,
            )
            return 1
        print(f"cache hit rate {stats.hit_rate:.0%} >= "
              f"{args.expect_min_hits:.0%}")
    return 0


def _chaos_fault_config(args, config):
    """Build the FaultConfig for the chaos subcommand's fault choice."""
    from repro.resilience import FaultConfig

    fire_at = max(1, args.warmup // 2)
    kwargs = dict(seed=args.fault_seed)
    if args.fault in ("crc", "all"):
        kwargs["crc_rate"] = args.crc_rate
    if args.fault in ("tsb", "all"):
        kwargs["tsb_failures"] = ((0, fire_at),)
    if args.fault in ("bank-port", "all"):
        duration = args.bank_fail_duration or None
        kwargs["bank_port_failures"] = (
            (config.n_banks // 2, fire_at, duration),
        )
    return FaultConfig(**kwargs)


def _cmd_chaos(args) -> int:
    from repro.noc.packet import reset_packet_ids
    from repro.sim.simulator import CMPSimulator

    scheme = _SCHEME_BY_NAME[args.scheme]
    config = make_config(scheme, **_overrides(args))
    faults = _chaos_fault_config(args, config)

    def one_run():
        reset_packet_ids()
        workload = app_factory(args.app, seed=args.seed)(config)
        sim = CMPSimulator(config, workload, guard=True, faults=faults)
        result = sim.run(args.cycles, warmup=args.warmup)
        return sim, result

    sim, result = one_run()
    payload = {
        "app": args.app,
        "scheme": scheme.value,
        "fault": args.fault,
        "faults": sim.fault_plane.report(),
        "guard": sim.guard.report(),
        "result": result.to_dict(),
    }

    if args.verify_determinism:
        _sim2, result2 = one_run()
        identical = result.to_dict() == result2.to_dict()
        payload["deterministic"] = identical
        if not identical:
            print("DETERMINISM VIOLATION: two runs with the same fault "
                  "seed diverged", file=sys.stderr)
            return 1

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        fp = payload["faults"]
        print(format_table(
            ["counter", "value"],
            [[k, v] for k, v in sorted(fp.items())
             if not isinstance(v, dict)],
            title=f"{args.app} under {scheme.value} "
                  f"(fault={args.fault}, seed={args.fault_seed})"))
        print(f"guard: {payload['guard']['checks_run']} checks, "
              f"{payload['guard']['violations']} violations")
        if args.verify_determinism:
            print("determinism verified: two runs byte-identical")

    if args.expect_retransmits is not None:
        got = payload["faults"]["retransmits"]
        if got < args.expect_retransmits:
            print(f"TOO FEW RETRANSMITS: {got} < required "
                  f"{args.expect_retransmits}", file=sys.stderr)
            return 1
    return 0


def _instrumented_run(args, obs):
    """Build, attach and run one instrumented simulation."""
    from repro.noc.packet import reset_packet_ids
    from repro.sim.simulator import CMPSimulator

    reset_packet_ids()
    scheme = _SCHEME_BY_NAME[args.scheme]
    config = make_config(scheme, **_overrides(args))
    workload = app_factory(args.app, seed=args.seed)(config)
    sim = CMPSimulator(config, workload)
    obs.attach(sim)
    result = sim.run(args.cycles, warmup=args.warmup)
    return sim, result


def _cmd_trace(args) -> int:
    from repro.obs import (
        ChromeTraceSink, JSONLSink, Observability, validate_jsonl,
    )

    obs = Observability(epoch=args.epoch)
    jsonl = JSONLSink(args.out)
    obs.add_sink(jsonl)
    chrome = None
    if args.chrome:
        chrome = ChromeTraceSink()
        obs.add_sink(chrome)

    _sim, result = _instrumented_run(args, obs)
    obs.close()
    print(f"wrote {jsonl.events_written} events to {args.out}")
    if chrome is not None:
        chrome.write(args.chrome)
        print(f"wrote {len(chrome)} trace slices to {args.chrome} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    summary = result.to_dict()
    print(f"measured {summary['cycles']} cycles, "
          f"{summary['packets_delivered']} packets delivered, "
          f"p99 latency {summary['latency_p99']:.0f} cycles")

    if args.validate:
        rows, errors = validate_jsonl(args.out)
        if errors:
            for error in errors:
                print(f"SCHEMA VIOLATION: {error}", file=sys.stderr)
            return 1
        print(f"validated {rows} rows against the event schema")
    return 0


def _cmd_report(args) -> int:
    from repro.obs import Observability
    from repro.obs.report import render_report

    obs = Observability(epoch=args.epoch)
    _sim, result = _instrumented_run(args, obs)
    print(render_report(result.to_dict(), obs, args.mesh_width))
    return 0


def _cmd_ledger(args) -> int:
    from repro.obs.ledger import RunLedger, diff_records, format_entries

    ledger = RunLedger(path=args.path)

    if args.action == "validate":
        rows, errors = ledger.validate()
        for error in errors:
            print(f"LEDGER VIOLATION: {error}", file=sys.stderr)
        print(f"{rows} valid record(s) in {ledger.path}")
        return 1 if errors else 0

    if args.action == "diff":
        if len(args.refs) != 2:
            print("error: ledger diff needs exactly two refs "
                  "(run-id prefix or signed index, -1 = latest)",
                  file=sys.stderr)
            return 2
        try:
            a = ledger.resolve(args.refs[0])
            b = ledger.resolve(args.refs[1])
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines, failures = diff_records(a, b, threshold=args.threshold)
        print("\n".join(lines))
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1 if failures else 0

    records = ledger.entries()
    if args.spec:
        records = [r for r in records
                   if r["spec_digest"].startswith(args.spec)]
    if not records:
        print(f"no matching runs in {ledger.path}")
        return 0
    print(format_entries(records[-args.limit:]))
    if ledger.corrupt_dropped:
        print(f"({ledger.corrupt_dropped} corrupt line(s) skipped)",
              file=sys.stderr)
    return 0


def _cmd_list(_args) -> int:
    print("schemes:")
    for scheme in ALL_SCHEMES:
        print(f"  {scheme.value}")
    print("benchmarks:")
    for spec in all_benchmarks():
        kind = "bursty" if spec.bursty else "calm"
        print(f"  {spec.name:12s} [{spec.suite}] "
              f"l1mpki={spec.l1mpki:<7} {kind}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "table3": _cmd_table3,
    "fig3": _cmd_fig3,
    "sweep": _cmd_sweep,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "ledger": _cmd_ledger,
    "list": _cmd_list,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        # Typed simulator/config errors are user errors, not crashes:
        # one line on stderr and a distinct exit status.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
