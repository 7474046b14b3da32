"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run <benchmark> [--trace N] [--profile]``
    Boot the machine, run one benchmark, print outcome and counters.
    ``--trace`` keeps a bounded instruction trace and prints the last N
    instructions after the run.  ``--profile`` runs through the block
    translator with profiling armed and prints the execution profile
    (interpreted vs translated split, per-op interpreter dispatches,
    translator statistics; :mod:`repro.microarch.profile`).
``list``
    List the 13 benchmarks with their inputs and characteristics.
``inject <benchmark> [-n FAULTS] [-j JOBS] [--journal DIR] [--resume]``
    Fault-injection campaign for one benchmark; prints the AVF breakdown,
    FIT prediction, a telemetry summary, and (with fault-lifetime events,
    on by default) a fault-propagation table.  ``--jobs`` fans injections
    out over worker processes (0 = one per core) with bit-identical
    results.  ``--journal`` records every completed injection in an
    append-only JSONL journal; ``--resume`` replays it so a killed
    campaign continues where it stopped.  ``--timeout``/``--retries``
    bound stuck or worker-killing faults.  ``--no-early-exit`` disables
    the provably-sound early Masked terminations (golden-digest
    convergence and dead-cell short-circuits) - the effects are
    bit-identical either way, so the flag exists only for benchmarking
    and auditing.  ``--no-translate`` selects the reference engine - the
    per-instruction interpreter with full-sweep restores instead of the
    basic-block translator with copy-on-write restores
    (``docs/PERFORMANCE.md``) - with bit-identical effects, and
    ``--profile`` prints (and, with ``--metrics``, exports) the execution
    profile.  ``--no-events`` disables fault-lifetime event
    recording; ``--trace-on-crash N`` attaches the last N instructions to
    Crash-classified journal records; ``--metrics PATH`` exports the
    telemetry summary as machine-readable JSON
    (:mod:`repro.observability.metrics` schema).  ``--target-margin M``
    switches to the adaptive campaign
    (:mod:`repro.injection.adaptive`): ``-n`` is ignored and injections
    run batch by batch (``--batch-size``, between ``--min-faults`` and
    ``--max-faults`` per stratum, at ``--confidence``) until every
    component's AVF margin and class-rate Wilson half-widths are within
    M; an achieved-margins table and the savings against a fixed plan
    are printed after the breakdown.  Full reference: ``docs/CLI.md``.
    ``--fabric URL`` submits the campaign to a fabric coordinator
    instead of running it locally: the golden run still happens here (it
    anchors the spec), the injections run on whatever workers are
    attached, and the printed result is bit-identical to a local run.
    ``--trace-spans PATH`` arms structured tracing and flushes the span
    JSONL there; ``--metrics-port N`` serves a live Prometheus
    ``/metrics`` exposition of the local campaign's telemetry.
``serve [--store PATH] [--port N]``
    Run a fabric coordinator: accepts campaign submissions, shards their
    deterministic fault streams into index-window leases over HTTP/JSON,
    dedups faults against the shared sqlite fault store, and commits
    every completed injection's record to that store - the fabric's one
    durable record.  Kill it and restart it freely - campaigns resume
    from the store with zero re-executed faults.  Exposes ``GET
    /metrics`` (Prometheus text) and ``POST /heartbeat``; ``--log-json``
    swaps stderr prints for one structured JSON line per request,
    ``--trace-spans`` writes a span JSONL per campaign next to the store.
``work <coordinator-url> [--name NAME]``
    Run a fabric worker: lease fault-index windows from the coordinator,
    rebuild the campaign's machine image locally, inject through the
    fast path, report the records back.  Start as many as you like, on
    as many hosts as share the package.  Workers heartbeat host stats to
    the coordinator; ``--log-json`` emits structured JSON logs.
``top <coordinator-url> [--interval SEC]``
    Live fabric dashboard: polls ``/status`` + ``/metrics`` and redraws
    per-campaign progress bars, per-worker throughput, and stale-worker
    warnings in place (no curses).
``stats <journal-file-or-dir-or-store> [--metrics PATH]``
    Rebuild campaign telemetry from one journal (or every ``*.jsonl``
    journal under a directory, or every campaign in a fabric fault
    store) and print the telemetry and fault-propagation tables - no
    simulation, pure replay.
``beam <benchmark> [--hours H]``
    Simulated beam campaign for one benchmark; prints FIT rates with
    confidence intervals.
``report [table1|...|fig10|counters|rawfit|all]``
    Regenerate paper tables/figures (campaigns are disk-cached).
``disasm <benchmark>``
    Disassemble a benchmark's text segment.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.avf import avf_breakdown
from repro.analysis.fit_model import injection_fit
from repro.analysis.report import (
    adaptive_margins_table,
    calibration_table,
    propagation_table,
    telemetry_table,
)
from repro.beam.experiment import BeamCampaignConfig, BeamExperiment
from repro.errors import ConfigurationError
from repro.experiments import get_context
from repro.injection.adaptive import AdaptiveCampaign, fixed_equivalent_faults
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.classify import FaultEffect
from repro.injection.sampling import Z_SCORES
from repro.injection.telemetry import CampaignTelemetry
from repro.isa.disassembler import disassemble
from repro.kernel.layout import DEFAULT_LAYOUT
from repro.microarch.system import System
from repro.workloads import MIBENCH_SUITE, get_workload


def _cmd_list(_args) -> int:
    width = max(len(name) for name in MIBENCH_SUITE)
    for name, workload in MIBENCH_SUITE.items():
        print(
            f"{name.ljust(width)}  {workload.scaled_input:45s} "
            f"{workload.characteristics.describe()}"
        )
    return 0


def _cmd_run(args) -> int:
    workload = get_workload(args.benchmark)
    system = System(workload.program(DEFAULT_LAYOUT))
    tracer = None
    if args.trace:
        from repro.microarch.trace import InstructionTrace

        tracer = InstructionTrace(args.trace)
    translator = None
    if args.profile:
        from repro.microarch.profile import enable_op_counts
        from repro.microarch.translate import attach_translator

        # Traced runs run without the translator, so a combined
        # --trace --profile run reports everything as interpreted.
        translator = attach_translator(system, profile=True)
        enable_op_counts(system.core)
    result = system.run(
        max_cycles=200_000_000,
        trace=tracer.hook if tracer is not None else None,
    )
    matches = result.output == workload.reference_output()
    print(f"outcome : {result.outcome}")
    print(f"output  : {len(result.output)} bytes, "
          f"{'matches oracle' if matches else 'MISMATCH'}")
    print(f"cycles  : {result.cycles:,}  "
          f"instructions: {result.counters.instructions:,}")
    for name, value in result.counters.paper_counters().items():
        print(f"  {name:15s} {value:>12,}")
    if tracer is not None:
        print(f"trace   : last {min(args.trace, len(tracer.records))} "
              f"instruction(s)")
        print(tracer.format_tail(args.trace))
    if args.profile:
        from repro.microarch.profile import execution_profile, format_profile

        print(format_profile(execution_profile(system.core, translator)))
    return 0 if matches and result.exited_cleanly else 1


def _cmd_inject(args) -> int:
    from pathlib import Path

    if args.resume and not args.journal:
        print("error: --resume requires --journal DIR", file=sys.stderr)
        return 2
    if args.fabric and (args.journal or args.resume):
        print("error: --fabric campaigns are recorded in the coordinator's "
              "fault store; drop --journal/--resume", file=sys.stderr)
        return 2
    if args.fabric and args.target_margin is not None:
        print("error: adaptive campaigns (--target-margin) are not "
              "fabric-aware yet; run them locally", file=sys.stderr)
        return 2
    if args.profile and args.fabric:
        print("error: --profile observes the in-process machine; it cannot "
              "profile fabric workers (drop --fabric)", file=sys.stderr)
        return 2
    if args.learned_sampling and args.target_margin is None:
        print("error: --learned-sampling steers the adaptive engine; it "
              "needs --target-margin", file=sys.stderr)
        return 2
    if args.metrics_port is not None and args.fabric:
        print("error: --metrics-port exports the local campaign's registry; "
              "a fabric coordinator already serves /metrics (drop one)",
              file=sys.stderr)
        return 2
    jobs = args.jobs
    if args.profile and jobs != 1:
        print("  .. --profile forces -j 1 (the profiled machine must run "
              "in this process)", file=sys.stderr)
        jobs = 1
    workload = get_workload(args.benchmark)
    telemetry = CampaignTelemetry()
    config = CampaignConfig(
        faults_per_component=args.faults,
        confidence=args.confidence,
        jobs=jobs,
        injection_timeout=args.timeout,
        max_retries=args.retries,
        early_exit=not args.no_early_exit,
        digest_probes=args.digest_probes,
        lifetime_events=not args.no_events,
        trace_on_crash=args.trace_on_crash,
        translate=not args.no_translate,
        profile=args.profile,
        target_margin=args.target_margin,
        batch_size=args.batch_size,
        min_faults=args.min_faults,
        max_faults=args.max_faults,
        learned_sampling=args.learned_sampling,
    )
    tracer = None
    if args.trace_spans:
        from repro.observability.tracing import Tracer

        tracer = Tracer()
    metrics_server = None
    registry = None
    if args.metrics_port is not None:
        from repro.observability.metrics import (
            MetricsRegistry,
            start_metrics_server,
            telemetry_collector,
        )

        registry = MetricsRegistry()
        registry.register_collector(
            telemetry_collector(telemetry, campaign=workload.name)
        )
        metrics_server = start_metrics_server(registry, port=args.metrics_port)
        print(f"  .. metrics on http://{metrics_server.server_address[0]}:"
              f"{metrics_server.server_address[1]}/metrics", file=sys.stderr)
    campaign = None
    try:
        if args.fabric:
            from repro.fabric import FabricClient

            client = FabricClient(
                args.fabric,
                progress=lambda message: print(f"  .. {message}",
                                               file=sys.stderr),
                tracer=tracer,
            )
            result = client.run_workload(workload, config)
        else:
            campaign_cls = (
                AdaptiveCampaign if args.target_margin is not None
                else InjectionCampaign
            )
            campaign = campaign_cls(
                config,
                progress=lambda message: print(f"  .. {message}",
                                               file=sys.stderr),
                journal_dir=Path(args.journal) if args.journal else None,
                resume=args.resume,
                telemetry=telemetry,
                tracer=tracer,
            )
            # A profile run must actually execute, so it bypasses the
            # campaign result cache in both directions.
            result = campaign.run_workload(
                workload, use_cache=not args.profile
            )
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
        if tracer is not None:
            flushed = tracer.flush(args.trace_spans)
            print(f"  .. trace spans appended to {flushed}", file=sys.stderr)
    if args.target_margin is not None:
        print(f"{workload.name}: adaptive to +/-{args.target_margin * 100:g}% "
              f"at {args.confidence * 100:g}% confidence "
              f"({result.golden_cycles:,} golden cycles)")
    else:
        print(f"{workload.name}: {args.faults} faults/component "
              f"({result.golden_cycles:,} golden cycles)")
    for cell in avf_breakdown(result):
        margin = result.components[cell.component].margin
        print(
            f"  {cell.component.label:14s} SDC {cell.sdc * 100:5.1f}%  "
            f"App {cell.app_crash * 100:5.1f}%  Sys {cell.sys_crash * 100:5.1f}%  "
            f"AVF {cell.avf * 100:5.1f}% (+/- {margin * 100:.1f}%)"
        )
    quarantined = sum(c.quarantined for c in result.components.values())
    if quarantined:
        print(f"  WARNING: {quarantined} fault(s) quarantined and excluded "
              f"from the tallies (see journal/progress log)")
    if args.target_margin is not None:
        diagnostics = campaign.diagnostics[workload.name]
        print(adaptive_margins_table(diagnostics))
        calibration = calibration_table(diagnostics)
        if calibration:
            print(calibration)
        fixed = sum(
            fixed_equivalent_faults(
                tally.population_bits, args.target_margin, args.confidence
            )
            for tally in result.components.values()
        )
        executed = diagnostics.total_executed
        if fixed and executed < fixed:
            print(f"  adaptive ran {executed} injections vs {fixed} for "
                  f"a fixed plan at the same target "
                  f"({100.0 * (1 - executed / fixed):.0f}% saved)")
    fits = injection_fit(result)
    print(f"  predicted FIT: SDC {fits.sdc:.2f}  App {fits.app_crash:.2f}  "
          f"Sys {fits.sys_crash:.2f}  total {fits.total:.2f}")
    profile = None
    if args.profile and campaign is not None:
        from repro.microarch.profile import format_profile

        profile = campaign.profiles.get(workload.name)
        if profile is not None:
            print(format_profile(profile))
    if telemetry.completed or telemetry.quarantined:
        summary = telemetry.summary()
        print(telemetry_table(summary))
        propagation = propagation_table(summary)
        if propagation:
            print(propagation)
        if args.metrics:
            if profile is not None:
                summary["profile"] = profile
            _export_metrics(
                args.metrics,
                summary,
                workload.name,
                registry=registry.snapshot() if registry is not None else None,
            )
    return 0


def _export_metrics(
    path: str,
    summary: dict,
    name: str,
    spans: list | None = None,
    registry: dict | None = None,
) -> None:
    from repro.observability.metrics import campaign_metrics, write_metrics

    written = write_metrics(
        path, campaign_metrics(summary, name, spans=spans, registry=registry)
    )
    print(f"metrics written to {written}", file=sys.stderr)


def _log_hooks(log_json: bool):
    """(progress, events) stderr hooks honouring ``--log-json``.

    With ``--log-json`` every request/lease/report becomes one structured
    JSON line on stderr and the human progress prints are suppressed;
    without it, progress prints stay and events go nowhere.
    """
    if log_json:
        from repro.observability.jsonlog import JsonLogger

        logger = JsonLogger(stream=sys.stderr)
        return (lambda message: None), logger
    progress = lambda message: print(f"  .. {message}", file=sys.stderr)
    return progress, None


def _cmd_serve(args) -> int:
    from repro.fabric import serve_forever
    from repro.fabric.protocol import FabricError

    progress, events = _log_hooks(args.log_json)
    try:
        serve_forever(
            args.store,
            host=args.host,
            port=args.port,
            lease_ttl=args.lease_ttl,
            lease_size=args.lease_size,
            worker_ttl=args.worker_ttl,
            trace=args.trace_spans,
            progress=progress,
            events=events,
        )
    except FabricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_work(args) -> int:
    from repro.fabric import FabricWorker

    progress, events = _log_hooks(args.log_json)
    worker = FabricWorker(
        args.coordinator,
        name=args.name,
        lease_count=args.lease_count,
        poll_interval=args.poll,
        progress=progress,
        events=events,
    )
    executed = worker.run(
        max_idle_polls=args.max_idle, max_windows=args.max_windows
    )
    # Parsed by the fabric smoke test to prove zero duplicated executions.
    print(f"{worker.name}: executed {executed} injection(s)")
    return 0


def _cmd_top(args) -> int:
    from repro.fabric import top

    try:
        return top(
            args.coordinator,
            interval=args.interval,
            frames=args.frames,
            plain=args.plain,
        )
    except KeyboardInterrupt:
        return 0


def _stored_campaigns(path):
    """``(campaign id, spec, injections, quarantines)`` per campaign of a
    fabric fault store: the rows its coordinator replays at activation."""
    from repro.fabric.protocol import CampaignSpec
    from repro.fabric.store import FaultStore, stored_records

    store = FaultStore(path)
    try:
        for campaign_id, payload in store.campaigns().items():
            spec = CampaignSpec.from_payload(payload)
            yield (campaign_id, spec, *stored_records(store, spec))
    finally:
        store.close()


def _cmd_stats(args) -> int:
    from pathlib import Path

    from repro.fabric.protocol import FabricError
    from repro.injection.journal import read_journal

    root = Path(args.journal)
    if root.is_dir():
        # Span logs (<campaign>.trace.jsonl) are not injection journals.
        paths = sorted(
            path for path in root.glob("*.jsonl")
            if not path.name.endswith(".trace.jsonl")
        )
        if not paths:
            print(f"error: no *.jsonl journals under {root}", file=sys.stderr)
            return 2
    elif root.exists():
        paths = [root]
    else:
        print(f"error: {root} does not exist", file=sys.stderr)
        return 2
    # A fault store is told by its header, not its name (``f.db``).
    with paths[0].open("rb") as head:
        is_store = head.read(16) == b"SQLite format 3\0"
    campaigns = (
        _stored_campaigns(root) if is_store
        else ((path.name, *read_journal(path)) for path in paths)
    )

    telemetry = CampaignTelemetry()
    try:
        for label, meta, records, quarantines in campaigns:
            print(f"{label}: {meta.workload} on {meta.machine}, "
                  f"{len(records)} injection(s), "
                  f"{len(quarantines)} quarantined")
            seen_components = {record.component for record in records}
            seen_components |= {record.component for record in quarantines}
            for component in sorted(seen_components, key=lambda c: c.name):
                telemetry.register_plan(component, meta.faults_per_component)
            telemetry.replay(records, quarantines)
    except FabricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = telemetry.summary()
    print(telemetry_table(summary))
    propagation = propagation_table(summary)
    if propagation:
        print(propagation)
    else:
        print("(no fault-lifetime events in the journal - campaign ran "
              "with events disabled, or predates them)")
    if args.metrics:
        _export_metrics(args.metrics, summary, root.stem or root.name)
    return 0


def _cmd_beam(args) -> int:
    workload = get_workload(args.benchmark)
    experiment = BeamExperiment(
        BeamCampaignConfig(beam_hours=args.hours),
        progress=lambda message: print(f"  .. {message}", file=sys.stderr),
    )
    result = experiment.run_workload(workload)
    print(f"{workload.name}: {args.hours:g} beam hours "
          f"({result.natural_years:,.0f} natural years, "
          f"{result.strikes_simulated}+{result.platform_strikes} strikes)")
    for effect in (FaultEffect.SDC, FaultEffect.APP_CRASH, FaultEffect.SYS_CRASH):
        low, high = result.fit_interval(effect)
        print(
            f"  {effect.label:9s} {result.errors(effect):4d} events  "
            f"{result.fit(effect):8.2f} FIT  (95% CI {low:.2f}-{high:.2f})"
        )
    return 0


def _cmd_report(args) -> int:
    from repro.experiments import (
        counters,
        fig3,
        fig4,
        fig5,
        fig6,
        fig7,
        fig8,
        fig9,
        fig10,
        rawfit,
        table1,
        table2,
        table3,
        table4,
    )

    drivers = {
        "table1": table1,
        "table2": table2,
        "table3": table3,
        "table4": table4,
        "fig3": fig3,
        "fig4": fig4,
        "fig5": fig5,
        "fig6": fig6,
        "fig7": fig7,
        "fig8": fig8,
        "fig9": fig9,
        "fig10": fig10,
        "counters": counters,
        "rawfit": rawfit,
    }
    names = list(drivers) if args.what == "all" else [args.what]
    context = get_context()
    for name in names:
        print(drivers[name].render(context))
        print()
    return 0


def _cmd_disasm(args) -> int:
    workload = get_workload(args.benchmark)
    program = workload.program(DEFAULT_LAYOUT)
    segment = program.segment("text")
    for line in disassemble(segment.data, base=segment.base):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Soft-error assessment on a simulated ARM-class CPU "
        "(DSN 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 13 benchmarks").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one benchmark")
    run.add_argument("benchmark")
    run.add_argument("--trace", type=int, default=0, metavar="N",
                     help="keep a bounded instruction trace and print the "
                     "last N instructions after the run (slower: records "
                     "every instruction)")
    run.add_argument("--profile", action="store_true",
                     help="run through the block translator with profiling "
                     "armed and print the execution profile: interpreted "
                     "vs translated instructions, per-op interpreter "
                     "dispatches, translator/chaining/superblock counters "
                     "and the translation-refusal histogram")
    run.set_defaults(func=_cmd_run)

    inject = sub.add_parser("inject", help="fault-injection campaign")
    inject.add_argument("benchmark")
    inject.add_argument("-n", "--faults", type=int, default=50,
                        help="faults per component (default 50)")
    inject.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes; 0 = one per CPU core "
                        "(default 1, results identical for any value)")
    inject.add_argument("--journal", metavar="DIR", default=None,
                        help="append every completed injection to a JSONL "
                        "journal under DIR (crash-safe record)")
    inject.add_argument("--resume", action="store_true",
                        help="replay an existing journal and dispatch only "
                        "the missing injections (requires --journal)")
    inject.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-injection wall-clock limit; a worker "
                        "stuck longer is killed and the fault retried")
    inject.add_argument("--retries", type=int, default=2,
                        help="re-dispatches of a fault whose worker died, "
                        "timed out or raised before it is quarantined "
                        "(default 2)")
    inject.add_argument("--no-early-exit", action="store_true",
                        help="disable early Masked termination (digest "
                        "convergence + dead-cell short-circuit); effects "
                        "are bit-identical either way")
    inject.add_argument("--digest-probes", type=int, default=24,
                        metavar="N",
                        help="evenly spaced golden-state digest probes "
                        "used for convergence detection (default 24)")
    inject.add_argument("--no-translate", action="store_true",
                        help="run the reference engine: the per-instruction "
                        "interpreter with full-sweep state restores instead "
                        "of the basic-block translator with copy-on-write "
                        "restores; effects are bit-identical either way (the "
                        "flag exists for benchmarking and equivalence audits)")
    inject.add_argument("--profile", action="store_true",
                        help="collect and print the execution profile "
                        "(per-op interpreter dispatches + translator "
                        "statistics); forces -j 1 and skips the campaign "
                        "cache so the injections actually execute; with "
                        "--metrics the profile rides along in the "
                        "envelope (incompatible with --fabric)")
    inject.add_argument("--no-events", action="store_true",
                        help="disable fault-lifetime event recording "
                        "(flip -> read/overwrite/evict -> divergence -> "
                        "outcome); observation-only, effects identical")
    inject.add_argument("--trace-on-crash", type=int, default=0,
                        metavar="N",
                        help="attach the last N executed instructions to "
                        "Crash-classified journal records (runs without "
                        "the translator; default off)")
    inject.add_argument("--metrics", metavar="PATH", default=None,
                        help="export the telemetry summary as "
                        "machine-readable JSON (repro-metrics schema)")
    inject.add_argument("--metrics-port", type=int, default=None,
                        metavar="N",
                        help="serve a live Prometheus-text /metrics "
                        "exposition of this campaign's telemetry on "
                        "127.0.0.1:N while it runs (0 = ephemeral port; "
                        "local campaigns only - a fabric coordinator "
                        "already serves /metrics)")
    inject.add_argument("--trace-spans", metavar="PATH", default=None,
                        help="arm structured tracing and append the span "
                        "records (JSONL, one span per line) to PATH when "
                        "the campaign finishes; observation-only, results "
                        "identical")
    inject.add_argument("--fabric", metavar="URL", default=None,
                        help="submit the campaign to a fabric coordinator "
                        "(repro serve) instead of injecting locally; the "
                        "result is bit-identical to a local run and "
                        "the records land in the coordinator's fault store "
                        "(incompatible with --journal/--resume/"
                        "--target-margin)")
    inject.add_argument("--target-margin", type=float, default=None,
                        metavar="M",
                        help="adaptive mode: ignore -n and inject batch by "
                        "batch until the AVF margin and every class rate's "
                        "Wilson half-width are within M (e.g. 0.02) at the "
                        "configured confidence; results are bit-identical "
                        "for any --jobs/--batch-size")
    inject.add_argument("--confidence", type=float, default=0.99,
                        choices=sorted(Z_SCORES),
                        help="confidence level for margins and intervals "
                        "(default 0.99)")
    inject.add_argument("--batch-size", type=int, default=50,
                        metavar="N",
                        help="adaptive mode: injections dispatched per "
                        "round, split across the strata still needing "
                        "precision (default 50; execution granularity "
                        "only, results identical)")
    inject.add_argument("--min-faults", type=int, default=20,
                        metavar="N",
                        help="adaptive mode: floor below which no stratum "
                        "is reported (default 20)")
    inject.add_argument("--max-faults", type=int, default=1000,
                        metavar="N",
                        help="adaptive mode: safety cap per stratum; a "
                        "stratum that cannot reach the target stops there "
                        "and is flagged (default 1000)")
    inject.add_argument("--learned-sampling",
                        action=argparse.BooleanOptionalAction,
                        default=False,
                        help="adaptive mode: train a Masked-outcome "
                        "predictor on each stratum's pilot and reorder the "
                        "remaining faults by predicted informativeness; "
                        "the stratified estimator keeps the AVF unbiased "
                        "and the result deterministic for any "
                        "--jobs/--batch-size (requires --target-margin; "
                        "default off)")
    inject.set_defaults(func=_cmd_inject)

    serve = sub.add_parser(
        "serve",
        help="run a fabric coordinator (distributed campaigns)",
    )
    serve.add_argument("--store", default=".repro_fabric/faults.sqlite",
                       metavar="PATH",
                       help="sqlite fault store shared by every campaign "
                       "on this coordinator "
                       "(default .repro_fabric/faults.sqlite)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1; use 0.0.0.0 "
                       "for cross-host workers)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (default 8765)")
    serve.add_argument("--lease-ttl", type=float, default=300.0,
                       metavar="SEC",
                       help="seconds a leased index window stays reserved "
                       "without a report before it is reclaimed and "
                       "re-issued (default 300)")
    serve.add_argument("--lease-size", type=int, default=8, metavar="N",
                       help="fault indices per lease window (default 8)")
    serve.add_argument("--worker-ttl", type=float, default=30.0,
                       metavar="SEC",
                       help="seconds without a heartbeat or report before "
                       "a worker is flagged stale in /status and /metrics "
                       "(monitoring only - lease reclaim handles "
                       "correctness; default 30)")
    serve.add_argument("--trace-spans", action="store_true",
                       help="arm structured tracing: write one span JSONL "
                       "per campaign (<campaign>.trace.jsonl next to the "
                       "store) covering submit, lease, worker window "
                       "and report spans")
    serve.add_argument("--log-json", action="store_true",
                       help="emit one structured JSON line per "
                       "submit/lease/report/heartbeat on stderr instead "
                       "of the human progress prints")
    serve.set_defaults(func=_cmd_serve)

    work = sub.add_parser(
        "work",
        help="run a fabric worker against a coordinator",
    )
    work.add_argument("coordinator",
                      help="coordinator URL, e.g. http://127.0.0.1:8765")
    work.add_argument("--name", default=None,
                      help="worker name shown in coordinator progress "
                      "(default host:pid)")
    work.add_argument("--poll", type=float, default=1.0, metavar="SEC",
                      help="idle poll interval (default 1.0)")
    work.add_argument("--lease-count", type=int, default=None, metavar="N",
                      help="fault indices requested per lease (default: "
                      "the coordinator's --lease-size)")
    work.add_argument("--max-idle", type=int, default=None, metavar="N",
                      help="exit after N consecutive idle polls "
                      "(default: poll forever)")
    work.add_argument("--max-windows", type=int, default=None, metavar="N",
                      help="exit after N leased windows (default: "
                      "unbounded)")
    work.add_argument("--log-json", action="store_true",
                      help="emit one structured JSON line per leased "
                      "window on stderr instead of the human progress "
                      "prints")
    work.set_defaults(func=_cmd_work)

    top = sub.add_parser(
        "top",
        help="live fabric dashboard (polls /status and /metrics)",
    )
    top.add_argument("coordinator",
                     help="coordinator URL, e.g. http://127.0.0.1:8765")
    top.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                     help="seconds between polls/redraws (default 2.0)")
    top.add_argument("--frames", type=int, default=None, metavar="N",
                     help="exit after N redraws (default: run until "
                     "interrupted)")
    top.add_argument("--plain", action="store_true",
                     help="append frames instead of clearing the screen "
                     "(dumb terminals, CI logs)")
    top.set_defaults(func=_cmd_top)

    stats = sub.add_parser(
        "stats",
        help="rebuild campaign telemetry from an injection journal or a "
        "fabric fault store",
    )
    stats.add_argument("journal",
                       help="journal file, directory of *.jsonl journals, "
                       "or fabric fault store")
    stats.add_argument("--metrics", metavar="PATH", default=None,
                       help="export the telemetry summary as "
                       "machine-readable JSON (repro-metrics schema)")
    stats.set_defaults(func=_cmd_stats)

    beam = sub.add_parser("beam", help="simulated beam campaign")
    beam.add_argument("benchmark")
    beam.add_argument("--hours", type=float, default=100.0,
                      help="effective beam hours (default 100)")
    beam.set_defaults(func=_cmd_beam)

    report = sub.add_parser("report", help="regenerate paper tables/figures")
    report.add_argument(
        "what",
        nargs="?",
        default="all",
        choices=[
            "all", "table1", "table2", "table3", "table4",
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "counters", "rawfit",
        ],
    )
    report.set_defaults(func=_cmd_report)

    disasm = sub.add_parser("disasm", help="disassemble a benchmark")
    disasm.add_argument("benchmark")
    disasm.set_defaults(func=_cmd_disasm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``repro stats ... | head``).
        # Point stdout at devnull so the interpreter's final flush does
        # not raise again on the way out.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
