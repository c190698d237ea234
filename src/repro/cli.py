"""Command-line interface: run and inspect the paper's experiments.

Usage::

    python -m repro list                    # all experiments
    python -m repro info FIG4               # one experiment's description
    python -m repro run FIG4 [--seed N]     # regenerate an artefact
    python -m repro campaign [--csv out.csv] [--trace out.jsonl] [--quiet]
    python -m repro campaign --report out.html   # + health report (HTML + JSON)
    python -m repro stats [--seed N]        # campaign timing + metric summary
    python -m repro trace summary run.jsonl # inspect an exported trace
    python -m repro trace diff a.jsonl b.jsonl
    python -m repro report [--out out.html] # campaign health report
    python -m repro report --experiments    # legacy markdown experiment report
    python -m repro sweep run spec.json --dir sweep/   # dependability sweep
    python -m repro sweep resume --dir sweep/          # finish unfinished cells
    python -m repro sweep report --dir sweep/ --out sweep.html
    python -m repro calibration             # print the acceptance bands
    python -m repro lint [paths...]         # domain lint (RPR rules + baseline)
    python -m repro lint --deep             # + cross-module RNG flow pass
    python -m repro lint --prune-baseline   # drop stale baseline entries
    python -m repro lint --experiments      # static experiment validation
    python -m repro campaign --sanitize     # hash chip state per phase
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import __version__
from repro.analysis.tables import Table
from repro.errors import ReproError
from repro.experiments.calibration import PAPER_TARGETS
from repro.experiments.registry import EXPERIMENTS, get_experiment


def _cmd_list(args: argparse.Namespace) -> int:
    table = Table(
        f"repro {__version__} — reproducible paper artefacts",
        ["id", "artefact", "description"],
    )
    for descriptor in EXPERIMENTS.values():
        table.add_row(descriptor.exp_id, descriptor.paper_artifact, descriptor.description)
    table.print()
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    descriptor = get_experiment(args.experiment)
    print(f"{descriptor.exp_id} — {descriptor.paper_artifact}")
    print(f"  {descriptor.description}")
    print(f"  bench: {descriptor.bench}")
    return 0


def _print_result(result) -> None:
    """Print whatever tables a runner's result object can render."""
    printed = False
    for attr in ("table", "stress_table", "recovery_table", "schedule_table"):
        method = getattr(result, attr, None)
        if callable(method):
            method().print()
            printed = True
    if not printed:
        print(result)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_experiment

    descriptor = get_experiment(args.experiment)
    print(f"running {descriptor.exp_id} ({descriptor.paper_artifact})...\n")
    result = run_experiment(descriptor.exp_id, seed=args.seed)
    if descriptor.exp_id == "TAB1":
        from repro.experiments.table1 import schedule_table

        schedule_table().print()
        print(f"measurements recorded: {len(result.log)}")
    elif descriptor.exp_id == "TAB1F":
        from repro.experiments.table1_fleet import distribution_table

        distribution_table(result).print()
        print(f"measurements recorded: {result.total_measurements}")
    elif descriptor.exp_id == "TAB3":
        result.stress_table().print()
        result.recovery_table().print()
    else:
        _print_result(result)
    return 0


def _resilience_kwargs(args: argparse.Namespace, n_chips: int | None = None) -> dict:
    """Translate the campaign CLI's resilience flags into run kwargs."""
    from repro.lab.campaign import table1_horizon
    from repro.lab.faults import FaultPlan
    from repro.lab.resilience import RetryPolicy

    count = n_chips if n_chips is not None else args.chips
    kwargs: dict = {}
    if args.fault_seed is not None:
        chip_ids = [f"chip-{i + 1}" for i in range(count)]
        kwargs["faults"] = FaultPlan.generate(
            args.fault_seed,
            chip_ids,
            table1_horizon(count),
            rate_per_day=args.fault_rate if args.fault_rate is not None else 1.0,
            dropout_probability=args.dropout_prob if args.dropout_prob is not None else 0.0,
            upset_probability=args.upset_prob if args.upset_prob is not None else 0.0,
        )
    if args.guard_mode is not None:
        from repro.guard import GuardConfig

        kwargs["guard"] = GuardConfig(
            mode=args.guard_mode,
            violation_budget=args.guard_budget,
            dump_dir=args.guard_dumps,
        )
    if args.retries is not None or args.retry_backoff is not None:
        kwargs["retry"] = RetryPolicy(
            max_attempts=args.retries if args.retries is not None else 3,
            backoff_seconds=(
                args.retry_backoff if args.retry_backoff is not None else 5.0
            ),
        )
    if args.resume is not None:
        kwargs["checkpoint"] = args.resume
        kwargs["resume"] = True
    elif args.checkpoint is not None:
        kwargs["checkpoint"] = args.checkpoint
    if getattr(args, "sanitize", False):
        kwargs["sanitize"] = True
    return kwargs


def _print_sanitizer(result) -> None:
    """One line of sanitizer output: digest count + final digest per chip."""
    if not result.state_hashes:
        return
    final: dict[str, str] = {}
    for key in sorted(result.state_hashes):
        chip_id = key.partition("/")[0]
        final[chip_id] = result.state_hashes[key]
    shown = sorted(final.items())[:8]
    summary = " ".join(f"{chip}={digest}" for chip, digest in shown)
    if len(final) > len(shown):
        summary += f" ... (+{len(final) - len(shown)} more chips)"
    print(f"sanitizer: {len(result.state_hashes)} phase hashes; final {summary}")


def _print_quarantine(result) -> None:
    """One line per chip the campaign had to pull from the bench."""
    for chip_id, report in result.quarantined.items():
        print(
            f"quarantined: {chip_id} during {report.case} at "
            f"t={report.sim_time:.0f} s — {report.reason}"
        )


def _write_report(report, out: str, label: str) -> None:
    """Write a built report (HTML + JSON sibling) and say where it went."""
    path = report.write(out)
    print(f"{label} report written to {path} (+ {path.with_suffix('.json').name})")


def _run_campaign(args: argparse.Namespace, tracer, note: str = ""):
    """Run the per-chip Table 1 campaign the flags describe; print its outcome."""
    from repro.lab.campaign import run_table1_campaign
    from repro.obs import ProgressReporter

    progress = ProgressReporter(enabled=args.progress)
    print(f"running the Table 1 campaign on {args.chips} chips{note}...")
    result = run_table1_campaign(seed=args.seed, n_chips=args.chips,
                                 tracer=tracer, progress=progress,
                                 **_resilience_kwargs(args))
    print(f"done: {len(result.log)} measurements over {len(result.final_delays)} chips")
    _print_quarantine(result)
    return result


def _health_report(result, tracer, seed: int):
    """The campaign health report of a run, with its tracer's metrics."""
    from repro.obs.query import TraceModel
    from repro.report import build_campaign_report

    return build_campaign_report(result, TraceModel.from_tracer(tracer), seed=seed)


def _run_lot(args: argparse.Namespace, tracer):
    """Run the --fleet lot the flags describe; print its outcome.

    Resilience flags, checkpoints included, pass straight through to
    :func:`~repro.lab.fleet.run_fleet_campaign` at any fidelity and
    shard count.
    """
    from repro.lab.fleet import run_fleet_campaign
    from repro.obs import ProgressReporter

    kwargs = _resilience_kwargs(args, n_chips=args.fleet)
    kwargs.pop("sanitize", None)  # passed explicitly below
    fidelity = args.fidelity or "auto"
    print(f"running the Table 1 fleet campaign on {args.fleet} chips ({fidelity} fidelity)...")
    result = run_fleet_campaign(
        seed=args.seed,
        n_chips=args.fleet,
        fidelity=fidelity,
        shards=args.shard,
        sanitize=args.sanitize,
        collect=args.collect or "records",
        tracer=tracer,
        progress=ProgressReporter(enabled=args.progress),
        **kwargs,
    )
    print(
        f"done: {result.total_measurements} measurements over "
        f"{len(result.summaries)} chips "
        f"(fidelity {result.fidelity}, {result.shards} shard(s), "
        f"{len(result.log)} records kept)"
    )
    _print_quarantine(result)
    return result


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.obs import JsonlExporter, Tracer
    from repro.obs.query import TraceModel

    tracer = None
    if args.trace:
        tracer = Tracer(exporter=JsonlExporter(args.trace))
    elif args.report:
        # The reports read trace metrics; give them an in-memory tracer.
        tracer = Tracer()
    result = _run_campaign(args, tracer) if args.fleet is None else _run_lot(args, tracer)
    _print_sanitizer(result)
    if args.csv:
        result.log.write_csv(args.csv)
        print(f"log written to {args.csv}")
    if args.report and args.fleet is None:
        _write_report(_health_report(result, tracer, args.seed), args.report, "health")
    elif args.report:
        from repro.report import build_fleet_report

        report = build_fleet_report(result, TraceModel.from_tracer(tracer), seed=args.seed)
        _write_report(report, args.report, "fleet")
    if tracer is not None:
        n_spans = len(tracer.finished)
        tracer.close()
        if args.trace:
            print(f"trace written to {args.trace} ({n_spans} spans)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import JsonlExporter, Tracer
    from repro.obs.query import TraceModel

    exporter = JsonlExporter(args.trace) if args.trace else None
    tracer = Tracer(exporter=exporter)
    result = _run_campaign(args, tracer, " (instrumented)")
    _print_sanitizer(result)
    print()
    model = TraceModel.from_tracer(tracer)
    model.top(
        n=None, by="total", title="Per-span timing (campaign -> case -> phase -> measurement)"
    ).print()
    tracer.metrics.table("Campaign run metrics").print()
    model.metric_family_table(TraceModel.HEALTH_FAMILIES).print()
    tracer.close()
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _cmd_calibration(args: argparse.Namespace) -> int:
    table = Table(
        "Calibration acceptance bands (single source of truth for all benches)",
        ["quantity", "paper", "low", "high"],
        fmt="{:.2f}",
    )
    for name, band in PAPER_TARGETS.items():
        table.add_row(name, band.paper_value, band.low, band.high)
    table.print()
    return 0


#: Default committed baseline location (repo root).
DEFAULT_BASELINE = ".repro-lint-baseline.json"


def _cmd_lint(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.lint import (
        Baseline,
        BaselineDiff,
        apply_baseline,
        lint_paths,
        load_baseline,
        render_json,
        render_text,
        validate_experiments,
        write_baseline,
    )

    if args.experiments:
        findings = validate_experiments()
        suppressed: list = []
    else:
        result = lint_paths(args.paths or ["src"])
        if args.deep:
            from repro.analysis.flow import analyze_paths

            deep = analyze_paths(args.paths or ["src"])
            result.findings.extend(deep.findings)
            result.suppressed.extend(deep.suppressed)
            result.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
        findings = result.findings
        suppressed = result.suppressed
    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(f"baseline with {len(findings)} entries written to {args.baseline}")
        return 0
    if args.experiments or args.no_baseline or (
        args.baseline == DEFAULT_BASELINE and not os.path.exists(args.baseline)
    ):
        # Semantic experiment findings always gate; the baseline only
        # covers AST findings.
        baseline = Baseline()
    else:
        baseline = load_baseline(args.baseline)
    diff = apply_baseline(findings, baseline)
    if args.prune_baseline and not args.no_baseline and os.path.exists(args.baseline):
        write_baseline(args.baseline, diff.baselined)
        print(
            f"pruned {len(diff.stale)} stale entr"
            f"{'ies' if len(diff.stale) != 1 else 'y'} from {args.baseline} "
            f"({len(diff.baselined)} kept)"
        )
        diff = BaselineDiff(new=diff.new, baselined=diff.baselined, stale=[])
    renderer = render_json if args.format == "json" else render_text
    print(renderer(diff, suppressed))
    return 1 if diff.new else 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.experiments:
        from repro.experiments.report import build_report

        text = build_report(seed=args.seed)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
            print(f"report written to {args.out}")
        else:
            print(text)
        return 0

    from repro.obs import Tracer

    tracer = Tracer()
    result = _run_campaign(args, tracer, " (instrumented)")
    _write_report(_health_report(result, tracer, args.seed),
                  args.out or "report.html", "health")
    tracer.close()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.query import TraceModel, diff_traces

    if args.trace_command == "diff":
        diff = diff_traces(
            TraceModel.load(args.trace_a), TraceModel.load(args.trace_b)
        )
        diff.table(significant_only=not args.all).print()
        significant = diff.significant()
        print(f"significant: {len(significant)} of {len(diff.rows)} compared")
        divergent = []
        if diff.hash_rows:
            divergent = diff.hash_divergent()
            if divergent or args.all:
                diff.hash_table().print()
            first = diff.first_divergence()
            if first is not None:
                print(
                    f"first state divergence: {first.chip_id} seq {first.seq} "
                    f"({first.case} / {first.phase}): "
                    f"{first.a or '-'} vs {first.b or '-'}"
                )
            else:
                print(
                    f"state hashes: all {len(diff.hash_rows)} phase digests match"
                )
        return 1 if (significant or divergent) and args.strict else 0

    model = TraceModel.load(args.trace_file)
    if args.trace_command == "summary":
        model.top(n=args.top).print()
        model.chip_table().print()
        model.metric_family_table(TraceModel.HEALTH_FAMILIES).print()
    elif args.trace_command == "top":
        model.top(n=args.top, by=args.by, group=args.group).print()
    elif args.trace_command == "tree":
        print(model.tree_render(max_depth=args.max_depth,
                                min_duration=args.min_duration))
    elif args.trace_command == "flame":
        for line in model.collapsed():
            print(line)
    elif args.trace_command == "profile":
        model.phase_table().print()
        model.throughput_table().print()
    return 0


def _load_sweep_spec(path: str):
    """Read a sweep spec file; the literal ``demo`` means the built-in demo."""
    from repro.dependability import SweepSpec, demo_spec
    from repro.errors import ConfigurationError

    if path == "demo":
        return demo_spec()
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read sweep spec {path!r}: {exc}") from exc
    return SweepSpec.from_json(text)


def _print_sweep_summary(result) -> None:
    ok, degraded = result.ok_cells, result.degraded_cells
    print(
        f"sweep {result.spec.name!r}: {len(ok)}/{len(result.outcomes)} cells "
        f"completed" + ("" if not degraded else f", {len(degraded)} degraded")
    )
    for outcome in degraded:
        print(f"  degraded: {outcome.cell_id} ({outcome.status}) — {outcome.error}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.dependability import SweepRunner, SweepStore, analyze_sweep
    from repro.report import build_dependability_report

    if args.sweep_command == "init":
        from repro.dependability import validate_sweep_spec

        spec = _load_sweep_spec(args.spec)
        findings = validate_sweep_spec(spec)
        if findings:
            for finding in findings:
                print(f"{finding.rule_id}: {finding.message}", file=sys.stderr)
            return 1
        SweepStore(args.dir).initialise(spec)
        print(
            f"sweep {spec.name!r} initialised in {args.dir}: "
            f"{spec.n_cells} cells ({spec.engine} engine, digest {spec.digest()})"
        )
        return 0

    if args.sweep_command == "report":
        analysis = analyze_sweep(args.dir)
        analysis.table().print()
        _write_report(build_dependability_report(analysis),
                      args.out or "sweep-report.html", "dependability")
        return 0

    # run | resume
    from repro.obs import JsonlExporter, ProgressReporter, Tracer

    tracer = Tracer(exporter=JsonlExporter(args.trace)) if args.trace else None
    progress = ProgressReporter(enabled=args.progress)
    runner_kwargs = dict(
        timeout_s=args.timeout,
        cell_retries=args.cell_retries,
        isolation=args.isolation,
        tracer=tracer,
        progress=progress,
    )
    if args.sweep_command == "resume":
        print(f"resuming sweep in {args.dir} (unfinished cells only)...")
        result = SweepRunner.resume(args.dir, **runner_kwargs)
    else:
        spec = _load_sweep_spec(args.spec)
        runner = SweepRunner(spec, args.dir, **runner_kwargs)
        at_once = runner.cells_at_once(spec.n_cells)
        print(
            f"running sweep {spec.name!r}: {spec.n_cells} cells "
            f"({spec.engine} engine, {args.isolation} isolation, "
            f"{at_once} cell{'s' if at_once > 1 else ''} at a time)..."
        )
        result = runner.run()
    _print_sweep_summary(result)
    if args.report:
        _write_report(build_dependability_report(analyze_sweep(result)),
                      args.report, "dependability")
    if tracer is not None:
        n_spans = len(tracer.finished)
        tracer.close()
        print(f"trace written to {args.trace} ({n_spans} spans)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Accelerated self-healing reproduction (Guo et al., DAC 2014)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments").set_defaults(
        func=_cmd_list
    )

    info = sub.add_parser("info", help="describe one experiment")
    info.add_argument("experiment", help="experiment id, e.g. FIG4")
    info.set_defaults(func=_cmd_info)

    run = sub.add_parser("run", help="regenerate one experiment's artefact")
    run.add_argument("experiment", help="experiment id, e.g. FIG4")
    run.add_argument("--seed", type=int, default=0, help="campaign seed")
    run.set_defaults(func=_cmd_run)

    def add_campaign_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--seed", type=int, default=0, help="campaign seed")
        parser.add_argument(
            "--chips", type=int, default=5, help="number of chips on the bench"
        )
        parser.add_argument("--trace", help="write a JSONL span trace to this file")
        parser.add_argument(
            "--checkpoint",
            metavar="DIR",
            help="snapshot each chip to this directory after every completed "
            "case (trap state, RNG state, DataLog shards)",
        )
        parser.add_argument(
            "--resume",
            metavar="DIR",
            help="resume a killed campaign from its checkpoint directory "
            "(finished chips are not replayed; implies --checkpoint DIR)",
        )
        parser.add_argument(
            "--fault-seed",
            type=int,
            metavar="N",
            help="inject a deterministic instrument-fault plan drawn with "
            "this seed (chamber drift, supply droop, readout faults, "
            "chip dropout)",
        )
        parser.add_argument(
            "--fault-rate",
            type=float,
            metavar="X",
            help="mean instrument faults per chip per simulated day "
            "(default: 1.0; only with --fault-seed)",
        )
        parser.add_argument(
            "--dropout-prob",
            type=float,
            metavar="P",
            help="per-chip probability of a permanent mid-campaign dropout "
            "(default: 0.0; only with --fault-seed)",
        )
        parser.add_argument(
            "--retries",
            type=int,
            metavar="N",
            help="sample attempts before a chip is quarantined (default: 3)",
        )
        parser.add_argument(
            "--retry-backoff",
            type=float,
            metavar="SECONDS",
            help="simulated seconds before the first sample retry, doubling "
            "per attempt (default: 5)",
        )
        parser.add_argument(
            "--upset-prob",
            type=float,
            metavar="P",
            help="per-chip probability of a trap-state upset (NaN or "
            "out-of-domain occupancy) caught by the physics guards "
            "(default: 0.0; only with --fault-seed)",
        )
        parser.add_argument(
            "--guard-mode",
            choices=["raise", "clamp", "off"],
            metavar="MODE",
            help="physics-contract enforcement: 'raise' aborts on the "
            "first violation with a repro bundle, 'clamp' repairs values "
            "in place and counts violations, 'off' disables the checks "
            "(default: ambient guard, which raises without dumping)",
        )
        parser.add_argument(
            "--guard-budget",
            type=int,
            metavar="N",
            help="clamp-mode violations tolerated per chip before it is "
            "quarantined (default: unlimited; only with --guard-mode clamp)",
        )
        parser.add_argument(
            "--guard-dumps",
            metavar="DIR",
            default="guard-dumps",
            help="directory receiving raise-mode repro bundles "
            "(default: guard-dumps)",
        )
        parser.add_argument(
            "--sanitize",
            action="store_true",
            help="hash per-chip state (records, trap occupancy, bench RNG) "
            "at every phase boundary; digests land in state_hash trace "
            "spans and must be identical across sequential/parallel runs "
            "of one seed",
        )
        verbosity = parser.add_mutually_exclusive_group()
        verbosity.add_argument(
            "--progress",
            dest="progress",
            action="store_true",
            default=True,
            help="print per-case progress lines (default)",
        )
        verbosity.add_argument(
            "--quiet",
            dest="progress",
            action="store_false",
            help="suppress progress lines",
        )

    campaign = sub.add_parser("campaign", help="run the full Table 1 campaign")
    campaign.add_argument("--csv", help="write the measurement log to CSV")
    campaign.add_argument(
        "--report",
        metavar="HTML",
        help="write the campaign health report here (JSON sibling alongside); "
        "with --fleet this is the distribution/outlier report instead",
    )
    campaign.add_argument(
        "--fleet",
        type=int,
        metavar="N",
        help="run the Table 1 schedule over an N-chip lot, tiling the "
        "paper's five-chip schedule (exact fidelity matches the "
        "plain campaign's chips bit-for-bit)",
    )
    campaign.add_argument(
        "--shard",
        type=int,
        metavar="K",
        help="fan the fleet out to K worker processes over contiguous "
        "chip ranges; the merged result is bit-identical to --shard 1 "
        "(default: one per usable CPU, at most one per chip; only with --fleet)",
    )
    campaign.add_argument(
        "--fidelity",
        choices=["auto", "exact", "binned"],
        help="fleet physics fidelity: 'exact' keeps every trap (the plain "
        "campaign's physics), 'binned' pools traps on a (tau_c, tau_e) grid for "
        "population scale, 'auto' picks exact for small lots "
        "(default: auto; only with --fleet)",
    )
    campaign.add_argument(
        "--collect",
        choices=["records", "summary"],
        help="'records' keeps the full measurement log, 'summary' keeps "
        "phase-boundary records only (memory-bounded 10k-chip runs; "
        "per-chip summaries always cover the full stream) "
        "(default: records; only with --fleet)",
    )
    add_campaign_options(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    stats = sub.add_parser(
        "stats", help="run an instrumented campaign and print its telemetry"
    )
    add_campaign_options(stats)
    stats.set_defaults(func=_cmd_stats)

    sub.add_parser(
        "calibration", help="print the paper-shape acceptance bands"
    ).set_defaults(func=_cmd_calibration)

    lint = sub.add_parser(
        "lint", help="run the domain linter (AST rules or --experiments validation)"
    )
    lint.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src)"
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    lint.add_argument(
        "--experiments",
        action="store_true",
        help="statically validate the experiment registry and schedules "
        "instead of linting files",
    )
    lint.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of accepted findings (default: {DEFAULT_BASELINE})",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="gate on every finding, ignoring the baseline",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file and exit",
    )
    lint.add_argument(
        "--deep",
        action="store_true",
        help="additionally run the cross-module flow pass (RNG stream "
        "ownership RPR2xx)",
    )
    lint.add_argument(
        "--prune-baseline",
        action="store_true",
        help="rewrite the baseline file without its stale entries "
        "(fingerprints matching no current finding)",
    )
    lint.set_defaults(func=_cmd_lint)

    report = sub.add_parser(
        "report",
        help="run a campaign and write its health report (HTML + JSON); "
        "--experiments writes the legacy markdown experiment report",
    )
    report.add_argument(
        "--out",
        help="output file (default: report.html; markdown mode: stdout)",
    )
    report.add_argument(
        "--experiments",
        action="store_true",
        help="run every experiment and emit the markdown comparison report",
    )
    add_campaign_options(report)
    report.set_defaults(func=_cmd_report)

    trace = sub.add_parser(
        "trace", help="query an exported JSONL span trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def add_trace_file(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("trace_file", help="JSONL trace written by --trace")

    t_summary = trace_sub.add_parser(
        "summary", help="top spans, per-chip rollup and health metric families"
    )
    add_trace_file(t_summary)
    t_summary.add_argument("--top", type=int, default=10, help="rows in the top table")

    t_top = trace_sub.add_parser("top", help="hottest span groups")
    add_trace_file(t_top)
    t_top.add_argument("--top", type=int, default=10, help="rows to print")
    t_top.add_argument(
        "--by", choices=("self", "total"), default="self", help="ranking key"
    )
    t_top.add_argument(
        "--group",
        choices=("name", "path"),
        default="name",
        help="aggregate by span name or full root-to-span path",
    )

    t_tree = trace_sub.add_parser("tree", help="the span tree as indented text")
    add_trace_file(t_tree)
    t_tree.add_argument("--max-depth", type=int, help="prune below this depth")
    t_tree.add_argument(
        "--min-duration",
        type=float,
        default=0.0,
        help="hide spans shorter than this many seconds",
    )

    t_flame = trace_sub.add_parser(
        "flame", help="flamegraph collapsed stacks (frame;frame <usec>)"
    )
    add_trace_file(t_flame)

    t_profile = trace_sub.add_parser(
        "profile", help="per-phase self time and derived throughput"
    )
    add_trace_file(t_profile)

    t_diff = trace_sub.add_parser(
        "diff", help="compare two traces (exact / timing / rate categories)"
    )
    t_diff.add_argument("trace_a", help="baseline trace")
    t_diff.add_argument("trace_b", help="candidate trace")
    t_diff.add_argument(
        "--all",
        action="store_true",
        help="show every compared row, not just significant ones",
    )
    t_diff.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when significant deltas exist",
    )
    trace.set_defaults(func=_cmd_trace)

    sweep = sub.add_parser(
        "sweep",
        help="dependability sweeps: faultload matrices with graceful degradation",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    def add_sweep_dir(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--dir",
            default="sweep",
            metavar="DIR",
            help="sweep progress directory (default: sweep)",
        )

    def add_sweep_run_options(parser: argparse.ArgumentParser) -> None:
        add_sweep_dir(parser)
        parser.add_argument(
            "--timeout",
            type=float,
            default=600.0,
            metavar="SECONDS",
            help="wall-clock budget per cell attempt (default: 600)",
        )
        parser.add_argument(
            "--cell-retries",
            type=int,
            default=2,
            metavar="N",
            help="attempts per cell before recording it as failed; a typed "
            "model failure (e.g. PhysicsViolationError) is final at its first "
            "attempt (default: 2)",
        )
        parser.add_argument(
            "--isolation",
            choices=["process", "inline"],
            default="process",
            help="'process' runs cells in forked workers, one per usable CPU, "
            "each attempt crash/timeout-proof; 'inline' runs one cell at a time "
            "in-process (default: process)",
        )
        parser.add_argument(
            "--report",
            metavar="HTML",
            help="write the dependability report here after the sweep "
            "(JSON sibling alongside)",
        )
        parser.add_argument("--trace", help="write a JSONL span trace to this file")
        verbosity = parser.add_mutually_exclusive_group()
        verbosity.add_argument(
            "--progress",
            dest="progress",
            action="store_true",
            default=True,
            help="print per-cell progress lines (default)",
        )
        verbosity.add_argument(
            "--quiet",
            dest="progress",
            action="store_false",
            help="suppress progress lines",
        )

    s_init = sweep_sub.add_parser(
        "init", help="validate a sweep spec and initialise its directory"
    )
    s_init.add_argument(
        "spec", help="sweep spec JSON file, or 'demo' for the built-in demo sweep"
    )
    add_sweep_dir(s_init)

    s_run = sweep_sub.add_parser(
        "run", help="run every cell of a sweep spec (resumable, crash-safe)"
    )
    s_run.add_argument(
        "spec", help="sweep spec JSON file, or 'demo' for the built-in demo sweep"
    )
    add_sweep_run_options(s_run)

    s_resume = sweep_sub.add_parser(
        "resume", help="finish the unfinished cells of an interrupted sweep"
    )
    add_sweep_run_options(s_resume)

    s_report = sweep_sub.add_parser(
        "report", help="analyze a sweep directory and write its report"
    )
    add_sweep_dir(s_report)
    s_report.add_argument(
        "--out", help="output HTML file (default: sweep-report.html)"
    )
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # A flag that only works beside another one defaults to None, so one
    # given alone is an error rather than silently ignored.
    if args.command == "campaign" and args.fleet is None:
        for name in ("shard", "fidelity", "collect"):
            if getattr(args, name) is not None:
                parser.error(f"campaign: --{name} only works with --fleet")
    if hasattr(args, "fault_seed") and args.fault_seed is None:
        for name in ("fault_rate", "dropout_prob", "upset_prob"):
            if getattr(args, name) is not None:
                flag = name.replace("_", "-")
                parser.error(f"{args.command}: --{flag} only works with --fault-seed")
    if getattr(args, "guard_budget", None) is not None and args.guard_mode != "clamp":
        parser.error(f"{args.command}: --guard-budget only works with --guard-mode clamp")
    try:
        code = args.func(args)
        # Flush inside the try: small outputs (`repro lint | head`) may
        # still sit in the stdio buffer, and the EPIPE would otherwise
        # surface as an unhandled error during interpreter shutdown.
        sys.stdout.flush()
        return code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        bundle = getattr(error, "bundle_path", None)
        if bundle:
            print(f"repro bundle: {bundle}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (`repro trace flame | head`):
        # not an error.  Detach stdout so the interpreter's shutdown
        # flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
