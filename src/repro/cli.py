"""Command-line interface: ``starnuma`` / ``python -m repro``.

Examples::

    starnuma list                      # available experiments & workloads
    starnuma run fig8                  # reproduce the main results
    starnuma run all --seed 2          # every table/figure, fresh seed
    starnuma run fig10 --workloads bfs tc
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments import EXPERIMENTS, ExperimentContext
from repro.obs import OBS
from repro.obs.logconfig import get_logger, setup_logging
from repro.workloads import WORKLOADS

#: Committed baseline of accepted lint findings, at the repo root.
DEFAULT_BASELINE = "lint-baseline.json"

_log = get_logger()


def _add_obs_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument("--obs-trace", metavar="PATH",
                         help="write a JSONL instrumentation trace to "
                              "PATH; summarize it with 'starnuma obs "
                              "summary PATH', load it into a store with "
                              "'starnuma store ingest'")
    command.add_argument("--obs-level", choices=["basic", "detail"],
                         default="basic",
                         help="instrumentation verbosity (default basic; "
                              "detail adds per-page decisions and "
                              "residual trajectories)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starnuma",
        description="StarNUMA (MICRO 2024) reproduction harness",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("-v", "--verbose", action="store_true",
                           help="debug-level progress messages on stderr")
    verbosity.add_argument("-q", "--quiet", action="store_true",
                           help="only warnings and errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and workloads")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment",
                     choices=sorted(EXPERIMENTS) + ["all"],
                     help="experiment id, or 'all'")
    run.add_argument("--seed", type=int, default=1,
                     help="RNG seed for trace synthesis (default 1)")
    run.add_argument("--phases", type=int, default=12,
                     help="simulated phases per run (default 12)")
    run.add_argument("--warmup", type=int, default=4,
                     help="phases excluded from aggregates (default 4)")
    run.add_argument("--workloads", nargs="+", metavar="NAME",
                     help="restrict to these workloads")
    run.add_argument("--resume", metavar="DIR",
                     help="checkpoint directory: skip experiments already "
                          "completed there, record new completions")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="run up to N experiments in parallel worker "
                          "processes (default 1: sequential)")
    _add_obs_arguments(run)

    export = sub.add_parser("export",
                            help="run experiments and write JSON/CSV")
    export.add_argument("--out", metavar="DIR",
                        help="output directory")
    export.add_argument("--experiments", nargs="+", metavar="ID",
                        help="subset of experiment ids (default: all)")
    export.add_argument("--seed", type=int, default=1)
    export.add_argument("--phases", type=int, default=12)
    export.add_argument("--warmup", type=int, default=4)
    export.add_argument("--workloads", nargs="+", metavar="NAME")
    export.add_argument("--resume", metavar="DIR",
                        help="resume a partially completed export in DIR "
                             "(implies --out DIR)")
    export.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retry budget for transient failures "
                             "(default 2)")
    export.add_argument("--run-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-experiment wall-clock limit")
    export.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run up to N experiments in parallel worker "
                             "processes (default 1: sequential)")
    _add_obs_arguments(export)

    serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP endpoint",
        description="Expose the experiments over HTTP: POST scenario "
                    "submissions (same schema and bounds as 'starnuma "
                    "run'), stream progress over SSE, fetch result "
                    "JSON. Admission control, deadlines, a "
                    "content-addressed result cache with single-flight "
                    "dedup, and a crash-safe job journal are built in. "
                    "See docs/serve.md.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="TCP port (default 8787; 0 picks a free one)")
    serve.add_argument("--uds", metavar="PATH",
                       help="serve on a Unix domain socket instead of TCP")
    serve.add_argument("--journal", metavar="PATH",
                       default="serve-journal.jsonl",
                       help="crash-safe job journal file "
                            "(default serve-journal.jsonl)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persist results on disk, content-addressed "
                            "(default: memory only)")
    serve.add_argument("--resume", action="store_true",
                       help="replay the journal: re-adopt jobs that were "
                            "running when the last server died, never "
                            "re-run completed or quarantined ones")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="concurrent job worker processes (default 2)")
    serve.add_argument("--queue", type=int, default=16, metavar="N",
                       help="bounded submission queue; beyond it new "
                            "jobs are shed with 429 (default 16)")
    serve.add_argument("--per-client", type=int, default=4, metavar="N",
                       help="max jobs in flight per client identity "
                            "(default 4)")
    serve.add_argument("--default-deadline", type=float, default=300.0,
                       metavar="SECONDS",
                       help="deadline for submissions that name none "
                            "(default 300)")
    serve.add_argument("--max-deadline", type=float, default=3600.0,
                       metavar="SECONDS",
                       help="ceiling on requested deadlines "
                            "(default 3600)")
    serve.add_argument("--heartbeat-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="kill a job worker silent longer than this "
                            "(default 30)")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       metavar="SECONDS",
                       help="grace for in-flight jobs on SIGTERM before "
                            "workers are killed resumably (default 5)")
    _add_obs_arguments(serve)

    chaos = sub.add_parser(
        "chaos",
        help="soak the supervised runner against injected faults",
        description="Run a synthetic multi-process sweep with seeded "
                    "worker crashes, hangs, transient errors, and torn "
                    "checkpoint writes, then verify: no hangs, no lost "
                    "or duplicated results, poisoned tasks quarantined, "
                    "and all surviving results byte-identical to the "
                    "fault-free expectation. With --serve, soak the "
                    "HTTP service instead: client disconnects, "
                    "slow-loris, SIGKILL between journal writes, "
                    "resume, overload, and drain. See docs/runner.md "
                    "and docs/serve.md.",
    )
    chaos.add_argument("--serve", action="store_true",
                       help="soak the simulation service instead of the "
                            "bare runner (see docs/serve.md)")
    chaos.add_argument("--scenarios", type=int, default=8, metavar="N",
                       help="steady scenarios in the service soak "
                            "(default 8; --serve only)")
    chaos.add_argument("--burst", type=int, default=12, metavar="N",
                       help="overload burst size in the service soak "
                            "(default 12; --serve only)")
    chaos.add_argument("--tasks", type=int, default=200, metavar="N",
                       help="synthetic tasks to sweep (default 200)")
    chaos.add_argument("--jobs", type=int, default=4, metavar="N",
                       help="worker processes (default 4; needs >= 2)")
    chaos.add_argument("--seed", type=int, default=1,
                       help="fault-injection seed (default 1); the same "
                            "seed injects the same faults every run")
    chaos.add_argument("--crash", type=float, default=0.05, metavar="RATE",
                       help="per-attempt worker os._exit probability "
                            "(default 0.05)")
    chaos.add_argument("--hang", type=float, default=0.03, metavar="RATE",
                       help="per-attempt SIGALRM-immune hang probability "
                            "(default 0.03)")
    chaos.add_argument("--transient", type=float, default=0.10,
                       metavar="RATE",
                       help="per-attempt retryable-error probability "
                            "(default 0.10)")
    chaos.add_argument("--poison", type=float, default=0.02, metavar="RATE",
                       help="fraction of tasks that kill every worker "
                            "they touch (default 0.02)")
    chaos.add_argument("--torn", type=float, default=0.05, metavar="RATE",
                       help="per-write torn-checkpoint probability "
                            "(default 0.05)")
    chaos.add_argument("--heartbeat-timeout", type=float, default=1.0,
                       metavar="SECONDS",
                       help="hang-detection deadline (default 1.0)")
    chaos.add_argument("--max-wall", type=float, default=None,
                       metavar="SECONDS",
                       help="fail the soak if it runs longer than this")
    chaos.add_argument("--out", metavar="DIR",
                       help="persist the checkpoint and "
                            "health-report.json here")
    _add_obs_arguments(chaos)

    obs = sub.add_parser(
        "obs",
        help="inspect an instrumentation trace",
        description="Summarize or validate a trace written by "
                    "'run --obs-trace' / 'export --obs-trace' -- a "
                    "JSONL file, or a sqlite store it was ingested "
                    "into. See "
                    "docs/observability.md and docs/store.md.",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summary = obs_sub.add_parser("summary",
                                 help="phase timeline and metric tables")
    summary.add_argument("trace", metavar="PATH",
                         help="JSONL trace file or sqlite store")
    summary.add_argument("--trace-id", metavar="REF", default=None,
                         help="with a sqlite store: summarize only this "
                              "trace (id or label; default: all traces)")
    summary.add_argument("--width", type=int, default=40,
                         help="bar width of the phase timeline "
                              "(default 40)")
    validate = obs_sub.add_parser("validate",
                                  help="check a trace against the schema")
    validate.add_argument("trace", metavar="PATH",
                          help="JSONL trace file")

    store = sub.add_parser(
        "store",
        help="maintain a results & trace database",
        description="Backfill existing artifacts -- JSONL obs traces "
                    "and 'starnuma export' directories -- into one "
                    "embedded sqlite store, then answer questions with "
                    "'starnuma query'. See docs/store.md.",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    ingest = store_sub.add_parser(
        "ingest", help="backfill traces / export dirs into the store")
    ingest.add_argument("paths", nargs="+", metavar="PATH",
                        help="JSONL trace files and/or export directories")
    ingest.add_argument("--db", metavar="DB", required=True,
                        help="store file (created if missing)")
    ingest.add_argument("--label", metavar="NAME",
                        help="label for the ingested sweep/trace "
                             "(single PATH only; default: its name)")
    info = store_sub.add_parser("info",
                                help="schema versions and table counts")
    info.add_argument("--db", metavar="DB", required=True,
                      help="store file")

    query = sub.add_parser(
        "query",
        help="answer questions from a results & trace store",
        description="Read-side queries over a store built by "
                    "'starnuma store ingest': exact result tables, "
                    "degradation curves, cross-sweep diffs, top-N "
                    "regressions, per-phase timelines. See "
                    "docs/store.md.",
    )
    query.add_argument("--db", metavar="DB", required=True,
                       help="store file")
    query.add_argument("--format", choices=["table", "json"],
                       default="table",
                       help="output format (default table)")
    query_sub = query.add_subparsers(dest="query_command", required=True)
    query_sub.add_parser("sweeps", help="list ingested sweeps")
    query_sub.add_parser("traces", help="list stored obs traces")
    table = query_sub.add_parser(
        "table", help="one result table, exactly as exported")
    table.add_argument("experiment", help="experiment id (e.g. fig8a)")
    table.add_argument("--sweep", metavar="REF",
                       help="sweep id or label (default: the only sweep)")
    curve = query_sub.add_parser(
        "curve", help="fault-study degradation curve")
    curve.add_argument("--sweep", metavar="REF")
    curve.add_argument("--experiment", default="fault-study")
    curve.add_argument("--metric", default="speedup_over_baseline")
    curve.add_argument("--workload", metavar="NAME",
                       help="narrow to one workload's curve")
    diff = query_sub.add_parser(
        "diff", help="per-scenario metric diff between two sweeps")
    diff.add_argument("--a", required=True, metavar="REF",
                      help="baseline sweep (id or label)")
    diff.add_argument("--b", required=True, metavar="REF",
                      help="candidate sweep (id or label)")
    diff.add_argument("--experiment", required=True)
    diff.add_argument("--metric", required=True)
    regressions = query_sub.add_parser(
        "regressions", help="top-N relative drops from sweep A to B")
    regressions.add_argument("--a", required=True, metavar="REF")
    regressions.add_argument("--b", required=True, metavar="REF")
    regressions.add_argument("--top", type=int, default=10, metavar="N")
    regressions.add_argument("--experiment", default=None)
    regressions.add_argument("--metric", default=None)
    timeline = query_sub.add_parser(
        "timeline", help="per-phase sim.phase span totals")
    timeline.add_argument("--trace", metavar="REF", default=None,
                          help="trace id or label (default: all traces)")
    migrations = query_sub.add_parser(
        "migrations", help="migration-decision provenance rows")
    migrations.add_argument("--trace", metavar="REF", default=None)
    migrations.add_argument("--event", metavar="NAME", default=None,
                            help="narrow to one migration.* event name")
    migrations.add_argument("--limit", type=int, default=50, metavar="N")

    describe = sub.add_parser("describe",
                              help="print a system configuration")
    describe.add_argument("system", choices=["baseline", "starnuma",
                                             "full-scale"],
                          help="which preset to describe")

    lint = sub.add_parser(
        "lint",
        help="run the project static-analysis pass",
        description="Check the tree against the StarNUMA invariants: "
                    "unit-suffix consistency, determinism, sim purity, "
                    "obs purity, hashable cache keys, config/model "
                    "agreement. See docs/static-analysis.md.",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: src/repro)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text",
                      help="report format (default text; sarif for "
                           "code-scanning upload)")
    lint.add_argument("--changed", metavar="BASE_REF",
                      help="report only findings in files changed since "
                           "BASE_REF (the whole-program analysis still "
                           "covers every file)")
    lint.add_argument("--baseline", metavar="FILE",
                      default=DEFAULT_BASELINE,
                      help=f"baseline file of accepted findings "
                           f"(default {DEFAULT_BASELINE}; a missing file "
                           f"is an empty baseline)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report every finding, ignoring the baseline")
    lint.add_argument("--update-baseline", action="store_true",
                      help="accept all current findings into the baseline "
                           "file and exit 0")
    lint.add_argument("--rules", nargs="+", metavar="RULE",
                      help="run only these rules")
    lint.add_argument("--list-rules", action="store_true",
                      help="list available rules and exit")
    return parser


def _cmd_list() -> int:
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    print("workloads:")
    for name in WORKLOADS:
        profile = WORKLOADS[name]
        print(f"  {name:9s} {profile.family:13s} "
              f"{profile.footprint_gb:6.0f} GB  MPKI {profile.mpki}")
    return 0


def _validate_common(args: argparse.Namespace) -> Optional[str]:
    """One-line complaint for invalid run/export parameters, else None.

    The bounds themselves live in
    :func:`repro.serve.scenario.validate_run_params` -- the single
    source of truth shared with ``POST /v1/jobs`` submissions.
    """
    from repro.serve.scenario import validate_run_params

    message = validate_run_params(args.seed, args.phases, args.warmup,
                                  args.workloads, WORKLOADS)
    if message is not None:
        # The shared messages name bare parameters; these are flags here.
        for name in ("seed", "phases", "warmup"):
            if message.startswith(name):
                return "--" + message
        return message
    if getattr(args, "jobs", 1) < 1:
        return f"--jobs must be >= 1 (got {args.jobs})"
    return None


def _run_experiment(name: str, context: ExperimentContext):
    with OBS.span("experiment", experiment=name):
        return EXPERIMENTS[name](context)


def _print_result(name: str, result) -> None:
    print(result.table)
    if name == "fig8":
        from repro.metrics.ascii_chart import speedup_chart

        items = [(str(row[0]), float(row[1]))
                 for row in result.speedup.rows]
        print()
        print(speedup_chart(items,
                            title="StarNUMA (T16) speedup over "
                                  "baseline:"))
    print()


def _cmd_run(args: argparse.Namespace) -> int:
    context = ExperimentContext(
        seed=args.seed,
        n_phases=args.phases,
        warmup_phases=args.warmup,
        workloads=args.workloads,
    )
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    if args.resume is None and args.jobs == 1:
        for name in names:
            _print_result(name, _run_experiment(name, context))
        return 0

    import contextlib
    import io
    from pathlib import Path

    from repro.experiments.export import sweep_params
    from repro.runner import (CheckpointMismatchError, SweepCheckpoint,
                              SweepDrained, SweepRunner)

    checkpoint = None
    if args.resume is not None:
        checkpoint = SweepCheckpoint(Path(args.resume) / "checkpoint.json",
                                     sweep_params(context, names))
        try:
            checkpoint.load()
        except CheckpointMismatchError as exc:
            _log.error(f"error: {exc}")
            return 2
        if checkpoint.corrupt_quarantined is not None:
            _log.warning(
                f"checkpoint was corrupt; quarantined it to "
                f"{checkpoint.corrupt_quarantined} and starting fresh")

    if args.jobs == 1:

        def run_one(name: str) -> None:
            _print_result(name, _run_experiment(name, context))
            return None

    else:
        # Parallel workers render off-screen and return the text; the
        # parent prints outcomes in submission order, so tables never
        # interleave and the output order matches a sequential run.
        def run_one(name: str) -> dict:
            rendered = io.StringIO()
            with contextlib.redirect_stdout(rendered):
                _print_result(name, _run_experiment(name, context))
            return {"rendered": rendered.getvalue()}

    runner = SweepRunner(
        run_one, checkpoint=checkpoint, jobs=args.jobs,
        on_event=_log.info,
    )
    try:
        outcomes = runner.run(names)
    except SweepDrained as drained:
        where = args.resume or "DIR"
        _log.warning(f"{drained}; rerun with --resume {where} to finish")
        return 130
    if args.jobs > 1:
        for outcome in outcomes:
            if outcome.status == "ok" and outcome.payload:
                print(outcome.payload["rendered"], end="")
    failed = [outcome for outcome in outcomes if not outcome.succeeded]
    if failed:
        where = args.resume or "DIR"
        _log.warning(f"{len(failed)} experiment(s) failed; rerun with "
                     f"--resume {where} to retry them")
        return 1
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_all
    from repro.runner import (CheckpointMismatchError, SweepDrained,
                              SweepError)

    out = args.resume or args.out
    if out is None:
        _log.error("error: export needs --out DIR (or --resume DIR)")
        return 2
    if args.retries < 0:
        _log.error(f"error: --retries must be >= 0 (got {args.retries})")
        return 2
    if args.run_timeout is not None and args.run_timeout <= 0:
        _log.error(f"error: --run-timeout must be > 0 "
                   f"(got {args.run_timeout})")
        return 2
    if args.resume and args.out and args.resume != args.out:
        _log.error("error: --out and --resume point at different "
                   "directories")
        return 2

    context = ExperimentContext(
        seed=args.seed, n_phases=args.phases, warmup_phases=args.warmup,
        workloads=args.workloads,
    )
    try:
        written = export_all(
            out, context, args.experiments,
            resume=args.resume is not None,
            max_retries=args.retries,
            timeout_s=args.run_timeout,
            jobs=args.jobs,
            on_event=_log.info,
        )
    except KeyError as exc:
        _log.error(f"error: {exc.args[0]}")
        return 2
    except CheckpointMismatchError as exc:
        _log.error(f"error: {exc}")
        return 2
    except SweepDrained as drained:
        _log.warning(f"{drained}; rerun with --resume {out} to finish")
        return 130
    except SweepError as exc:
        _log.warning(f"{exc}; completed experiments are checkpointed -- "
                     f"rerun with --resume {out} to retry the rest")
        return 1
    print(f"wrote {len(written)} result files to {out}")
    return 0


def _serve_run_scenario(scenario):
    """Run one service submission (executes inside a job worker)."""
    from repro.experiments.export import _flatten, result_to_dict

    context = ExperimentContext(
        seed=scenario.seed, n_phases=scenario.phases,
        warmup_phases=scenario.warmup,
        workloads=list(scenario.workloads) if scenario.workloads else None,
    )
    outcome = _run_experiment(scenario.experiment, context)
    return {
        "experiment": scenario.experiment,
        "results": [result_to_dict(result)
                    for result in _flatten(outcome)],
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import Catalog, ServeApp, ServePolicy
    from repro.serve.app import serve_forever

    policy = ServePolicy(
        max_workers=args.workers, max_queue=args.queue,
        max_inflight_per_client=args.per_client,
        default_deadline_s=args.default_deadline,
        max_deadline_s=args.max_deadline,
        heartbeat_timeout_s=args.heartbeat_timeout,
        drain_grace_s=args.drain_grace,
    )
    complaint = policy.validate()
    if complaint is not None:
        _log.error(f"error: {complaint}")
        return 2
    try:
        app = ServeApp(
            run_scenario=_serve_run_scenario,
            catalog=Catalog.of(EXPERIMENTS, WORKLOADS),
            journal_path=args.journal, cache_dir=args.cache_dir,
            resume=args.resume, policy=policy,
            host=args.host, port=args.port, uds=args.uds,
        )
    except Exception as exc:  # noqa: BLE001 -- bad journal, bad socket
        _log.error(f"error: {exc}")
        return 2
    if app.adopted is not None:
        _log.info(f"resumed from {args.journal}: "
                  f"{app.adopted.get('completed', 0)} completed, "
                  f"{app.adopted.get('requeued', 0)} re-queued, "
                  f"{app.adopted.get('quarantined', 0)} quarantined")
    _log.info("serving; SIGTERM drains gracefully, "
              "SIGKILL is safe (journaled)")
    serve_forever(app)
    print(f"serve: drained cleanly; journal at {args.journal}")
    return 0


def _cmd_serve_chaos(args: argparse.Namespace) -> int:
    from repro.serve.chaos import ServeChaosConfig, run_serve_chaos

    config = ServeChaosConfig(
        seed=args.seed, n_scenarios=args.scenarios, burst=args.burst,
        max_wall_s=args.max_wall if args.max_wall is not None else 120.0,
    )
    complaint = config.validate()
    if complaint is not None:
        _log.error(f"error: {complaint}")
        return 2
    report = run_serve_chaos(config, out_dir=args.out,
                             on_event=_log.info)
    counts = report.counts
    print(f"serve chaos soak: {report.n_scenarios} scenarios, "
          f"seed {report.seed}, SIGKILL after "
          f"{report.kill_after_appends} journal appends")
    print(f"  wall time     {report.wall_s:.1f}s")
    print(f"  verified      {counts.get('completed_verified', 0)} "
          f"byte-identical results")
    print(f"  cache/dedup   {counts.get('cached_repeats', 0)} cached "
          f"repeats, {counts.get('phase1_coalesced', 0)} coalesced")
    print(f"  overload      {counts.get('sheds', 0)} shed with 429")
    print(f"  faults        {counts.get('sigkills', 0)} SIGKILL, "
          f"{counts.get('sse_disconnects', 0)} mid-stream disconnects")
    print(f"  resume        adopted {report.adopted}")
    if args.out:
        print(f"  artifacts     {args.out}/serve-chaos-report.json")
    if report.passed:
        print("serve chaos soak PASSED: zero lost, duplicated, or torn "
              "results; resume, quarantine, and shedding all held")
        return 0
    for problem in report.problems:
        print(f"  problem: {problem}")
    print(f"serve chaos soak FAILED with {len(report.problems)} "
          f"problem(s)")
    return 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.serve:
        return _cmd_serve_chaos(args)

    from repro.runner import ChaosConfig, run_chaos

    config = ChaosConfig(seed=args.seed, crash=args.crash, hang=args.hang,
                         transient=args.transient, poison=args.poison,
                         torn_write=args.torn)
    complaint = config.validate()
    if complaint is None and args.tasks < 2:
        complaint = f"--tasks must be >= 2 (got {args.tasks})"
    if complaint is None and args.jobs < 2:
        complaint = (f"--jobs must be >= 2: worker-killing faults need "
                     f"workers (got {args.jobs})")
    if complaint is None and args.heartbeat_timeout <= 0:
        complaint = (f"--heartbeat-timeout must be > 0 "
                     f"(got {args.heartbeat_timeout})")
    if complaint is None and args.max_wall is not None and args.max_wall <= 0:
        complaint = f"--max-wall must be > 0 (got {args.max_wall})"
    if complaint is not None:
        _log.error(f"error: {complaint}")
        return 2

    report = run_chaos(
        args.tasks, args.jobs, config=config,
        heartbeat_timeout_s=args.heartbeat_timeout,
        max_wall_s=args.max_wall, out_dir=args.out,
        on_event=_log.info,
    )
    health = report.health
    statuses = ", ".join(f"{status} {count}" for status, count
                         in sorted(report.statuses.items()))
    print(f"chaos soak: {report.n_tasks} tasks x {report.jobs} jobs, "
          f"seed {report.seed}")
    print(f"  wall time    {report.wall_s:.1f}s")
    print(f"  statuses     {statuses}")
    print(f"  supervision  crashes {health.get('crashes_detected', 0)}, "
          f"hangs {health.get('hangs_detected', 0)}, "
          f"requeues {health.get('tasks_requeued', 0)}, "
          f"restarts {health.get('worker_restarts', 0)}")
    print(f"  torn writes  {report.torn_writes}")
    if report.quarantined:
        print(f"  quarantined  {', '.join(report.quarantined)}")
    if args.out:
        print(f"  artifacts    {args.out}/health-report.json")
    if report.passed:
        print("chaos soak PASSED: no hangs, no lost or duplicated "
              "results, surviving outputs byte-identical to fault-free")
        return 0
    for problem in report.problems:
        print(f"  problem: {problem}")
    print(f"chaos soak FAILED with {len(report.problems)} problem(s)")
    return 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import iter_trace, render_summary, summarize_records, \
        validate_trace
    from repro.store import (QueryError, StoreSchemaError, is_sqlite_path,
                             open_store, summarize_store)

    try:
        if args.obs_command == "validate":
            if is_sqlite_path(args.trace):
                _log.error(f"error: {args.trace} is a sqlite store; "
                           f"validate applies to JSONL traces (inspect "
                           f"a store with 'starnuma store info')")
                return 2
            problems = validate_trace(args.trace)
            if problems:
                for line_number, problem in problems:
                    print(f"{args.trace}:{line_number}: {problem}")
                print(f"{len(problems)} problem(s)")
                return 1
            print(f"{args.trace}: valid obs trace")
            return 0
        if args.width < 1:
            _log.error(f"error: --width must be >= 1 (got {args.width})")
            return 2
        if is_sqlite_path(args.trace):
            try:
                conn = open_store(args.trace, readonly=True)
            except StoreSchemaError as exc:
                _log.error(f"error: {exc}")
                return 2
            try:
                summary = summarize_store(conn, trace=args.trace_id)
            except QueryError as exc:
                _log.error(f"error: {exc}")
                return 2
            finally:
                conn.close()
        elif args.trace_id is not None:
            _log.error(f"error: --trace-id applies to a sqlite store; "
                       f"{args.trace} is a JSONL trace")
            return 2
        else:
            summary = summarize_records(iter_trace(args.trace))
    except FileNotFoundError:
        _log.error(f"error: no such trace: {args.trace}")
        return 2
    print(render_summary(summary, width=args.width))
    return 0


def _render_query(headers, rows, output_format: str) -> str:
    """Render one (headers, rows) query result as table or JSON."""
    if output_format == "json":
        import json

        return json.dumps(
            {"headers": list(headers),
             "rows": [list(row) for row in rows]},
            indent=2,
        )
    from repro.metrics.report import format_table

    if not rows:
        return "(no rows)"
    rendered = [
        tuple("" if cell is None else cell for cell in row) for row in rows
    ]
    return format_table(tuple(headers), rendered)


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import (StoreIngestError, StoreSchemaError,
                             StoreWriter, ingest_path, open_store)
    from repro.store.schema import schema_versions
    from pathlib import Path

    try:
        if args.store_command == "info":
            conn = open_store(args.db, readonly=True)
            try:
                for key, value in sorted(schema_versions(conn).items()):
                    print(f"{key:14s} {value}")
                for tbl in ("sweeps", "runs", "run_rows", "run_metrics",
                            "traces", "obs_records", "phase_metrics",
                            "migration_decisions"):
                    exists = conn.execute(
                        "SELECT 1 FROM sqlite_master WHERE type = 'table' "
                        "AND name = ?", (tbl,)).fetchone()
                    count = conn.execute(
                        f"SELECT COUNT(*) FROM {tbl}"
                    ).fetchone()[0] if exists else 0
                    print(f"{tbl:20s} {count} rows")
            finally:
                conn.close()
            return 0

        if args.label is not None and len(args.paths) > 1:
            _log.error("error: --label applies to a single PATH")
            return 2
        with StoreWriter(args.db) as writer:
            for path in args.paths:
                kind, row_id = ingest_path(writer, Path(path),
                                           label=args.label)
                print(f"ingested {path} -> {kind} {row_id}")
        return 0
    except FileNotFoundError as exc:
        _log.error(f"error: {exc}")
        return 2
    except (StoreIngestError, StoreSchemaError) as exc:
        _log.error(f"error: {exc}")
        return 2


def _cmd_query(args: argparse.Namespace) -> int:
    import repro.store as store
    from repro.store import QueryError, StoreSchemaError, open_store

    try:
        conn = open_store(args.db, readonly=True)
    except (FileNotFoundError, StoreSchemaError) as exc:
        _log.error(f"error: {exc}")
        return 2
    try:
        if args.query_command == "sweeps":
            headers, rows = store.list_sweeps(conn)
        elif args.query_command == "traces":
            headers, rows = store.list_traces(conn)
        elif args.query_command == "table":
            result = store.run_table(conn, args.sweep, args.experiment)
            if args.format == "json":
                import json

                print(json.dumps(result, indent=2))
                return 0
            headers = tuple(result["headers"])
            rows = [tuple(row) for row in result["rows"]]
        elif args.query_command == "curve":
            headers, rows = store.degradation_curve(
                conn, args.sweep, experiment=args.experiment,
                metric=args.metric, workload=args.workload)
        elif args.query_command == "diff":
            headers, rows = store.cross_sweep_diff(
                conn, args.a, args.b, args.experiment, args.metric)
        elif args.query_command == "regressions":
            headers, rows = store.top_regressions(
                conn, args.a, args.b, top=args.top,
                experiment=args.experiment, metric=args.metric)
        elif args.query_command == "timeline":
            headers, rows = store.phase_timeline(conn, args.trace)
        else:
            headers, rows = store.migration_provenance(
                conn, args.trace, name=args.event, limit=args.limit)
    except QueryError as exc:
        _log.error(f"error: {exc}")
        return 2
    finally:
        conn.close()
    print(_render_query(headers, rows, args.format))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.config import baseline_config, full_scale_config, \
        starnuma_config
    from repro.topology import Topology
    from repro.topology.model import LinkKind

    config = {
        "baseline": baseline_config,
        "starnuma": starnuma_config,
        "full-scale": full_scale_config,
    }[args.system]()
    topology = Topology(config)

    print(f"system: {config.name}")
    print(f"  {config.n_chassis} chassis x {config.sockets_per_chassis} "
          f"sockets x {config.cores_per_socket} cores = "
          f"{config.n_cores} cores")
    core = config.core
    print(f"  core: {core.frequency_ghz:.1f} GHz, {core.issue_width}-wide, "
          f"{core.rob_entries}-entry ROB, "
          f"L1 {core.l1_kb} KB / L2 {core.l2_kb} KB / "
          f"LLC {core.llc_kb_per_core} KB/core "
          f"({core.llc_latency_cycles} cycles)")
    print(f"  memory: {config.memory_per_socket_gb:.0f} GB/socket"
          + (f" + {config.pool_memory_gb:.0f} GB pool"
             if config.pool.enabled else " (no pool)"))
    latency = config.latency
    print(f"  latency ns: local {latency.local_ns:.0f} / 1-hop "
          f"{latency.intra_chassis_ns:.0f} / 2-hop "
          f"{latency.inter_chassis_ns:.0f}"
          + (f" / pool {latency.pool_ns:.0f} "
             f"(incl. {config.pool.directory_margin_ns:.0f} ns MHD "
             f"directory)" if config.pool.enabled else ""))
    counts = {}
    for link in topology.links.values():
        counts.setdefault(link.kind, [0, link.capacity_gbps])
        counts[link.kind][0] += 1
    print("  links:")
    for kind in (LinkKind.UPI, LinkKind.NUMALINK, LinkKind.CXL,
                 LinkKind.DRAM):
        if kind in counts:
            n, capacity = counts[kind]
            print(f"    {kind.value:9s} x{n:<3d} "
                  f"{capacity:.1f} GB/s per direction")
    migration = config.migration
    print(f"  migration: tracker {migration.tracker.name}, region "
          f"{migration.region_bytes >> 10} KB, limit "
          f"{migration.migration_limit_pages} pages/phase")
    return 0


def _changed_files(base_ref: str) -> Optional[set]:
    """Absolute paths of files changed since ``base_ref`` (via git)."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", base_ref, "--"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    from pathlib import Path

    return {str(Path(line).resolve())
            for line in proc.stdout.splitlines() if line.strip()}


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import (Baseline, BaselineError, LintReport,
                            build_project, create_rules, render_json,
                            render_sarif, render_text, rule_descriptions,
                            run_lint)

    if args.list_rules:
        for name, description in sorted(rule_descriptions().items()):
            print(f"{name:14s} {description}")
        return 0

    paths = args.paths or ["src/repro"]
    for path in paths:
        if not Path(path).exists():
            _log.error(f"error: no such path: {path}")
            return 2

    try:
        rules = create_rules(args.rules)
    except KeyError as exc:
        _log.error(f"error: {exc.args[0]}")
        return 2

    project, parse_errors = build_project(paths)
    baseline_path = Path(args.baseline)

    if args.update_baseline:
        report = run_lint(project, rules=rules,
                          extra_findings=parse_errors)
        Baseline.from_findings(report.findings, project).save(baseline_path)
        print(f"wrote {len(report.findings)} finding(s) to {baseline_path}")
        return 0

    baseline = None
    if not args.no_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            _log.error(f"error: {exc}")
            return 2
    report = run_lint(project, rules=rules, baseline=baseline,
                      extra_findings=parse_errors)
    if args.changed:
        # Diff-aware reporting: the analysis above still saw the whole
        # program (call graphs do not respect diff hunks); only the
        # *reporting* narrows to files touched since BASE_REF.
        changed = _changed_files(args.changed)
        if changed is None:
            _log.error(f"error: git diff against {args.changed!r} failed")
            return 2
        report = LintReport(
            findings=[finding for finding in report.findings
                      if str(Path(finding.path).resolve()) in changed],
            suppressed=report.suppressed,
            n_files=report.n_files,
            rule_names=report.rule_names,
        )
    if args.format == "json":
        rendered = render_json(report)
    elif args.format == "sarif":
        rendered = render_sarif(report)
    else:
        rendered = render_text(report)
    print(rendered)
    return 0 if report.is_clean else 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_run(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    setup_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        if args.command in ("run", "export", "chaos", "serve"):
            if args.command not in ("chaos", "serve"):
                message = _validate_common(args)
                if message is not None:
                    _log.error(f"error: {message}")
                    return 2
            if args.obs_trace:
                from repro.obs import configure as obs_configure
                from repro.obs import shutdown as obs_shutdown
                from repro.store import is_sqlite_path

                if is_sqlite_path(args.obs_trace):
                    _log.error(f"error: --obs-trace writes JSONL, and "
                               f"{args.obs_trace} names a sqlite store; "
                               f"write a .jsonl trace and load it with "
                               f"'starnuma store ingest'")
                    return 2
                obs_configure(trace_path=args.obs_trace, level=args.obs_level)
                try:
                    return _dispatch(args)
                finally:
                    obs_shutdown()
                    _log.info(f"obs trace written to {args.obs_trace}")
        return _dispatch(args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `starnuma obs summary | head`);
        # detach stdout so the interpreter's shutdown flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
