"""Command-line entry point: regenerate paper tables and figures.

Examples::

    repro-experiment table6
    repro-experiment figures --scale 0.1
    repro-all --jobs 8                                   # everything, parallel
    repro-experiment all --jobs 4 --profile              # with a profile

Simulations fan out across ``--jobs`` worker processes (default: all
cores) and results persist in an on-disk cache, so a re-run replays
only what changed; ``--no-cache`` forces everything to recompute.

Robustness options::

    repro-experiment table6 --check-every 100           # invariant guard
    repro-experiment table6 --fault-rate 1e-3 \\
        --check-every 100 --guard-policy repair          # inject + repair
    repro-experiment all --checkpoint /tmp/ckpt          # resumable replay

Parallel runs execute under a fault-tolerant supervisor: failed jobs
retry with seeded backoff (``--retries``), jobs running past
``--job-timeout`` seconds are killed and retried, dead workers trigger
a pool rebuild, and jobs that keep failing are quarantined with a
structured failure record instead of aborting the grid.  Completed
jobs land in an append-only journal, so a crashed or interrupted grid
resumes with ``--resume``.  A partially failed run (some jobs
quarantined) exits with code 3.

An interrupted run (Ctrl-C) exits with code 130 after flushing the
results of every experiment that completed; re-running with the same
``--checkpoint`` directory resumes mid-trace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from ..analysis.runtime import DeterminismViolation
from ..common.errors import ConfigurationError
from ..obs import (
    EventTracer,
    RunManifest,
    configure,
    get_logger,
    get_recorder,
    parse_categories,
    set_tracer,
)
from ..obs.log import LEVELS
from ..obs.tracing import CATEGORIES
from . import (
    RunOptions,
    default_scale,
    experiment_ids,
    get_runner,
    set_run_options,
)

logger = get_logger("cli")

#: Exit code when the run finished but some jobs were quarantined.
EXIT_PARTIAL = 3


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Regenerate tables and figures of 'Organization and "
            "Performance of a Two-Level Virtual-Real Cache Hierarchy' "
            "(Wang, Baer & Levy, ISCA 1989) from surrogate traces."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=experiment_ids() + ["all"],
        help="which artefact to regenerate",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help=(
            "trace scale relative to the paper's trace lengths "
            f"(default {default_scale()} or $REPRO_SCALE; 1.0 = full)"
        ),
    )
    runner = parser.add_argument_group("execution")
    runner.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="worker processes for simulations (default: all cores)",
    )
    runner.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "root of the persistent result cache "
            "(default: benchmarks/results/cache or $REPRO_CACHE_DIR)"
        ),
    )
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the persistent result cache",
    )
    runner.add_argument(
        "--profile",
        action="store_true",
        help="profile the run and print the hottest functions",
    )
    guard = parser.add_argument_group("robustness")
    guard.add_argument(
        "--check-every",
        type=int,
        metavar="N",
        default=None,
        help="run the invariant guard every N accesses (off by default)",
    )
    guard.add_argument(
        "--guard-policy",
        choices=["fail-fast", "repair", "log"],
        default="fail-fast",
        help="what the guard does on a violation (default: fail-fast)",
    )
    guard.add_argument(
        "--fault-rate",
        type=float,
        metavar="P",
        default=0.0,
        help="inject each metadata fault kind with per-access probability P",
    )
    guard.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault injector's RNG (default: 0)",
    )
    guard.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="checkpoint simulations into DIR and resume from it",
    )
    guard.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        default=50_000,
        help="trace records between checkpoints (default: 50000)",
    )
    resil = parser.add_argument_group("resilience (supervised parallel runs)")
    resil.add_argument(
        "--retries",
        type=int,
        metavar="N",
        default=2,
        help="retries per failed job before quarantine (default: 2)",
    )
    resil.add_argument(
        "--job-timeout",
        type=float,
        metavar="S",
        default=None,
        help="kill and retry any job running longer than S seconds",
    )
    resil.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip jobs the run journal already marks finished or "
            "quarantined (requires a journal: --journal or a cache dir)"
        ),
    )
    resil.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help=(
            "append-only JSONL journal of completed jobs "
            "(default: <cache-dir>/journal.jsonl when caching)"
        ),
    )
    resil.add_argument(
        "--quarantine-dir",
        metavar="DIR",
        default=None,
        help=(
            "where failure records of quarantined jobs are written "
            "(default: <cache-dir>/quarantine when caching)"
        ),
    )
    chaos = parser.add_argument_group("chaos (deterministic fault drills)")
    chaos.add_argument(
        "--chaos-kill-rate",
        type=float,
        metavar="P",
        default=0.0,
        help="probability a worker SIGKILLs itself per attempt",
    )
    chaos.add_argument(
        "--chaos-hang-rate",
        type=float,
        metavar="P",
        default=0.0,
        help="probability a worker hangs past the job timeout",
    )
    chaos.add_argument(
        "--chaos-raise-rate",
        type=float,
        metavar="P",
        default=0.0,
        help="probability a worker raises mid-job",
    )
    chaos.add_argument(
        "--chaos-hang-s",
        type=float,
        metavar="S",
        default=30.0,
        help="how long a chaos hang sleeps (default: 30)",
    )
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed of the chaos decision RNG (default: 0)",
    )
    chaos.add_argument(
        "--chaos-first-attempts",
        type=int,
        metavar="N",
        default=1,
        help="only the first N attempts of a job misbehave (default: 1)",
    )
    chaos.add_argument(
        "--chaos-poison-one-in",
        type=int,
        metavar="N",
        default=0,
        help="make roughly one job in N fail on every attempt (poison)",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--trace",
        nargs="?",
        const="all",
        default=None,
        metavar="CATS",
        help=(
            "emit structured trace events to a JSONL file; CATS is a "
            f"comma list from {{{','.join(sorted(CATEGORIES))}}} "
            "(bare --trace = all). Forces --jobs 1 and bypasses the "
            "result cache so every event is really generated"
        ),
    )
    obs.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "trace JSONL destination (default: derived from "
            "--metrics-out, else repro-trace.jsonl)"
        ),
    )
    obs.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "write the run's merged metrics snapshot (JSON) here, "
            "plus a run manifest next to it"
        ),
    )
    obs.add_argument(
        "--log-level",
        choices=list(LEVELS),
        default="info",
        help="diagnostic verbosity on stderr (default: info)",
    )
    obs.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "run under the determinism guard: wall-clock/unseeded-random/"
            "uuid/urandom reads from simulation code raise instead of "
            "silently skewing keyed results (statically checked by "
            "repro-lint's RPS rules)"
        ),
    )
    return parser


def _chaos_config(args: argparse.Namespace):
    """The ChaosConfig the flags describe, or None when chaos is off."""
    if not (
        args.chaos_kill_rate
        or args.chaos_hang_rate
        or args.chaos_raise_rate
        or args.chaos_poison_one_in
    ):
        return None
    from ..faults import ChaosConfig

    return ChaosConfig(
        kill_rate=args.chaos_kill_rate,
        hang_rate=args.chaos_hang_rate,
        raise_rate=args.chaos_raise_rate,
        hang_s=args.chaos_hang_s,
        seed=args.chaos_seed,
        first_attempts=args.chaos_first_attempts,
        poison_one_in=args.chaos_poison_one_in,
    )


def _supervisor_config(args: argparse.Namespace, cache_dir: str | None):
    """The supervision policy for this invocation.

    The journal and quarantine directory default into the cache root
    so resumability needs no extra flags; ``--no-cache`` runs keep
    both off unless pointed somewhere explicitly.
    """
    from ..runner import SupervisorConfig

    journal = args.journal
    if journal is None and cache_dir is not None:
        journal = str(Path(cache_dir) / "journal.jsonl")
    quarantine = args.quarantine_dir
    if quarantine is None and cache_dir is not None:
        quarantine = str(Path(cache_dir) / "quarantine")
    return SupervisorConfig(
        max_attempts=args.retries + 1,
        job_timeout_s=args.job_timeout,
        seed=args.chaos_seed,
        quarantine_dir=quarantine,
        journal_path=journal,
        resume=args.resume,
        chaos=_chaos_config(args),
    )


def _precompute(ids: list[str], scale: float, jobs: int, supervisor):
    """Plan and pool-execute the simulations behind *ids*.

    Returns the :class:`~repro.runner.RunReport`, or None when there
    was nothing to plan.
    """
    from ..runner import plan_jobs, run_jobs

    planned = plan_jobs(ids, scale)
    if not planned:
        return None
    report = run_jobs(planned, jobs, supervisor=supervisor)
    logger.info("runner: %s", report.describe())
    return report


def _trace_destination(args: argparse.Namespace) -> Path:
    """Where the trace JSONL goes for this invocation."""
    if args.trace_out is not None:
        return Path(args.trace_out)
    if args.metrics_out is not None:
        return Path(args.metrics_out).with_suffix(".trace.jsonl")
    return Path("repro-trace.jsonl")


def _write_outputs(
    args: argparse.Namespace,
    ids: list[str],
    scale: float,
    options: RunOptions,
    timings: dict[str, float],
    tracer: EventTracer | None,
    trace_path: Path | None,
) -> None:
    """Write the metrics snapshot and the run manifest (if requested)."""
    from ..runner import runner_metrics

    recorder = get_recorder()
    registry = recorder.registry()
    # Fold the supervisor's counters (runner.retry, runner.timeout, …)
    # into the same registry before the single snapshot both the
    # metrics file and the manifest share, so they stay consistent.
    registry.merge(runner_metrics())
    snapshot = registry.snapshot()
    manifest_path: Path | None = None
    if args.metrics_out is not None:
        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        logger.info("metrics snapshot: %s", metrics_path)
        manifest_path = metrics_path.with_suffix(".manifest.json")
    elif trace_path is not None:
        manifest_path = trace_path.with_suffix(".manifest.json")
    if manifest_path is None:
        return
    trace_info: dict = {}
    if tracer is not None:
        trace_info = {
            "path": str(trace_path),
            "categories": sorted(tracer.categories),
            "events": tracer.counts.as_dict(),
            "emitted": tracer.emitted,
        }
    manifest = RunManifest.create(
        ids,
        scale,
        options=options,
        timings_s=timings,
        metrics=snapshot,
        trace=trace_info,
        simulations=len(recorder),
    )
    manifest.write(manifest_path)
    logger.info("run manifest: %s", manifest_path)


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure(args.log_level)
    if args.check_every is not None and args.check_every < 1:
        logger.error("--check-every must be >= 1")
        return 2
    if args.checkpoint_every < 1:
        logger.error("--checkpoint-every must be >= 1")
        return 2
    if not 0.0 <= args.fault_rate <= 1.0:
        logger.error("--fault-rate must be a probability in [0, 1]")
        return 2
    if args.jobs is not None and args.jobs < 1:
        logger.error("--jobs must be >= 1")
        return 2
    if args.retries < 0:
        logger.error("--retries must be >= 0")
        return 2
    if args.job_timeout is not None and args.job_timeout <= 0:
        logger.error("--job-timeout must be > 0 seconds")
        return 2
    try:
        _chaos_config(args)
    except ConfigurationError as exc:
        logger.error("%s", exc)
        return 2
    tracer = None
    trace_path: Path | None = None
    if args.trace is not None:
        try:
            categories = parse_categories(args.trace)
        except ConfigurationError as exc:
            logger.error("%s", exc)
            return 2
        trace_path = _trace_destination(args)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        sink = open(trace_path, "w", encoding="utf-8")
        tracer = EventTracer(categories, sink=sink)
    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    scale = args.scale if args.scale is not None else default_scale()
    cache_dir = args.cache_dir
    if args.no_cache:
        cache_dir = None
    elif cache_dir is None:
        from ..runner import default_cache_dir

        cache_dir = default_cache_dir()
    options = RunOptions(
        check_every=args.check_every,
        guard_policy=args.guard_policy,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
        checkpoint_dir=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        cache_dir=cache_dir,
    )
    supervisor = _supervisor_config(args, cache_dir)
    if args.resume and supervisor.journal_path is None:
        logger.error("--resume needs a journal: pass --journal or enable caching")
        return 2
    previous = set_run_options(options)
    guard = None
    if args.sanitize:
        from ..analysis.runtime import DeterminismGuard

        # In-process only: parallel workers are separate interpreters and
        # run unguarded.  Good enough — every experiment also runs (and is
        # keyed) identically under --jobs 1.
        guard = DeterminismGuard()
        guard.__enter__()
    set_tracer(tracer)
    get_recorder().clear()
    from ..runner import reset_runner_metrics

    reset_runner_metrics()
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    completed = 0
    report = None
    timings: dict[str, float] = {}
    run_started = time.time()
    try:
        jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
        if tracer is not None and jobs > 1:
            # One process, one replay per unique simulation: event
            # counts then provably equal the metrics counts.
            logger.info("tracing active: forcing --jobs 1")
            jobs = 1
        supervised = (
            args.resume
            or args.job_timeout is not None
            or supervisor.chaos is not None
        )
        if jobs > 1 or (supervised and tracer is None):
            report = _precompute(ids, scale, jobs, supervisor)
        for experiment_id in ids:
            started = time.time()
            result = get_runner(experiment_id)(scale=args.scale)
            elapsed = time.time() - started
            timings[experiment_id] = round(elapsed, 3)
            print(result.render())
            print()
            logger.info("%s completed in %.1fs", experiment_id, elapsed)
            completed += 1
        timings["total_s"] = round(time.time() - run_started, 3)
        if tracer is not None:
            tracer.close()
        _write_outputs(args, ids, scale, options, timings, tracer, trace_path)
        if report is not None and not report.healthy:
            for path in report.quarantine_files:
                logger.warning("quarantined job record: %s", path)
            logger.warning(
                "partial run: %d quarantined, %d skipped as quarantined "
                "earlier — exit %d",
                report.quarantined,
                report.skipped_quarantined,
                EXIT_PARTIAL,
            )
            return EXIT_PARTIAL
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except DeterminismViolation as exc:
        logger.error("determinism violation under --sanitize: %s", exc)
        return 2
    except KeyboardInterrupt:
        # Flush what finished, report, and exit with the conventional
        # SIGINT code.  Checkpointed simulations resume on re-run.
        sys.stdout.flush()
        logger.warning(
            "interrupted: %d/%d experiment(s) completed", completed, len(ids)
        )
        return 130
    finally:
        if guard is not None:
            guard.__exit__(None, None, None)
        set_run_options(previous)
        if tracer is not None:
            set_tracer(None)
            tracer.close()
        if profiler is not None:
            import pstats

            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative")
            logger.info("profile (top 30 by cumulative time) follows")
            stats.print_stats(30)
    return 0


def main_all(argv: list[str] | None = None) -> int:
    """The ``repro-all`` entry point: every experiment, one command."""
    return main(["all"] + list(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
