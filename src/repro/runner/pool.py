"""The worker pool: fan simulation jobs out across processes.

The parent first resolves every job against the in-process memo and
the disk cache; only true misses are submitted, in two phases.  The
pool first generates each distinct synthetic trace the pending jobs
need, one job per trace, into the run's trace store (a directory of
RPTB files named in the :class:`RunOptions` every job receives), so
generation runs in parallel and exactly once.  Only then are the
simulations submitted: workers receive the *job description* — never
trace records — and stream the trace from the store.  Each worker
installs the parent's :class:`RunOptions`, runs
:func:`repro.experiments.base.simulate` (writing the disk cache as a
side effect), and ships the pickled :class:`SimulationResult` back;
the parent seeds the memo so the experiment runners then find every
simulation precomputed, and its trace analyses decode the same files.

Simulations are deterministic and jobs are deduplicated upstream, so
results are bit-identical to a serial run and no two workers ever
race on the same cache entry.

The pool fails fast.  A job that raises once raises on every attempt,
so the first exception from any job (a dead worker's
``BrokenProcessPool`` included) kills the workers, cancels the queued
jobs, logs the failing job and re-raises; a Ctrl-C tears the pool
down the same way.  Every result that completed before the failure is
already on disk, so a rerun with the same cache directory runs only
the missing jobs.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from time import perf_counter

from ..experiments import base
from ..obs import get_logger
from ..system.multiprocessor import SimulationResult
from .disk_cache import get_cache, key_digest
from .planner import SimJob

logger = get_logger("runner.pool")


@dataclass
class RunReport:
    """How a :func:`run_jobs` call was satisfied.

    ``executed`` counts simulations actually replayed (in workers or,
    for a single pending job, inline); the rest were cache hits.
    """

    total_jobs: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    executed: int = 0
    n_workers: int = 1
    elapsed_s: float = 0.0

    def describe(self) -> str:
        """One status line for the CLI."""
        return (
            f"{self.total_jobs} simulations: {self.executed} run "
            f"({self.n_workers} workers), {self.disk_hits} from disk cache, "
            f"{self.memo_hits} memoised [{self.elapsed_s:.1f}s]"
        )


def _generate_trace(trace: str, scale: float, options: base.RunOptions) -> None:
    """Worker entry point: write *trace* at *scale* into the store."""
    base.set_run_options(options)
    base.stored_trace(trace, scale)


def _execute_job(
    job: SimJob, options: base.RunOptions
) -> tuple[SimulationResult, int]:
    """Worker entry point: simulate *job* under *options*.

    Returns the result and how many simulations were actually
    replayed here (0 when another run's disk entry appeared in the
    meantime).
    """
    base.set_run_options(options)
    before = base.executed_simulations()
    result = base.simulate(
        job.trace,
        job.scale,
        job.l1,
        job.l2,
        job.kind,
        split_l1=job.split_l1,
        block_size=job.block_size,
        seed=job.seed,
        config_overrides=job.config_overrides,
    )
    return result, base.executed_simulations() - before


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every worker of *pool*: a run that is stopping must not
    wait for the jobs still in flight."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        with contextlib.suppress(OSError):
            process.kill()


def run_jobs(jobs: list[SimJob], n_workers: int | None = None) -> RunReport:
    """Pre-compute *jobs* under the installed run options.

    After this returns, every job's result sits in the simulation
    memo (and on disk when a cache directory is configured), so the
    experiment runners replay nothing, and every synthetic trace the
    pool simulated sits in the trace store.  With ``n_workers <= 1``
    or at most one pending job, everything runs in-process — same
    results, no pool overhead.  The first job to raise ends the call:
    its exception propagates once the pool is torn down.
    """
    started = perf_counter()
    options = base.get_run_options()
    report = RunReport(
        total_jobs=len(jobs),
        n_workers=max(1, n_workers if n_workers is not None else os.cpu_count() or 1),
    )

    pending: list[SimJob] = []
    # Tracing bypasses the disk cache (see base.simulate): every event
    # must come from a real replay in this process.
    from ..obs import get_tracer

    use_disk = options.cache_dir is not None and get_tracer() is None
    disk = get_cache(options.cache_dir) if use_disk else None
    for job in jobs:
        key = job.key()
        if base.memo_get(key) is not None:
            report.memo_hits += 1
            continue
        if disk is not None:
            stored = disk.load(base.disk_key(key, options))
            if stored is not None:
                base.seed_memo(key, stored)
                report.disk_hits += 1
                continue
        pending.append(job)

    if report.n_workers <= 1 or len(pending) <= 1:
        for job in pending:
            _, executed = _execute_job(job, options)
            report.executed += executed
        report.elapsed_s = perf_counter() - started
        return report

    # The workers and this process's later trace analyses share one
    # store; a caller that installed none gets this process's own.
    options = replace(options, trace_store=base.trace_store())
    traces = sorted(
        {(job.trace, job.scale) for job in pending if not job.trace.startswith("file:")}
    )
    pool = ProcessPoolExecutor(max_workers=min(report.n_workers, len(pending)))
    try:
        generation = {
            pool.submit(_generate_trace, trace, scale, options): (trace, scale)
            for trace, scale in traces
        }
        for future in as_completed(generation):
            try:
                future.result()
            except Exception:
                logger.error("generating %s at scale %g failed", *generation[future])
                raise
        futures = {pool.submit(_execute_job, job, options): job for job in pending}
        for future in as_completed(futures):
            job = futures[future]
            try:
                result, executed = future.result()
            except Exception:
                logger.error("job %s failed: %r", key_digest(job.key()), job)
                raise
            base.seed_memo(job.key(), result)
            report.executed += executed
    except BaseException:
        # A failed job or a ^C: kill the workers outright rather than
        # let them finish jobs nobody will read, then let the CLI exit
        # 1 with the traceback (or 130).
        _terminate_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    report.elapsed_s = perf_counter() - started
    return report
