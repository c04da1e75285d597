"""The fault-tolerant experiment supervisor.

``repro.runner.pool`` used to call ``future.result()`` bare: one
worker exception — or one killed process — aborted the whole grid.
This module rebuilds that layer as a *supervising executor* so large
unattended sweeps degrade gracefully instead of aborting:

* **Retries with seeded backoff.**  A failed attempt is retried up to
  :attr:`SupervisorConfig.max_attempts` times with exponential backoff
  plus jitter; the jitter draw is a pure function of ``(run seed, job
  digest, attempt)``, so a rerun schedules identically.
* **Wall-clock watchdog.**  A job running past
  :attr:`SupervisorConfig.job_timeout_s` has its pool killed and is
  charged a ``timeout`` attempt; other in-flight jobs are requeued
  *without* penalty (the culprit is known).
* **``BrokenProcessPool`` recovery.**  A dead worker breaks the whole
  stdlib pool; the supervisor terminates the wreck, rebuilds a fresh
  pool (a bounded number of times) and requeues every in-flight job.
  A pool break cannot be attributed to a single job, so *each*
  in-flight job is charged a ``worker_lost`` attempt — the attempt
  history in the failure record keeps false charges diagnosable, and
  healthy jobs heal on retry.
* **Quarantine.**  A job that exhausts its attempts is quarantined: a
  structured :class:`FailureRecord` (job key, attempt history with
  tracebacks) is written atomically to the quarantine directory and
  the run carries on with the healthy jobs.
* **Run journal.**  Every finished job appends one JSONL line to an
  append-only journal (line-flushed, torn-tail tolerant), so a crashed
  or interrupted run knows on ``--resume`` what already completed and
  which jobs were quarantined — quarantined jobs are skipped instead
  of re-poisoning the pool, and completed results come straight from
  the disk cache.

Everything is observable: ``runner.retry`` / ``runner.timeout`` /
``runner.quarantine`` / ``runner.pool_rebuild`` counters in the
module registry (merged into ``--metrics-out`` snapshots) and a
``runner`` tracer category.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import traceback
from collections import deque
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from pathlib import Path
from time import perf_counter, sleep
from typing import IO, TYPE_CHECKING, Any

from ..experiments import base
from ..faults.chaos import ChaosConfig
from ..obs import MetricsRegistry, get_logger, get_tracer
from ..system.multiprocessor import SimulationResult
from .disk_cache import key_digest, schema_hash
from .planner import SimJob

if TYPE_CHECKING:
    from .pool import RunReport

logger = get_logger("runner.supervisor")

#: Worker entry-point signature the supervisor submits to the pool.
WorkerFn = Callable[
    ["SimJob", base.RunOptions, "ChaosConfig | None", int],
    tuple[SimJob, SimulationResult, int],
]

#: Journal / failure-record format version.
JOURNAL_VERSION = 1

#: Terminal outcomes a resumed run refuses to retry.
_SKIP_ON_RESUME = frozenset({"quarantined", "timed_out"})


# -- supervisor-level metrics --------------------------------------------------

_metrics = MetricsRegistry()


def runner_metrics() -> MetricsRegistry:
    """The supervisor's own counters (``runner.*``), for this process.

    Counters are only minted when a resilience event actually fires,
    so a clean run contributes nothing to a merged snapshot and
    ``--jobs 1`` vs ``--jobs 4`` snapshots stay byte-identical.
    """
    return _metrics


def reset_runner_metrics() -> None:
    """Forget all supervisor counters (between CLI invocations)."""
    global _metrics
    _metrics = MetricsRegistry()


# -- configuration -------------------------------------------------------------


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs for one supervised :func:`~repro.runner.run_jobs`.

    Attributes:
        max_attempts: attempts per job before quarantine (>= 1).
        job_timeout_s: per-job wall-clock budget once the job is
            observed running; None disables the watchdog.
        backoff_base_s: delay before the first retry.
        backoff_factor: multiplier per further retry.
        backoff_max_s: cap on the un-jittered delay.
        backoff_jitter: jitter fraction added on top (0 disables).
        seed: seed of the deterministic jitter draw.
        max_pool_rebuilds: how many times a broken/timed-out pool is
            rebuilt before the remaining jobs are quarantined wholesale;
            None means ``max(4, pending jobs)``.
        quarantine_dir: where :class:`FailureRecord` JSON files land;
            None keeps records on the report only.
        journal_path: append-only JSONL journal of finished jobs;
            None disables journalling (and resume).
        resume: skip jobs the journal marks quarantined/timed out.
        chaos: seeded worker misbehaviour, for tests and chaos smokes.
        poll_interval_s: watchdog tick.
    """

    max_attempts: int = 3
    job_timeout_s: float | None = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    backoff_jitter: float = 0.1
    seed: int = 0
    max_pool_rebuilds: int | None = None
    quarantine_dir: str | None = None
    journal_path: str | None = None
    resume: bool = False
    chaos: ChaosConfig | None = None
    poll_interval_s: float = 0.05

    def backoff_delay(self, digest: str, failures: int) -> float:
        """Seconds to wait before retry number *failures* of *digest*.

        Deterministic: the jitter is drawn from a RNG seeded with
        ``(seed, digest, failures)``, never from shared state.
        """
        delay = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** max(0, failures - 1),
        )
        jitter = random.Random(f"{self.seed}:{digest}:{failures}").random()
        return delay * (1.0 + self.backoff_jitter * jitter)


# -- structured failure records ------------------------------------------------


@dataclass(frozen=True)
class AttemptRecord:
    """One failed attempt at a job.

    ``outcome`` is ``"raise"`` (the job raised in the worker),
    ``"timeout"`` (watchdog expiry) or ``"worker_lost"`` (the pool
    broke while the job was in flight — not necessarily its fault).
    """

    attempt: int
    outcome: str
    elapsed_s: float
    error: str = ""
    traceback: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "elapsed_s": round(self.elapsed_s, 3),
            "error": self.error,
            "traceback": self.traceback,
        }


@dataclass(frozen=True)
class FailureRecord:
    """Why one job was quarantined, with its full attempt history."""

    key: str
    job: dict[str, Any]
    reason: str
    attempts: tuple[AttemptRecord, ...]
    schema: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "v": JOURNAL_VERSION,
            "key": self.key,
            "job": self.job,
            "reason": self.reason,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "schema": self.schema,
        }

    def write(self, directory: str) -> Path:
        """Persist this record as ``<directory>/<key>.json``, atomically."""
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"{self.key}.json"
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(
                json.dumps(self.to_dict(), indent=2, sort_keys=True, default=str)
                + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                tmp.unlink()
        return path

    @classmethod
    def from_file(cls, path: str | Path) -> "FailureRecord":
        """Rebuild a record from :meth:`write` output."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            key=data["key"],
            job=data["job"],
            reason=data["reason"],
            attempts=tuple(
                AttemptRecord(
                    attempt=raw["attempt"],
                    outcome=raw["outcome"],
                    elapsed_s=raw["elapsed_s"],
                    error=raw.get("error", ""),
                    traceback=raw.get("traceback", ""),
                )
                for raw in data["attempts"]
            ),
            schema=data["schema"],
        )


def _job_payload(job: SimJob) -> dict[str, Any]:
    """A JSON-friendly rendering of a job's identifying fields."""
    out: dict[str, Any] = {}
    for spec in fields(job):
        value = getattr(job, spec.name)
        out[spec.name] = value if isinstance(value, (int, float, bool)) else str(value)
    return out


# -- the run journal -----------------------------------------------------------


@dataclass(frozen=True)
class JournalEntry:
    """One finished job: its digest and how it ended.

    ``position`` is the trace position (records consumed) the job
    reached — for successful jobs the full trace length, echoing the
    chunk offsets the checkpoint layer saves, so a resume can report
    where each interrupted run will re-enter its trace.
    """

    key: str
    outcome: str
    attempts: int
    options: str
    schema: str
    elapsed_s: float
    position: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "v": JOURNAL_VERSION,
            "key": self.key,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "options": self.options,
            "schema": self.schema,
            "elapsed_s": round(self.elapsed_s, 3),
            "position": self.position,
        }


class RunJournal:
    """Append-only JSONL log of finished jobs.

    Each line is flushed as it is written (the same crash discipline
    as ``repro.faults.checkpoint``: an interrupted parent loses at
    most the in-flight jobs, never a completed one), and the loader
    tolerates a torn final line, so a journal is always resumable.
    """

    def __init__(self, path: str) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None

    def append(self, entry: JournalEntry) -> None:
        """Record one finished job, durably."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def load(
        path: str, schema: str, options_digest: str
    ) -> dict[str, JournalEntry]:
        """Finished jobs recorded at *path*, last entry per key winning.

        Lines from another schema hash or options profile are ignored
        (stale journals self-invalidate, like the disk cache), as are
        torn or malformed lines.
        """
        entries: dict[str, JournalEntry] = {}
        journal = Path(path)
        if not journal.is_file():
            return entries
        with open(journal, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from a crashed writer
                if not isinstance(raw, dict) or raw.get("v") != JOURNAL_VERSION:
                    continue
                if raw.get("schema") != schema or raw.get("options") != options_digest:
                    continue
                try:
                    entry = JournalEntry(
                        key=raw["key"],
                        outcome=raw["outcome"],
                        attempts=int(raw["attempts"]),
                        options=raw["options"],
                        schema=raw["schema"],
                        elapsed_s=float(raw["elapsed_s"]),
                        position=int(raw.get("position", 0)),
                    )
                except (KeyError, TypeError, ValueError):
                    continue
                entries[entry.key] = entry
        return entries


# -- the supervisor ------------------------------------------------------------


class _JobState:
    """Supervisor-side bookkeeping for one pending job."""

    __slots__ = ("job", "digest", "attempts", "not_before", "started_at", "enqueued")

    def __init__(self, job: SimJob) -> None:
        self.job = job
        self.digest = key_digest(job.key())
        self.attempts: list[AttemptRecord] = []
        self.not_before = 0.0
        self.started_at: float | None = None
        self.enqueued = perf_counter()


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every worker of *pool* (hung workers ignore less)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        with contextlib.suppress(OSError):
            process.kill()


class Supervisor:
    """Drives one set of pending jobs to completion or quarantine.

    The supervisor owns the :class:`ProcessPoolExecutor` (and replaces
    it when it breaks), seeds the simulation memo with every result,
    journals completions, and fills the caller's
    :class:`~repro.runner.pool.RunReport` with per-job outcomes.
    """

    def __init__(
        self,
        pending: list[SimJob],
        options: base.RunOptions,
        n_workers: int,
        config: SupervisorConfig,
        worker: WorkerFn,
    ) -> None:
        self.options = options
        self.n_workers = max(1, n_workers)
        self.config = config
        self.worker = worker
        self._states = [_JobState(job) for job in pending]
        self._options_digest = key_digest(options.result_key_parts())
        self._rebuilds = 0
        self._rebuild_budget = (
            config.max_pool_rebuilds
            if config.max_pool_rebuilds is not None
            else max(4, len(pending))
        )
        self._journal: RunJournal | None = (
            RunJournal(config.journal_path)
            if config.journal_path is not None
            else None
        )
        tracer = get_tracer()
        self._tr_runner = (
            tracer if tracer is not None and tracer.wants("runner") else None
        )

    # -- outcome handling ------------------------------------------------------

    def _journal_entry(
        self, state: _JobState, outcome: str, attempts: int, position: int = 0
    ) -> None:
        if self._journal is None:
            return
        self._journal.append(
            JournalEntry(
                key=state.digest,
                outcome=outcome,
                attempts=attempts,
                options=self._options_digest,
                schema=schema_hash(),
                # elapsed_s is timing *metadata* about the attempt, not
                # part of the journal entry's identity; --resume keys
                # only on (key, outcome, options, schema).
                elapsed_s=perf_counter() - state.enqueued,  # rps: ignore[RPS102]
                position=position,
            )
        )

    def _succeed(
        self,
        report: "RunReport",
        state: _JobState,
        result: SimulationResult,
        executed: int,
    ) -> None:
        base.seed_memo(state.job.key(), result)
        report.executed += executed
        outcome = "retried" if state.attempts else "ok"
        if state.attempts:
            report.retried += 1
        report.outcomes[state.digest] = outcome
        self._journal_entry(
            state, outcome, len(state.attempts) + 1, result.refs_processed
        )

    def _quarantine(
        self, report: "RunReport", state: _JobState, reason: str
    ) -> None:
        last = state.attempts[-1] if state.attempts else None
        outcome = (
            "timed_out" if last is not None and last.outcome == "timeout"
            else "quarantined"
        )
        report.quarantined += 1
        report.outcomes[state.digest] = outcome
        _metrics.inc("runner.quarantine")
        if self._tr_runner is not None:
            self._tr_runner.emit(
                "runner",
                "quarantine",
                job=state.digest,
                attempts=len(state.attempts),
                reason=reason,
            )
        record = FailureRecord(
            key=state.digest,
            job=_job_payload(state.job),
            reason=reason,
            attempts=tuple(state.attempts),
            schema=schema_hash(),
        )
        if self.config.quarantine_dir is not None:
            path = record.write(self.config.quarantine_dir)
            report.quarantine_files.append(str(path))
            logger.warning(
                "quarantined job %s after %d attempt(s): %s (%s)",
                state.digest[:12],
                len(state.attempts),
                reason,
                path,
            )
        else:
            logger.warning(
                "quarantined job %s after %d attempt(s): %s",
                state.digest[:12],
                len(state.attempts),
                reason,
            )
        self._journal_entry(state, outcome, len(state.attempts))

    def _fail(
        self,
        report: "RunReport",
        state: _JobState,
        kind: str,
        exc: BaseException | None,
        queue: "deque[_JobState]",
    ) -> None:
        """Charge *state* one failed attempt; retry or quarantine."""
        now = perf_counter()
        elapsed = now - state.started_at if state.started_at is not None else 0.0
        state.attempts.append(
            AttemptRecord(
                attempt=len(state.attempts) + 1,
                outcome=kind,
                elapsed_s=elapsed,
                error=repr(exc) if exc is not None else "",
                traceback="".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                )
                if exc is not None
                else "",
            )
        )
        state.started_at = None
        if len(state.attempts) >= self.config.max_attempts:
            self._quarantine(report, state, f"exhausted attempts ({kind})")
            return
        failures = len(state.attempts)
        delay = self.config.backoff_delay(state.digest, failures)
        state.not_before = now + delay
        queue.append(state)
        _metrics.inc("runner.retry")
        if self._tr_runner is not None:
            self._tr_runner.emit(
                "runner",
                "retry",
                job=state.digest,
                attempt=failures,
                kind=kind,
                delay_s=round(delay, 4),
            )
        logger.info(
            "retrying job %s (attempt %d/%d failed: %s; backoff %.2fs)",
            state.digest[:12],
            failures,
            self.config.max_attempts,
            kind,
            delay,
        )

    def _discard_pool(
        self, pool: ProcessPoolExecutor, report: "RunReport", why: str
    ) -> None:
        """Kill *pool*'s workers and account one rebuild."""
        _terminate_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
        self._rebuilds += 1
        report.pool_rebuilds += 1
        _metrics.inc("runner.pool_rebuild")
        if self._tr_runner is not None:
            self._tr_runner.emit(
                "runner", "pool_rebuild", rebuild=self._rebuilds, why=why
            )
        logger.warning(
            "worker pool %s: rebuilding (%d/%d)",
            why,
            self._rebuilds,
            self._rebuild_budget,
        )

    # -- the main loop ---------------------------------------------------------

    def run(self, report: "RunReport") -> None:
        """Run every pending job to a terminal outcome, filling *report*."""
        queue = self._resume_filter(report)
        if not queue:
            return
        workers = min(self.n_workers, len(queue))
        inflight: dict[Future[tuple[SimJob, SimulationResult, int]], _JobState] = {}
        pool: ProcessPoolExecutor | None = None
        try:
            while queue or inflight:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=workers)
                now = perf_counter()
                deferred: deque[_JobState] = deque()
                while queue:
                    state = queue.popleft()
                    if state.not_before > now:
                        deferred.append(state)
                        continue
                    attempt = len(state.attempts) + 1
                    future = pool.submit(
                        self.worker,
                        state.job,
                        self.options,
                        self.config.chaos,
                        attempt,
                    )
                    inflight[future] = state
                queue = deferred
                if not inflight:
                    wake = min(state.not_before for state in queue)
                    sleep(max(0.0, min(self.config.poll_interval_s, wake - now)))
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=self.config.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                broken: list[_JobState] = []
                for future in done:
                    state = inflight.pop(future)
                    try:
                        _, result, executed = future.result()
                    except BrokenProcessPool:
                        broken.append(state)
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        self._fail(report, state, "raise", exc, queue)
                    else:
                        self._succeed(report, state, result, executed)
                if broken:
                    # The whole pool is gone: every other in-flight job
                    # is equally lost and equally suspect.
                    broken.extend(inflight.values())
                    inflight.clear()
                    self._discard_pool(pool, report, "broken (worker died)")
                    pool = None
                    for state in broken:
                        self._fail(report, state, "worker_lost", None, queue)
                    if self._over_rebuild_budget(report, queue):
                        return
                    continue
                if self.config.job_timeout_s is not None and inflight:
                    queue, inflight, pool = self._watchdog(
                        report, queue, inflight, pool
                    )
                    if self._over_rebuild_budget(report, queue):
                        return
        except KeyboardInterrupt:
            # Completed jobs are already journalled (one flushed line
            # each); kill the workers so the CLI's exit-130 contract
            # is honoured promptly, leaving the grid resumable.
            if pool is not None:
                _terminate_workers(pool)
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            logger.warning(
                "interrupted: %d job(s) journalled, %d in flight abandoned",
                len(report.outcomes),
                len(inflight),
            )
            raise
        finally:
            if self._journal is not None:
                self._journal.close()
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    # -- helpers ---------------------------------------------------------------

    def _resume_filter(self, report: "RunReport") -> "deque[_JobState]":
        """Drop jobs a resumed journal says not to retry."""
        if not (self.config.resume and self.config.journal_path is not None):
            return deque(self._states)
        prior = RunJournal.load(
            self.config.journal_path, schema_hash(), self._options_digest
        )
        kept: deque[_JobState] = deque()
        for state in self._states:
            entry = prior.get(state.digest)
            if entry is not None and entry.outcome in _SKIP_ON_RESUME:
                report.skipped_quarantined += 1
                report.outcomes[state.digest] = "skipped_quarantined"
                logger.info(
                    "resume: skipping job %s (journalled %s)",
                    state.digest[:12],
                    entry.outcome,
                )
            else:
                kept.append(state)
        return kept

    def _over_rebuild_budget(
        self, report: "RunReport", queue: "deque[_JobState]"
    ) -> bool:
        """Quarantine everything left once the rebuild budget is spent."""
        if self._rebuilds <= self._rebuild_budget:
            return False
        logger.error(
            "pool rebuild budget exhausted (%d); quarantining %d remaining job(s)",
            self._rebuild_budget,
            len(queue),
        )
        while queue:
            self._quarantine(
                report, queue.popleft(), "pool rebuild budget exhausted"
            )
        return True

    def _watchdog(
        self,
        report: "RunReport",
        queue: "deque[_JobState]",
        inflight: dict[Future[tuple[SimJob, SimulationResult, int]], _JobState],
        pool: ProcessPoolExecutor,
    ) -> tuple[
        "deque[_JobState]",
        dict[Future[tuple[SimJob, SimulationResult, int]], _JobState],
        ProcessPoolExecutor | None,
    ]:
        """Kill the pool when any running job exceeds ``job_timeout_s``.

        The expired job is charged a ``timeout`` attempt; other
        in-flight jobs are requeued without penalty — unlike a pool
        break, the culprit is known here.
        """
        limit = self.config.job_timeout_s
        now = perf_counter()
        expired: list[_JobState] = []
        survivors: list[_JobState] = []
        for future, state in inflight.items():
            if state.started_at is None and future.running():
                state.started_at = now
                continue
            if (
                limit is not None
                and state.started_at is not None
                and now - state.started_at > limit
            ):
                expired.append(state)
            else:
                survivors.append(state)
        if not expired:
            return queue, inflight, pool
        inflight = {}
        self._discard_pool(pool, report, "hung (job timeout)")
        for state in survivors:
            state.started_at = None
            queue.append(state)
        for state in expired:
            report.timed_out += 1
            _metrics.inc("runner.timeout")
            if self._tr_runner is not None:
                self._tr_runner.emit(
                    "runner",
                    "timeout",
                    job=state.digest,
                    attempt=len(state.attempts) + 1,
                    limit_s=limit,
                )
            self._fail(report, state, "timeout", None, queue)
        return queue, inflight, None
