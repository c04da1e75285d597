"""The fault-tolerant supervisor: chaos drills, quarantine, resume.

The load-bearing guarantees:

* chaos decisions are a pure function of ``(seed, job, attempt)`` —
  drills are reproducible;
* worker kills, mid-job raises and hangs are healed by retries, and
  the healed run's experiment data is **bit-identical** to a clean
  serial run;
* poison jobs (failing on every attempt) are quarantined with a
  structured failure record instead of aborting the grid;
* the run journal makes interrupted grids resumable, and a resumed
  run refuses to re-poison the pool with quarantined jobs;
* the CLI maps partial failure to exit code 3 and invalid resilience
  flags to exit code 2.

Everything runs at a tiny scale so the whole module stays fast.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import pytest

from repro.common.errors import ChaosError, ConfigurationError
from repro.experiments import RUNNERS, base
from repro.experiments.base import RunOptions, clear_caches, set_run_options
from repro.faults import ChaosConfig
from repro.runner import (
    FailureRecord,
    RunJournal,
    RunReport,
    SupervisorConfig,
    plan_jobs,
    reset_runner_metrics,
    run_jobs,
    runner_metrics,
)
from repro.runner.disk_cache import ResultCache, key_digest, schema_hash
from repro.runner.pool import _execute_job
from repro.runner.supervisor import Supervisor

SCALE = 0.004


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    reset_runner_metrics()
    yield
    set_run_options(RunOptions())
    clear_caches()
    reset_runner_metrics()


def _data(experiment_id: str) -> str:
    """An experiment's raw data, canonicalised for exact comparison."""
    result = RUNNERS[experiment_id](scale=SCALE)
    return json.dumps(result.data, default=str, sort_keys=True)


def _jobs(n: int | None = None):
    jobs = plan_jobs(["table6"], SCALE)
    return jobs if n is None else jobs[:n]


# -- chaos configuration -------------------------------------------------------


class TestChaosConfig:
    def test_decisions_are_deterministic(self):
        cfg = ChaosConfig(kill_rate=0.4, raise_rate=0.3, seed=11)
        digests = [f"{i:032x}" for i in range(64)]
        first = [cfg.decide(d, 1) for d in digests]
        assert [cfg.decide(d, 1) for d in digests] == first
        assert set(first) <= {"kill", "raise", None}
        assert any(first)  # 70% misbehaviour over 64 draws

    def test_seed_changes_decisions(self):
        digests = [f"{i:032x}" for i in range(64)]
        a = [ChaosConfig(kill_rate=0.5, seed=1).decide(d, 1) for d in digests]
        b = [ChaosConfig(kill_rate=0.5, seed=2).decide(d, 1) for d in digests]
        assert a != b

    def test_later_attempts_are_safe(self):
        cfg = ChaosConfig(raise_rate=1.0, first_attempts=2, seed=0)
        assert cfg.decide("ab" * 16, 1) == "raise"
        assert cfg.decide("ab" * 16, 2) == "raise"
        assert cfg.decide("ab" * 16, 3) is None

    def test_poison_fails_on_every_attempt(self):
        cfg = ChaosConfig(poison_one_in=1, seed=0)
        assert cfg.is_poisoned("00" * 16)
        for attempt in (1, 5, 100):
            assert cfg.decide("00" * 16, attempt) == "raise"

    def test_apply_raise_raises_chaos_error(self):
        cfg = ChaosConfig(raise_rate=1.0, seed=0)
        with pytest.raises(ChaosError):
            cfg.apply("cd" * 16, 1)

    def test_inactive_config_never_fires(self):
        cfg = ChaosConfig()
        assert not cfg.active
        assert cfg.decide("ef" * 16, 1) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(kill_rate=1.5)
        with pytest.raises(ConfigurationError):
            ChaosConfig(kill_rate=0.8, hang_rate=0.5)
        with pytest.raises(ConfigurationError):
            ChaosConfig(hang_s=-1.0)


# -- supervised execution ------------------------------------------------------


class TestSupervisor:
    def test_clean_supervised_run_matches_serial(self):
        serial = _data("table6")
        clear_caches()
        jobs = _jobs()
        report = run_jobs(jobs, 4, supervisor=SupervisorConfig())
        assert report.executed == len(jobs)
        assert report.healthy
        assert report.retried == report.quarantined == 0
        assert set(report.outcomes.values()) == {"ok"}
        # A clean run mints no runner counters, so merged metric
        # snapshots stay byte-identical across --jobs settings.
        assert runner_metrics().snapshot()["counters"] == {}
        assert _data("table6") == serial

    def test_worker_kills_heal_and_stay_bit_identical(self):
        serial = _data("table6")
        clear_caches()
        jobs = _jobs()
        chaos = ChaosConfig(kill_rate=0.6, seed=7, first_attempts=1)
        n_kills = sum(
            1
            for job in jobs
            if chaos.decide(key_digest(job.key()), 1) == "kill"
        )
        assert n_kills > 0
        report = run_jobs(jobs, 4, supervisor=SupervisorConfig(chaos=chaos))
        assert report.executed == len(jobs)
        assert report.healthy
        assert report.pool_rebuilds >= 1
        assert report.retried >= n_kills
        assert runner_metrics().snapshot()["counters"]["runner.pool_rebuild"] >= 1
        assert _data("table6") == serial

    def test_raises_heal_on_retry(self):
        jobs = _jobs(4)
        chaos = ChaosConfig(raise_rate=1.0, seed=5, first_attempts=1)
        report = run_jobs(jobs, 2, supervisor=SupervisorConfig(chaos=chaos))
        assert report.executed == len(jobs)
        assert report.retried == len(jobs)
        assert report.healthy
        assert set(report.outcomes.values()) == {"retried"}
        assert runner_metrics().snapshot()["counters"]["runner.retry"] == len(jobs)

    def test_poison_jobs_are_quarantined(self, tmp_path):
        jobs = _jobs(4)
        chaos = ChaosConfig(seed=3, poison_one_in=2)
        poisoned = {
            key_digest(job.key())
            for job in jobs
            if chaos.is_poisoned(key_digest(job.key()))
        }
        assert 0 < len(poisoned) < len(jobs)
        config = SupervisorConfig(
            max_attempts=2,
            chaos=chaos,
            quarantine_dir=str(tmp_path / "quarantine"),
            journal_path=str(tmp_path / "journal.jsonl"),
            backoff_base_s=0.01,
        )
        report = run_jobs(jobs, 2, supervisor=config)
        assert report.quarantined == len(poisoned)
        assert report.executed == len(jobs) - len(poisoned)
        assert not report.healthy
        assert {
            digest
            for digest, outcome in report.outcomes.items()
            if outcome == "quarantined"
        } == poisoned
        assert len(report.quarantine_files) == len(poisoned)
        record = FailureRecord.from_file(report.quarantine_files[0])
        assert record.key in poisoned
        assert len(record.attempts) == config.max_attempts
        assert all(a.outcome == "raise" for a in record.attempts)
        assert "ChaosError" in record.attempts[-1].error
        assert record.schema == schema_hash()
        counters = runner_metrics().snapshot()["counters"]
        assert counters["runner.quarantine"] == len(poisoned)

    def test_hung_jobs_time_out_into_quarantine(self, tmp_path):
        jobs = _jobs(2)
        config = SupervisorConfig(
            max_attempts=2,
            job_timeout_s=0.5,
            chaos=ChaosConfig(hang_rate=1.0, hang_s=60.0, seed=1, first_attempts=99),
            quarantine_dir=str(tmp_path / "quarantine"),
            max_pool_rebuilds=50,
            backoff_base_s=0.01,
        )
        report = run_jobs(jobs, 2, supervisor=config)
        assert report.quarantined == len(jobs)
        assert report.timed_out >= len(jobs)
        assert set(report.outcomes.values()) == {"timed_out"}
        record = FailureRecord.from_file(report.quarantine_files[0])
        assert all(a.outcome == "timeout" for a in record.attempts)
        counters = runner_metrics().snapshot()["counters"]
        assert counters["runner.timeout"] >= len(jobs)

    def test_journal_and_resume_skip_finished_work(self, tmp_path):
        set_run_options(RunOptions(cache_dir=str(tmp_path / "cache")))
        journal = tmp_path / "journal.jsonl"
        jobs = _jobs(4)
        config = SupervisorConfig(journal_path=str(journal))
        first = run_jobs(jobs, 2, supervisor=config)
        assert first.executed == len(jobs)
        lines = journal.read_text().splitlines()
        assert len(lines) == len(jobs)
        entries = RunJournal.load(
            str(journal),
            schema_hash(),
            key_digest(base.get_run_options().result_key_parts()),
        )
        assert set(entries) == {key_digest(job.key()) for job in jobs}
        assert all(e.outcome == "ok" for e in entries.values())

        # Crash-and-resume: the memo dies with the process, the disk
        # cache and journal survive.  Nothing re-executes.
        base._sim_cache.clear()
        resumed = run_jobs(
            jobs,
            2,
            supervisor=SupervisorConfig(journal_path=str(journal), resume=True),
        )
        assert resumed.executed == 0
        assert resumed.disk_hits == len(jobs)
        assert journal.read_text().splitlines() == lines

    def test_resume_skips_quarantined_jobs(self, tmp_path):
        jobs = _jobs(3)
        journal = tmp_path / "journal.jsonl"
        skipped = key_digest(jobs[0].key())
        journal.write_text(
            json.dumps(
                {
                    "v": 1,
                    "key": skipped,
                    "outcome": "quarantined",
                    "attempts": 2,
                    "options": key_digest(
                        base.get_run_options().result_key_parts()
                    ),
                    "schema": schema_hash(),
                    "elapsed_s": 0.1,
                }
            )
            + "\n"
        )
        report = run_jobs(
            jobs,
            2,
            supervisor=SupervisorConfig(journal_path=str(journal), resume=True),
        )
        assert report.skipped_quarantined == 1
        assert report.outcomes[skipped] == "skipped_quarantined"
        assert report.executed == len(jobs) - 1
        assert not report.healthy

    def test_journal_load_is_crash_and_version_tolerant(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        good = {
            "v": 1,
            "key": "aa" * 16,
            "outcome": "ok",
            "attempts": 1,
            "options": "od",
            "schema": "sc",
            "elapsed_s": 1.0,
        }
        foreign = dict(good, key="bb" * 16, schema="other")
        rewrite = dict(good, outcome="quarantined", attempts=3)
        journal.write_text(
            json.dumps(good)
            + "\n"
            + json.dumps(foreign)
            + "\n"
            + "not json at all\n"
            + json.dumps(rewrite)
            + "\n"
            + '{"v": 1, "key": "torn'  # crashed writer: no newline, torn
        )
        entries = RunJournal.load(str(journal), "sc", "od")
        assert set(entries) == {"aa" * 16}
        assert entries["aa" * 16].outcome == "quarantined"  # last wins
        assert entries["aa" * 16].attempts == 3

    def test_backoff_is_deterministic_and_bounded(self):
        config = SupervisorConfig(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5, seed=9
        )
        delays = [config.backoff_delay("ab" * 16, n) for n in (1, 2, 3, 4, 5)]
        assert delays == [config.backoff_delay("ab" * 16, n) for n in (1, 2, 3, 4, 5)]
        assert all(d <= 0.5 * (1 + config.backoff_jitter) for d in delays)
        assert delays[0] < delays[2]

    def test_report_describe_surfaces_resilience(self):
        report = RunReport(
            total_jobs=8,
            executed=5,
            retried=2,
            timed_out=1,
            quarantined=1,
            pool_rebuilds=3,
            skipped_quarantined=1,
        )
        text = report.describe()
        assert "2 retried" in text
        assert "1 timeout(s)" in text
        assert "1 quarantined" in text
        assert "3 pool rebuild(s)" in text
        assert "1 skipped (quarantined earlier)" in text
        assert not report.healthy
        assert RunReport(total_jobs=3, executed=3).healthy

    def test_runner_metric_names_are_lintable(self):
        from repro.analysis.lint import known_metric_names
        from repro.obs import RUNNER_METRIC_NAMES

        assert set(RUNNER_METRIC_NAMES) <= known_metric_names()


# -- deadline expiry and cancellation ------------------------------------------


def _hang_first_attempt(hang_digest, job, options, chaos, attempt):
    """Worker that hangs hard on *hang_digest*'s first attempt only.

    Top-level (and used via ``functools.partial``) so the pool can
    pickle it; every other (job, attempt) does the real work.
    """
    if key_digest(job.key()) == hang_digest and attempt == 1:
        time.sleep(60.0)
    return _execute_job(job, options, chaos, attempt)


class TestDeadlineCancellation:
    def test_expired_job_does_not_poison_later_jobs(self):
        """A timed-out job whose worker is still running must not
        contaminate the rest of the batch: the watchdog kills the pool,
        charges only the culprit, requeues the survivors without
        penalty, and the healed run's data is bit-identical to serial."""
        serial = _data("table6")
        clear_caches()
        jobs = _jobs()
        hang_digest = key_digest(jobs[0].key())
        config = SupervisorConfig(
            max_attempts=2,
            # Far above a real attempt (~0.5s) and far below the hang.
            job_timeout_s=3.0,
            max_pool_rebuilds=10,
            backoff_base_s=0.01,
        )
        report = RunReport(total_jobs=len(jobs), n_workers=2)
        Supervisor(
            jobs,
            base.get_run_options(),
            2,
            config,
            functools.partial(_hang_first_attempt, hang_digest),
        ).run(report)
        assert report.timed_out == 1  # only the hanging job was charged
        assert report.pool_rebuilds >= 1
        assert report.outcomes[hang_digest] == "retried"
        survivors = {
            digest: outcome
            for digest, outcome in report.outcomes.items()
            if digest != hang_digest
        }
        assert set(survivors.values()) == {"ok"}  # requeued penalty-free
        assert report.healthy
        assert _data("table6") == serial


# -- the disk cache's tmp-file race --------------------------------------------


class TestStoreRace:
    def test_store_survives_concurrent_tmp_cleanup(self, tmp_path, monkeypatch):
        """A cleaner unlinking the tmp file mid-store must not break it."""
        cache = ResultCache(str(tmp_path))

        def racing_unlink(self, *args, **kwargs):
            raise FileNotFoundError(self)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        cache.store(("key",), {"v": 1})  # must not raise
        monkeypatch.undo()
        assert cache.load(("key",)) == {"v": 1}


# -- CLI integration -----------------------------------------------------------


class TestCli:
    def test_partial_failure_exits_3(self, monkeypatch, tmp_path):
        import repro.runner as runner_pkg
        from repro.experiments import cli

        fake = RunReport(
            total_jobs=1,
            quarantined=1,
            quarantine_files=[str(tmp_path / "record.json")],
        )
        monkeypatch.setattr(runner_pkg, "plan_jobs", lambda ids, scale: [object()])
        monkeypatch.setattr(
            runner_pkg,
            "run_jobs",
            lambda jobs, n_workers=None, supervisor=None: fake,
        )
        code = cli.main(
            ["table5", "--scale", str(SCALE), "--jobs", "2", "--no-cache"]
        )
        assert code == cli.EXIT_PARTIAL == 3

    def test_interrupted_precompute_exits_130(self, monkeypatch):
        from repro.experiments import cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_precompute", interrupted)
        code = cli.main(
            ["table5", "--scale", str(SCALE), "--jobs", "2", "--no-cache"]
        )
        assert code == 130

    @pytest.mark.parametrize(
        "argv",
        [
            ["table5", "--retries", "-1"],
            ["table5", "--job-timeout", "0"],
            ["table5", "--chaos-kill-rate", "1.5"],
            ["table5", "--chaos-kill-rate", "0.8", "--chaos-hang-rate", "0.5"],
            ["table5", "--no-cache", "--resume"],
        ],
    )
    def test_invalid_resilience_flags_exit_2(self, argv):
        from repro.experiments import cli

        assert cli.main(argv) == 2

    def test_chaos_run_end_to_end(self, tmp_path, capsys):
        """Poisoned grid: healthy jobs finish, exit 3, metrics merged."""
        from repro.experiments import cli

        metrics_out = tmp_path / "metrics.json"
        code = cli.main(
            [
                "table6",
                "--scale",
                str(SCALE),
                "--jobs",
                "2",
                "--no-cache",
                "--retries",
                "1",
                "--chaos-poison-one-in",
                "6",
                "--chaos-seed",
                "3",
                "--journal",
                str(tmp_path / "journal.jsonl"),
                "--quarantine-dir",
                str(tmp_path / "quarantine"),
                "--metrics-out",
                str(metrics_out),
            ]
        )
        assert code == cli.EXIT_PARTIAL
        assert "table6" in capsys.readouterr().out
        records = list((tmp_path / "quarantine").glob("*.json"))
        assert records
        assert FailureRecord.from_file(records[0]).attempts
        snapshot = json.loads(metrics_out.read_text())
        assert snapshot["counters"]["runner.quarantine"] == len(records)
        manifest = json.loads(
            metrics_out.with_suffix(".manifest.json").read_text()
        )
        assert manifest["metrics"] == snapshot
