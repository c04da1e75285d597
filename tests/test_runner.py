"""The parallel runner: planning, pooling, and the persistent cache.

The load-bearing guarantees:

* the planner's jobs are exactly what the runners simulate, deduped
  across experiments;
* a pooled run produces **bit-identical** experiment data to a serial
  run (simulations are deterministic, so process fan-out must be
  invisible);
* the first failing job ends the run and leaves no worker behind;
* a warm disk cache satisfies a rerun without executing anything;
* the cache's schema hash covers every package a simulation runs;
* ``clear_caches`` really clears, including the disk;
* a run generates each synthetic trace once, into a trace store that
  nothing outlives.

Everything runs at a tiny scale (~13k references per trace) so the
whole module takes seconds.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.common.errors import ConfigurationError
from repro.experiments import RUNNERS, base
from repro.experiments.base import (
    RunOptions,
    clear_caches,
    executed_simulations,
    set_run_options,
    simulate,
    stored_trace,
    trace_records,
)
from repro.hierarchy.config import HierarchyKind
from repro.runner import SimJob, plan_jobs, run_jobs
from repro.runner.disk_cache import (
    _SCHEMA_PACKAGES,
    ResultCache,
    get_cache,
    schema_hash,
)
from repro.trace.synthetic import SyntheticWorkload
from repro.trace.workloads import get_spec, workload_names

SCALE = 0.004


def _src_env() -> dict[str, str]:
    """The environment for a fresh interpreter importing this ``repro``."""
    src = str(Path(repro.__file__).parents[1])
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    set_run_options(RunOptions())
    clear_caches()


def _data(experiment_id: str) -> str:
    """An experiment's raw data, canonicalised for exact comparison."""
    result = RUNNERS[experiment_id](scale=SCALE)
    return json.dumps(result.data, default=str, sort_keys=True)


# -- planner -------------------------------------------------------------------


class TestPlanner:
    def test_jobs_are_deduplicated_across_experiments(self):
        # Figures reuse the Table 6 grid verbatim.
        table6_jobs = plan_jobs(["table6"], SCALE)
        union = plan_jobs(["table6", "figures"], SCALE)
        assert sorted(map(repr, union)) == sorted(map(repr, table6_jobs))

        # The full plan is far smaller than the sum of its parts.
        ids = ["table6", "table7", "figures", "table8_10", "table11_13", "ablation"]
        total = sum(len(plan_jobs([i], SCALE)) for i in ids)
        assert len(plan_jobs(ids, SCALE)) < total

    def test_jobs_ordered_costliest_first(self):
        jobs = plan_jobs(["table11_13"], SCALE)
        costs = [job.cost() for job in jobs]
        assert costs == sorted(costs, reverse=True)
        # No-inclusion jobs pay the snoop-forwarding premium.
        assert jobs[0].kind is HierarchyKind.RR_NO_INCLUSION

    def test_unplannable_experiments_plan_nothing(self):
        assert plan_jobs(["table1", "table2", "table3", "table5"], SCALE) == []

    def test_planned_jobs_cover_the_runner(self):
        """After pooling the plan, the runner replays nothing."""
        run_jobs(plan_jobs(["table8_10"], SCALE), n_workers=1)
        executed_before = executed_simulations()
        RUNNERS["table8_10"](scale=SCALE)
        assert executed_simulations() == executed_before


# -- pool ----------------------------------------------------------------------


class TestPool:
    def test_parallel_matches_serial_bit_for_bit(self):
        """Every simulation-backed runner, --jobs 4 vs serial."""
        ids = ["table6", "table7", "figures", "table8_10", "table11_13", "ablation"]
        serial = {i: _data(i) for i in ids}

        clear_caches()
        report = run_jobs(plan_jobs(ids, SCALE), n_workers=4)
        assert report.executed == report.total_jobs > 0
        for experiment_id, expected in serial.items():
            assert _data(experiment_id) == expected

    def test_memo_hits_short_circuit(self):
        jobs = plan_jobs(["table6"], SCALE)
        first = run_jobs(jobs, n_workers=2)
        second = run_jobs(jobs, n_workers=2)
        assert first.executed == len(jobs)
        assert second.executed == 0
        assert second.memo_hits == len(jobs)

    def test_failing_job_stops_the_pool(self):
        """The first job to raise propagates, and no worker outlives it."""
        # At scale 0.02 the queued grid runs for seconds past the 1 s
        # bound, so a pool left running after the raise is caught.
        bad = SimJob("thor", 0.02, "4K", "3K", HierarchyKind.VR)
        with pytest.raises(ConfigurationError):
            run_jobs([bad] + plan_jobs(["table6"], 0.02), n_workers=2)
        deadline = time.monotonic() + 1.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert multiprocessing.active_children() == []


# -- persistent cache ----------------------------------------------------------


def _cache_hammer(root, worker_id, rounds):
    """Store/load loop over a small shared key space (child process).

    Returns the number of loads that produced a value; every value a
    load does produce must be structurally whole — a torn read here
    means the cache leaked a partial entry across processes.
    """
    cache = ResultCache(root)
    hits = 0
    for i in range(rounds):
        key = ("stress", i % 8)
        cache.store(key, {"worker": worker_id, "i": i, "blob": b"x" * 256})
        value = cache.load(key)
        if value is not None:
            if value["blob"] != b"x" * 256:
                raise AssertionError(f"torn read: {value!r}")
            hits += 1
    return hits


def _cache_saboteur(root, rounds):
    """Clobber final entry paths with garbage, in place (child process).

    Non-atomic on purpose: this simulates crashed writers and disk
    corruption.  Every subsequent load must treat the damage as a miss
    (and delete it), never crash.
    """
    cache = ResultCache(root)
    damaged = 0
    for i in range(rounds):
        key = ("stress", i % 8)
        cache.schema_dir.mkdir(parents=True, exist_ok=True)
        try:
            with open(cache._path(key), "wb") as handle:
                handle.write(b"\x80\x05 torn " + bytes([i % 251]) * (i % 29))
            damaged += 1
        except OSError:
            pass
        cache.load(key)
    return damaged


class TestDiskCache:
    def test_warm_cache_executes_nothing(self, tmp_path):
        set_run_options(RunOptions(cache_dir=str(tmp_path)))
        jobs = plan_jobs(["table6"], SCALE)
        cold = run_jobs(jobs, n_workers=2)
        assert cold.executed == len(jobs)
        reference = _data("table6")

        # A "new process": drop the memo but keep the disk.
        base._sim_cache.clear()
        base._trace_cache.clear()
        warm = run_jobs(jobs, n_workers=2)
        assert warm.executed == 0
        assert warm.disk_hits == len(jobs)
        executed_before = executed_simulations()
        assert _data("table6") == reference
        assert executed_simulations() == executed_before

    def test_simulate_consults_the_disk_directly(self, tmp_path):
        """The cache works without the pool: simulate() itself reads it."""
        set_run_options(RunOptions(cache_dir=str(tmp_path)))
        before = simulate("pops", SCALE, "4K", "64K", HierarchyKind.VR)
        base._sim_cache.clear()
        executed_before = executed_simulations()
        after = simulate("pops", SCALE, "4K", "64K", HierarchyKind.VR)
        assert executed_simulations() == executed_before
        assert (
            after.aggregate().counters.as_dict()
            == before.aggregate().counters.as_dict()
        )

    def test_clear_caches_clears_the_disk(self, tmp_path):
        set_run_options(RunOptions(cache_dir=str(tmp_path)))
        simulate("pops", SCALE, "4K", "64K", HierarchyKind.VR)
        cache = get_cache(str(tmp_path))
        assert cache.entry_count() == 1
        clear_caches()
        assert cache.entry_count() == 0
        assert executed_simulations() == 0

    def test_schema_change_invalidates(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store(("a",), {"x": 1})
        assert cache.load(("a",)) == {"x": 1}

        # An older code version left entries under a different schema;
        # the current cache never sees them and prunes them on write.
        stale = tmp_path / ("0" * 16)
        stale.mkdir()
        (stale / "deadbeef.pkl").write_bytes(b"junk")
        fresh = ResultCache(str(tmp_path))
        fresh.store(("b",), {"x": 2})
        assert not stale.exists()
        assert fresh.load(("a",)) == {"x": 1}

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store(("a",), {"x": 1})
        for entry in cache.schema_dir.glob("*.pkl"):
            entry.write_bytes(b"\x80corrupt")
        assert cache.load(("a",)) is None

    def test_options_partition_the_cache(self, tmp_path):
        """Guarded and unguarded results never mix on disk."""
        set_run_options(RunOptions(cache_dir=str(tmp_path)))
        simulate("pops", SCALE, "4K", "64K", HierarchyKind.VR)
        set_run_options(RunOptions(cache_dir=str(tmp_path), check_every=500))
        simulate("pops", SCALE, "4K", "64K", HierarchyKind.VR)
        assert get_cache(str(tmp_path)).entry_count() == 2

    def test_schema_hash_is_stable(self):
        assert schema_hash() == schema_hash()
        assert len(schema_hash()) == 16

    def test_schema_covers_every_package_a_simulation_loads(self):
        """A fresh process's simulate() loads no unhashed package other
        than the layers that plan, render, instrument or check."""
        probe = (
            "import sys\n"
            "from repro.experiments.base import simulate\n"
            "from repro.hierarchy.config import HierarchyKind\n"
            f"simulate('pops', {SCALE}, '4K', '64K', HierarchyKind.VR)\n"
            "print(*sorted({name.split('.')[1] for name in sys.modules\n"
            "               if name.startswith('repro.')}))\n"
        )
        loaded = set(
            subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True,
                text=True,
                check=True,
                env=_src_env(),
            ).stdout.split()
        )
        assert {"core", "hierarchy", "trace"} <= loaded
        non_result = {"experiments", "runner", "obs", "analysis", "perf"}
        assert loaded - non_result <= set(_SCHEMA_PACKAGES)

    def test_concurrent_processes_with_sabotage(self, tmp_path):
        """Several processes hammering one cache root while another
        deliberately corrupts entries in place: no load may ever raise
        or return a torn value, and the cache must stay usable after.

        This is the multi-process guarantee concurrent CLI runs and
        pool workers lean on when they share one cache directory.
        """
        root = str(tmp_path / "shared")
        rounds = 150
        with ProcessPoolExecutor(max_workers=5) as pool:
            futures = [
                pool.submit(_cache_hammer, root, worker_id, rounds)
                for worker_id in range(4)
            ]
            futures.append(pool.submit(_cache_saboteur, root, rounds))
            outcomes = [future.result(timeout=120) for future in futures]
        assert all(count > 0 for count in outcomes)

        # Whatever the dust settled to, every entry is valid-or-miss,
        # and corrupt leftovers are deleted on first touch.
        cache = ResultCache(root)
        for slot in range(8):
            value = cache.load(("stress", slot))
            assert value is None or value["blob"] == b"x" * 256
        leftovers = list(cache.schema_dir.glob(".*.tmp"))
        assert not leftovers
        cache.store(("stress", 0), {"blob": b"x" * 256, "fresh": True})
        assert cache.load(("stress", 0))["fresh"]


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


# -- trace cache bound ---------------------------------------------------------


class TestTraceCache:
    def test_lru_bound(self):
        scales = [SCALE * (1 + i) for i in range(base._TRACE_CACHE_ENTRIES + 2)]
        for scale in scales:
            trace_records("pops", scale)
        assert len(base._trace_cache) == base._TRACE_CACHE_ENTRIES
        # The most recent entries survived, the oldest were evicted.
        assert ("pops", scales[-1]) in base._trace_cache
        assert ("pops", scales[0]) not in base._trace_cache

    def test_lru_refresh_on_hit(self):
        scales = [SCALE * (1 + i) for i in range(base._TRACE_CACHE_ENTRIES)]
        for scale in scales:
            trace_records("pops", scale)
        trace_records("pops", scales[0])  # refresh the oldest
        trace_records("pops", SCALE / 2)  # force one eviction
        assert ("pops", scales[0]) in base._trace_cache
        assert ("pops", scales[1]) not in base._trace_cache

    def test_timings_recorded(self):
        result = simulate("pops", SCALE, "4K", "64K", HierarchyKind.VR)
        assert result.timings["replay_s"] > 0
        assert "trace_gen_s" in result.timings
        assert result.timings["build_s"] >= 0


# -- the trace store ------------------------------------------------------------


class TestTraceStore:
    def test_each_trace_is_generated_once_per_run(self, tmp_path, monkeypatch):
        """The pool's workers and the parent's analyses share one
        generation per distinct (trace, scale)."""
        calls = tmp_path / "generated.txt"
        records = SyntheticWorkload.records

        def counting(self):
            # Pool workers inherit this wrapper through fork.
            with open(calls, "a", encoding="utf-8") as handle:
                handle.write(f"{self.spec.name}/{self.spec.total_refs}\n")
            return records(self)

        monkeypatch.setattr(SyntheticWorkload, "records", counting)
        run_jobs(plan_jobs(["table6", "table7"], SCALE), 2)
        RUNNERS["table1"](scale=SCALE)
        generated = calls.read_text(encoding="utf-8").split()
        assert sorted(generated) == sorted(
            f"{name}/{get_spec(name, SCALE).total_refs}" for name in workload_names()
        )

    def test_store_is_outside_equality_and_keys(self):
        plain = RunOptions()
        stored = RunOptions(trace_store="/elsewhere")
        assert stored == plain
        assert hash(stored) == hash(plain)
        assert stored.result_key_parts() == plain.result_key_parts()

    def test_clear_caches_empties_the_store(self):
        path = stored_trace("pops", SCALE)
        assert os.path.exists(path)
        clear_caches()
        assert not os.path.exists(path)

    def test_library_store_is_removed_at_exit(self):
        probe = (
            "import os\n"
            "from repro.experiments.base import simulate, trace_store\n"
            "from repro.hierarchy.config import HierarchyKind\n"
            f"simulate('pops', {SCALE}, '4K', '64K', HierarchyKind.VR)\n"
            "root = trace_store()\n"
            "print(root)\n"
            "print(sorted(os.listdir(root)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=_src_env(),
        ).stdout
        root, listing = out.splitlines()
        assert f"pops-{SCALE!r}.rtb" in listing
        assert not os.path.exists(root)


def _recording_mkdtemp(monkeypatch) -> list[str]:
    """Record every temporary directory made while the test runs."""
    created: list[str] = []
    mkdtemp = tempfile.mkdtemp

    def recording(*args, **kwargs):
        path = mkdtemp(*args, **kwargs)
        created.append(path)
        return path

    monkeypatch.setattr(tempfile, "mkdtemp", recording)
    return created


# -- CLI integration -----------------------------------------------------------


class TestCli:
    def test_interrupted_precompute_exits_130(self, monkeypatch):
        from repro.experiments import cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_precompute", interrupted)
        code = cli.main(
            ["table5", "--scale", str(SCALE), "--jobs", "2", "--no-cache"]
        )
        assert code == 130

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_no_cache_run_leaves_no_store(self, monkeypatch, capsys, jobs):
        from repro.experiments import cli

        created = _recording_mkdtemp(monkeypatch)
        code = cli.main(
            ["table6", "--scale", str(SCALE), "--jobs", jobs, "--no-cache"]
        )
        assert code == 0
        stores = [path for path in created if "repro-traces-" in path]
        assert len(stores) == 1
        assert not os.path.exists(stores[0])

    def test_interrupted_run_leaves_no_store(self, monkeypatch, capsys):
        """Ctrl-C while the pool replays from a full store."""
        from repro.experiments import cli

        created = _recording_mkdtemp(monkeypatch)
        seen: list[list[str]] = []

        def interrupted(*args, **kwargs):
            seen.append(sorted(os.listdir(base.get_run_options().trace_store)))
            raise KeyboardInterrupt

        monkeypatch.setattr(base, "seed_memo", interrupted)
        code = cli.main(
            ["table6", "--scale", str(SCALE), "--jobs", "2", "--no-cache"]
        )
        assert code == 130
        assert len(seen[0]) == len(workload_names())
        stores = [path for path in created if "repro-traces-" in path]
        assert len(stores) == 1
        assert not os.path.exists(stores[0])
