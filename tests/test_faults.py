"""Tests for the invariant guard and checkpointing."""

import logging
import os
import pickle

import pytest

from repro.common.errors import CheckpointError, IntegrityError
from repro.faults import (
    InvariantGuard,
    load_checkpoint,
    run_checkpointed,
    save_checkpoint,
)
from repro.hierarchy.config import HierarchyConfig
from repro.system.multiprocessor import Multiprocessor


def plain_machine(workload):
    """A two-CPU 1K/8K V-R machine for *workload*."""
    config = HierarchyConfig.sized("1K", "8K")
    return Multiprocessor(workload.layout, workload.spec.n_cpus, config)


def _included_subentry(hier):
    """The first valid subentry whose block has a level-1 child."""
    return next(
        sub
        for rblock in hier.rcache.blocks()
        for sub in rblock.subentries
        if sub.valid and sub.inclusion
    )


class TestFailFastPolicy:
    def test_scheduled_fault_raises_structured_error(self, tiny_workload):
        """A v-pointer corrupted by hand between two runs stops the
        next access with an IntegrityError that names its absolute
        access index, the violations and the affected sets."""
        records = tiny_workload.records()
        machine = plain_machine(tiny_workload)
        guard = InvariantGuard(check_every=1, full_every=1)
        split = next(
            i for i, r in enumerate(records) if i >= 400 and r.kind.is_memory
        )
        done = machine.run(records[:split], guard=guard).refs_processed
        hier = machine.hierarchies[records[split].cpu]
        sub = _included_subentry(hier)
        cache_index, set_index, way = sub.v_pointer
        n_sets = hier.l1_caches[cache_index].config.n_sets
        sub.v_pointer = (cache_index, (set_index + 1) % n_sets, way)
        with pytest.raises(IntegrityError) as exc_info:
            machine.run(records[split:], guard=guard, ref_offset=done)
        error = exc_info.value
        assert error.access_index == done + 1
        assert error.violations
        assert error.snapshot, "expected a tag-store snapshot"
        assert machine.bus.observer is None  # uninstalled on the raise


class TestGuardLifetime:
    def test_guard_detaches_when_its_run_returns(self, tiny_workload):
        """A guarded run leaves no observer on the bus, so the next
        plain run on the same machine is unguarded and replays through
        the walker's native handlers."""
        records = tiny_workload.records()
        half = len(records) // 2
        machine = plain_machine(tiny_workload)
        guarded = machine.run(
            records[:half], guard=InvariantGuard(check_every=100)
        )
        assert guarded.walker == {}
        assert machine.bus.observer is None
        plain = machine.run(records[half:])
        assert plain.walker["native"] > 0


class TestCheckpoint:
    """Checkpointed replay of a record list (the ``TraceCursor`` path)."""

    def _fingerprint(self, machine):
        return (
            [h.stats.counters.as_dict() for h in machine.hierarchies],
            machine.bus.memory.export_state(),
            machine.bus.stats.as_dict(),
        )

    def test_interrupted_run_resumes_bit_identical(self, tiny_workload, tmp_path):
        """Acceptance demo: a checkpointed run killed mid-trace resumes
        to results bit-identical to an uninterrupted one.  The killed
        and resumed runs replay under a fail-fast guard, which finds
        nothing and changes nothing."""
        records = tiny_workload.records()
        key = ("ckpt-test",)

        machine = plain_machine(tiny_workload)
        path_full = str(tmp_path / "full.ckpt")
        full = run_checkpointed(machine, records, path_full, key=key, chunk=1000)
        assert full.refs_processed == tiny_workload.spec.total_refs
        assert not os.path.exists(path_full)  # deleted on completion
        expected = self._fingerprint(machine)

        class Killed(Exception):
            pass

        path = str(tmp_path / "killed.ckpt")
        machine2 = plain_machine(tiny_workload)
        chunks_done = []

        def kill_after_three(position):
            chunks_done.append(position)
            if len(chunks_done) == 3:
                raise Killed

        with pytest.raises(Killed):
            run_checkpointed(
                machine2, records, path, key=key, chunk=1000,
                guard=InvariantGuard(check_every=50),
                on_chunk=kill_after_three,
            )
        assert os.path.exists(path)

        # Resume into a completely fresh machine.
        machine3 = plain_machine(tiny_workload)
        resumed = run_checkpointed(
            machine3, records, path, key=key, chunk=1000,
            guard=InvariantGuard(check_every=50),
        )
        assert resumed.refs_processed == tiny_workload.spec.total_refs
        assert self._fingerprint(machine3) == expected

    def test_key_mismatch_rejected(self, tiny_workload, tmp_path):
        records = tiny_workload.records()
        path = str(tmp_path / "keyed.ckpt")

        class Killed(Exception):
            pass

        def kill_immediately(position):
            raise Killed

        with pytest.raises(Killed):
            run_checkpointed(
                plain_machine(tiny_workload), records, path, key=("run-a",),
                chunk=1000, on_chunk=kill_immediately,
            )
        with pytest.raises(CheckpointError, match="different run"):
            run_checkpointed(
                plain_machine(tiny_workload), records, path, key=("run-b",),
                chunk=1000,
            )

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
        path.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(str(path))

    def test_save_is_atomic(self, tmp_path):
        path = str(tmp_path / "atomic.ckpt")
        save_checkpoint(path, self._minimal_state())
        assert load_checkpoint(path)["version"] == 1
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert not leftovers

    @staticmethod
    def _minimal_state():
        """The smallest dict load_checkpoint accepts as structurally whole."""
        return {
            "format": "repro-checkpoint",
            "version": 1,
            "key": None,
            "position": 0,
            "refs": 0,
            "next_version": 1,
            "memory": {},
            "bus_stats": {},
            "hierarchies": [],
        }

    def test_incomplete_checkpoint_rejected(self, tmp_path):
        """A well-formed pickle missing restore fields must be refused
        before restore_machine mutates anything."""
        path = tmp_path / "partial.ckpt"
        state = self._minimal_state()
        del state["memory"], state["hierarchies"]
        path.write_bytes(pickle.dumps(state))
        with pytest.raises(CheckpointError, match="missing.*memory"):
            load_checkpoint(str(path))

    @pytest.fixture
    def _propagating_repro_logs(self):
        # CLI tests run configure_logging(), which stops the "repro"
        # tree from propagating to the root logger — where caplog
        # listens.  Restore propagation for log-asserting tests so
        # they pass regardless of suite ordering.
        root = logging.getLogger("repro")
        saved = root.propagate
        root.propagate = True
        yield
        root.propagate = saved

    @pytest.mark.usefixtures("_propagating_repro_logs")
    def test_corrupt_checkpoint_discarded_and_restarted(
        self, tiny_workload, tmp_path, caplog
    ):
        """Garbage at the checkpoint path must not kill the run it
        exists to protect: warn, discard, restart from the beginning —
        bit-identical to a run that never had a checkpoint."""
        records = tiny_workload.records()
        key = ("ckpt-corrupt",)

        machine = plain_machine(tiny_workload)
        clean = run_checkpointed(
            machine, records, str(tmp_path / "clean.ckpt"), key=key, chunk=1000
        )
        expected = self._fingerprint(machine)

        path = str(tmp_path / "corrupt.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"\x80\x05 definitely not a checkpoint")
        machine2 = plain_machine(tiny_workload)
        with caplog.at_level(logging.WARNING, logger="repro.faults.checkpoint"):
            resumed = run_checkpointed(machine2, records, path, key=key, chunk=1000)
        assert resumed.refs_processed == clean.refs_processed
        assert self._fingerprint(machine2) == expected
        assert not os.path.exists(path)  # discarded, then deleted on completion
        assert any(
            "discarding unusable checkpoint" in record.message
            for record in caplog.records
        )

    @pytest.mark.usefixtures("_propagating_repro_logs")
    def test_truncated_checkpoint_discarded(self, tiny_workload, tmp_path, caplog):
        """A torn write (truncated pickle) is corruption, not a fatal
        error: the run restarts from the trace beginning."""
        records = tiny_workload.records()
        key = ("ckpt-trunc",)
        path = str(tmp_path / "trunc.ckpt")

        machine = plain_machine(tiny_workload)
        clean = run_checkpointed(
            machine, records, str(tmp_path / "clean.ckpt"), key=key, chunk=1000
        )
        expected = self._fingerprint(machine)

        class Killed(Exception):
            pass

        def kill_immediately(position):
            raise Killed

        with pytest.raises(Killed):
            run_checkpointed(
                plain_machine(tiny_workload), records, path, key=key,
                chunk=1000, on_chunk=kill_immediately,
            )
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 3])

        machine3 = plain_machine(tiny_workload)
        with caplog.at_level(logging.WARNING, logger="repro.faults.checkpoint"):
            resumed = run_checkpointed(machine3, records, path, key=key, chunk=1000)
        assert resumed.refs_processed == clean.refs_processed
        assert self._fingerprint(machine3) == expected
        assert any(
            "restart-from-beginning" in record.message
            for record in caplog.records
        )


class TestCli:
    def test_check_every_flag_accepted(self, capsys):
        from repro.experiments import clear_caches, get_run_options
        from repro.experiments.cli import main

        clear_caches()
        assert main(["table1", "--scale", "0.01", "--check-every", "100"]) == 0
        assert "table1" in capsys.readouterr().out
        # Options are restored after the run.
        assert get_run_options().check_every is None

    def test_invalid_check_every_rejected(self, capsys):
        from repro.experiments.cli import main

        assert main(["table1", "--check-every", "0"]) == 2

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_invalid_scale_rejected(self, scale, capsys):
        from repro.experiments.cli import main

        assert main(["table1", "--scale", scale]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_malformed_scale_environment_rejected(self, monkeypatch, capsys):
        from repro.experiments.cli import build_parser, main

        monkeypatch.setenv("REPRO_SCALE", "abc")
        assert "$REPRO_SCALE" in build_parser().format_help()
        assert main(["table1"]) == 2
        assert "REPRO_SCALE" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        from repro.experiments import cli

        def interrupted(experiment_id):
            def runner(scale=None):
                raise KeyboardInterrupt
            return runner

        monkeypatch.setattr(cli, "get_runner", interrupted)
        assert cli.main(["table6"]) == 130
        assert "interrupted" in capsys.readouterr().err
