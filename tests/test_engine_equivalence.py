"""Replay equivalence: the walker against the scalar reference loop.

``Multiprocessor.run`` replays through the walker (``repro.core.soa``),
which classifies references in vectors and commits hits and common
misses straight over the state arrays; ``Multiprocessor.run_scalar``
sends every reference through ``TwoLevelHierarchy.access``.  The two
must be *bit-identical*.  This module holds the deterministic half of
that argument:

* the differential harness verdicts on scaled tier-1 workloads,
* traces whose pids do not fit the walker's old int64 key packing,
* checkpoint round-trips through the arrays, and the pinned exports,
* the walker against the scalar path from every state the protocol
  model checker reaches.

The randomized half lives in ``test_engine_fuzz.py``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis.differential import (
    canonical_digest,
    diff_workload,
)
from repro.analysis.model import PIDS, ProtocolModel, scenario_named
from repro.core.soa import run_soa
from repro.experiments.base import (
    RunOptions,
    clear_caches,
    set_run_options,
    trace_records,
)
from repro.faults.checkpoint import export_machine, restore_machine
from repro.hierarchy.config import HierarchyConfig, HierarchyKind
from repro.mmu.address_space import DemandLayout
from repro.system.multiprocessor import Multiprocessor
from repro.trace.record import RefKind, TraceRecord
from repro.trace.synthetic import SyntheticWorkload, WorkloadSpec
from repro.trace.workloads import get_spec


def _digest(machine, refs):
    return canonical_digest(export_machine(machine, refs, refs))


def _replay(machine, path, records):
    """Replay through the scalar loop (``object``: every reference
    through the block objects) or the walker (``soa``: over the
    arrays)."""
    return machine.run_scalar(records) if path == "object" else machine.run(records)


def _observables(machine, result) -> tuple[str, str]:
    metrics = json.dumps(result.metrics().snapshot(), sort_keys=True)
    return metrics, _digest(machine, result.refs_processed)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    set_run_options(RunOptions())
    clear_caches()


class TestDifferentialHarness:
    def test_tier1_vr_bit_identical(self):
        diff = diff_workload("abaqus", scale=0.01)
        assert diff.equal, diff.mismatches

    def test_tier1_rr_bit_identical(self):
        config = HierarchyConfig.sized(
            "4K", "64K", kind=HierarchyKind.RR_INCLUSION
        )
        diff = diff_workload("thor", scale=0.005, config=config)
        assert diff.equal, diff.mismatches


class TestWidePids:
    """Trace files carry pids up to 2**32 - 1.  Packed into int64
    vectors, ``pid << 48`` wraps, and pid 65537 would alias pid 1."""

    @staticmethod
    def _records(pids, n=60_000, seed=7):
        rng = random.Random(seed)
        kinds = (RefKind.INSTR, RefKind.READ, RefKind.WRITE)
        return [
            TraceRecord(
                0, rng.choice(pids), rng.choice(kinds), rng.randrange(1 << 20) & ~3
            )
            for _ in range(n)
        ]

    @pytest.mark.parametrize(
        "config, pids",
        [
            (HierarchyConfig.sized("4K", "64K", kind=HierarchyKind.RR_INCLUSION),
             (1, 65537)),
            (HierarchyConfig.sized("4K", "64K", l1_pid_tags=True), (1, 65537)),
            (HierarchyConfig.sized("4K", "64K", kind=HierarchyKind.RR_INCLUSION),
             (1, 2**32 - 1)),
            (HierarchyConfig.sized("4K", "64K", kind=HierarchyKind.RR_NO_INCLUSION),
             (1, 65537)),
            (HierarchyConfig.sized("4K", "64K"), (1, 65537)),
        ],
        ids=["rr-incl", "vr-pid-tags", "rr-incl-max-pid", "rr-noincl", "vr"],
    )
    def test_walker_matches_scalar(self, config, pids):
        records = self._records(pids)
        walker = Multiprocessor(DemandLayout(), 1, config)
        scalar = Multiprocessor(DemandLayout(), 1, config)
        assert _observables(walker, walker.run(records)) == _observables(
            scalar, scalar.run_scalar(records)
        )


class TestCheckpointRoundTrip:
    SPEC = WorkloadSpec(
        name="ckpt",
        n_cpus=2,
        total_refs=6_000,
        context_switches=6,
        seed=11,
        text_pages=8,
        data_pages=32,
    )
    CONFIG = HierarchyConfig.sized("1K", "8K")

    def test_soa_checkpoint_resumes_identically(self):
        """Export mid-run, restore into a fresh machine, finish both;
        every observable must agree."""
        workload = SyntheticWorkload(self.SPEC)
        records, layout = workload.records(), workload.layout
        half = len(records) // 2
        live = Multiprocessor(layout, 2, self.CONFIG)
        live.run(records[:half])
        state = export_machine(live, half, half)

        resumed = Multiprocessor(layout, 2, self.CONFIG)
        restore_machine(resumed, state)

        r_live = live.run(records[half:])
        r_resumed = resumed.run(records[half:])
        assert r_live.refs_processed == r_resumed.refs_processed
        refs = r_live.refs_processed
        assert _digest(live, refs) == _digest(resumed, refs)


class TestCheckpointFormat:
    """Exports of fixed machines, pinned to the digests the eager,
    slot-backed tag stores produced.  Neither lazy sets nor the array
    layout may change a checkpoint, whichever path replays the trace
    (``object``: the scalar loop through the block objects; ``soa``:
    the walker over the arrays): a set never built exports power-on
    entries, in index order, and restoring an export into a fresh
    machine reproduces it and resumes identically on the other path."""

    FRESH = "4e57d74ae10aae471b3922811d674e65878d9e2e7ba6773db7b40fc2f34bfddb"
    AFTER_20K = {
        HierarchyKind.VR: (
            "1a1d52ed423ea3d53b327e80f024d0152e3ad20359b450a3cbb74be931b53774"
        ),
        HierarchyKind.RR_NO_INCLUSION: (
            "2ffe64c7d0544f56cdcea1500f32609074d9e8643a111a3c3c1a6278b4446b8d"
        ),
    }

    @pytest.mark.parametrize("path", ["object", "soa"])
    @pytest.mark.parametrize("kind", sorted(AFTER_20K, key=lambda k: k.value))
    def test_export_digests_pinned(self, path, kind):
        records, layout = trace_records("thor", 0.02)
        n_cpus = get_spec("thor", 0.02).n_cpus
        config = HierarchyConfig.sized("4K", "64K", kind=kind)
        machine = Multiprocessor(layout, n_cpus, config)
        assert _digest(machine, 0) == self.FRESH
        refs = _replay(machine, path, records[:20_000]).refs_processed
        state = export_machine(machine, 20_000, refs)
        assert canonical_digest(state) == self.AFTER_20K[kind]

        restored = Multiprocessor(layout, n_cpus, config)
        restore_machine(restored, state)
        assert canonical_digest(export_machine(restored, 20_000, refs)) == (
            self.AFTER_20K[kind]
        )
        for hier, source in zip(restored.hierarchies, machine.hierarchies):
            live = set(hier.rcache.store.live_sets())
            assert live <= set(source.rcache.store.live_sets())
            assert len(live) < hier.rcache.config.n_sets

        other = "object" if path == "soa" else "soa"
        tail = records[20_000:25_000]
        more = _replay(machine, path, tail).refs_processed
        assert _replay(restored, other, tail).refs_processed == more
        assert _digest(restored, refs + more) == _digest(machine, refs + more)


class TestModelChecker:
    def test_soa_state_space_matches_object(self):
        """Over every state the protocol model reaches: from each one,
        every access and context switch leaves the same machine whether
        the walker (``repro.core.soa``) commits it over the arrays or
        the scalar path commits it through the block objects."""
        scenario = scenario_named("vr-invalidate-wb")
        model = ProtocolModel(scenario)
        events = [
            (name, cpu, action, vaddr)
            for name, cpu, action, vaddr in model._events
            if action != "drain"
        ]
        kinds = {
            "read": RefKind.READ,
            "write": RefKind.WRITE,
            "cswitch": RefKind.CSWITCH,
        }

        def machine_digest() -> str:
            state = model.snapshot()
            del state["expected"]  # the model's read oracle, not the machine
            return canonical_digest(state)

        frontier = [model.snapshot()]
        seen = {model.abstract()}
        compared = 0
        while frontier:
            state = frontier.pop()
            for name, cpu, action, vaddr in events:
                model.restore(state)
                model.apply(name)
                scalar = machine_digest()
                abstract = model.abstract()
                if abstract not in seen:
                    seen.add(abstract)
                    frontier.append(model.snapshot())
                model.restore(state)
                record = TraceRecord(cpu, PIDS[cpu], kinds[action], vaddr or 0)
                run_soa(model, [record])
                assert machine_digest() == scalar, f"{name} from a reachable state"
                compared += 1
        assert len(seen) > 10 and compared > 100
