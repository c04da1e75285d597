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
  model checker reaches,
* hand-built no-inclusion traces, one per shape the native miss
  handler leaves to the scalar path, and its parentless drain.

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
from repro.mmu.address_space import DemandLayout, MemoryLayout
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

    def test_tier1_rr_noincl_bit_identical(self):
        config = HierarchyConfig.sized(
            "4K", "64K", kind=HierarchyKind.RR_NO_INCLUSION
        )
        diff = diff_workload("thor", scale=0.005, config=config)
        assert diff.equal, diff.mismatches


R, W = RefKind.READ, RefKind.WRITE


class TestNoInclusionShapes:
    """Hand-built 2-CPU traces for R-R without inclusion: one for each
    shape the native miss handler must leave to the scalar path, and
    one for the drain it commits without a level-2 parent.

    Level 1 is 1K 2-way (set stride 512 B) and level 2 is 2K
    direct-mapped (stride 2K), so ``A`` and ``A + 2K`` share both
    sets: the second evicts the first from level 2 but not from level
    1, which leaves a level-1 copy with no level-2 parent.  CPU 0 runs
    pid 1 and CPU 1 pid 2; both map the page at ``A``.  Each
    hierarchy drains one write-buffer entry every 4th reference.
    """

    CONFIG = HierarchyConfig.sized(
        "1K", "2K", kind=HierarchyKind.RR_NO_INCLUSION, l1_associativity=2
    )
    A = 0x10000
    A2 = A + 0x800  # A's level-1 and level-2 sets
    B = A + 0x200  # A's level-1 set, another level-2 set
    C = A + 0x400  # likewise
    X = A + 0x10  # sets of its own

    #: name -> ((cpu, kind, vaddr) steps, walker escapes, native commits)
    CASES = {
        # CPU 1 keeps A only in level 1, so CPU 0's fill of A is
        # answered has-copy and arrives SHARED; its write then
        # invalidates CPU 1's copy.
        "peer-holds-l1-only": ([(1, R, A), (1, R, A2), (0, R, A), (0, W, A)], 2, 2),
        # CPU 1's dirty A, parentless after A2, is evicted by B into
        # its write buffer; CPU 0's fill of A takes the data from there.
        "peer-holds-write-buffer-only": (
            [(1, W, A), (1, R, A2), (1, R, B), (0, R, A)],
            1,
            3,
        ),
        # CPU 0's A loses its level-2 parent to A2, so the clean write
        # hit on it issues an INVALIDATE.
        "write-hit-on-orphan": ([(1, R, X), (0, R, A), (0, R, A2), (0, W, A)], 1, 3),
        # C evicts dirty A into the write buffer; A's refill, before
        # the next drain, cancels that write-back.  CPU 1's read of A
        # then escapes too: CPU 0 holds A dirty.
        "refill-of-buffered-writeback": (
            [(0, W, A), (0, R, B), (0, R, X), (0, R, X), (0, R, C), (0, R, A),
             (1, R, A)],
            2,
            4,
        ),
        # Dirty A loses its level-2 parent, is evicted by B, and the
        # 4th reference (a pure hit) drains it straight to memory,
        # where CPU 1 reads it.
        "drain-without-l2-parent": (
            [(0, W, A), (0, R, A2), (0, R, B), (0, R, B), (1, R, A)],
            0,
            4,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_walker_matches_scalar(self, case):
        steps, escapes, native = self.CASES[case]
        layout = MemoryLayout()
        layout.add_shared_segment("shm", [(1, self.A), (2, self.A)], n_pages=1)
        records = [TraceRecord(cpu, cpu + 1, kind, va) for cpu, kind, va in steps]
        walker = Multiprocessor(layout, 2, self.CONFIG)
        scalar = Multiprocessor(layout, 2, self.CONFIG)
        result = walker.run(records)
        assert _observables(walker, result) == _observables(
            scalar, scalar.run_scalar(records)
        )
        assert result.walker == {"escapes": escapes, "native": native}


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
    @pytest.mark.parametrize(
        "scenario_name",
        ["vr-invalidate-wb", "rr-incl-invalidate-wb", "rr-noincl-invalidate-wb"],
    )
    def test_soa_state_space_matches_object(self, scenario_name):
        """Over every state the protocol model reaches: from each one,
        every access and context switch leaves the same machine whether
        the walker (``repro.core.soa``) commits it over the arrays or
        the scalar path commits it through the block objects.  Every
        write-back organisation is covered; without inclusion every
        access goes through the native handler's unshielded branch."""
        scenario = scenario_named(scenario_name)
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
