"""Replay equivalence: the walker against the scalar reference loop.

``Multiprocessor.run`` replays through the walker (``repro.core.soa``),
which looks each reference up in the state arrays in trace order and
commits hits and common misses straight over them;
``Multiprocessor.run_scalar``
sends every reference through ``TwoLevelHierarchy.access``.  The two
must be *bit-identical*.  This module holds the deterministic half of
that argument:

* the differential harness verdicts on scaled tier-1 workloads,
* traces whose pids do not fit the walker's old int64 key packing,
* checkpoint round-trips through the arrays, and the pinned exports,
* the walker against the scalar path from every state the protocol
  model checker reaches,
* hand-built no-inclusion traces, one per shape the native miss
  handler leaves to the scalar path, and its parentless drain,
* hand-built traces for each shape the native bus round commits
  (peer copies met by a fill, writes to SHARED blocks), in all three
  organisations,
* the walker's meter on one shared-data grid simulation.

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
from repro.common.errors import InclusionError, ProtocolError
from repro.core.soa import run_soa
from repro.experiments.base import (
    RunOptions,
    clear_caches,
    set_run_options,
    simulate,
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

    @pytest.mark.parametrize("kind", list(HierarchyKind), ids=lambda k: k.value)
    def test_four_subentry_bus_rounds_bit_identical(self, kind):
        """64-byte level-2 blocks of four subentries: a fill that meets
        a peer is a bus round of four transactions, which the paper
        grid (one subentry per block) never builds.  A direct-mapped
        level 2 keeps the scalar path clear of its duplicate-tag
        fault."""
        config = HierarchyConfig.sized("4K", "64K", l2_block_size=64, kind=kind)
        diff = diff_workload("pops", scale=0.005, config=config)
        assert diff.equal, diff.mismatches


R, W = RefKind.READ, RefKind.WRITE


class TestNoInclusionShapes:
    """Hand-built 2-CPU traces for R-R without inclusion: the shapes
    the native miss handler leaves to the scalar path, two peer shapes
    its unshielded bus round commits, and the drain it commits without
    a level-2 parent.

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

    #: name -> ((cpu, kind, vaddr) steps, walker escapes by reason,
    #: native commits)
    CASES = {
        # CPU 1 keeps A only in level 1, so CPU 0's fill of A is
        # answered has-copy and arrives SHARED; its write then
        # invalidates CPU 1's copy.  Both go through the bus round.
        "peer-holds-l1-only": (
            [(1, R, A), (1, R, A2), (0, R, A), (0, W, A)],
            {},
            4,
        ),
        # CPU 1's dirty A, parentless after A2, is evicted by B into
        # its write buffer; CPU 0's fill of A takes the data from there.
        "peer-holds-write-buffer-only": (
            [(1, W, A), (1, R, A2), (1, R, B), (0, R, A)],
            {"peer-copy": 1},
            3,
        ),
        # CPU 0's A loses its level-2 parent to A2, so the clean write
        # hit on it issues an INVALIDATE.
        "write-hit-on-orphan": (
            [(1, R, X), (0, R, A), (0, R, A2), (0, W, A)],
            {"orphan": 1},
            3,
        ),
        # C evicts dirty A into the write buffer; A's refill, before
        # the next drain, cancels that write-back.  CPU 1's read of A
        # then takes the data from CPU 0's dirty level-1 copy.
        "refill-of-buffered-writeback": (
            [(0, W, A), (0, R, B), (0, R, X), (0, R, X), (0, R, C), (0, R, A),
             (1, R, A)],
            {"wb-cancel": 1},
            5,
        ),
        # Dirty A loses its level-2 parent, is evicted by B, and the
        # 4th reference (a pure hit) drains it straight to memory,
        # where CPU 1 reads it.
        "drain-without-l2-parent": (
            [(0, W, A), (0, R, A2), (0, R, B), (0, R, B), (1, R, A)],
            {},
            4,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_walker_matches_scalar(self, case):
        steps, escapes_by, native = self.CASES[case]
        layout = MemoryLayout()
        layout.add_shared_segment("shm", [(1, self.A), (2, self.A)], n_pages=1)
        records = [TraceRecord(cpu, cpu + 1, kind, va) for cpu, kind, va in steps]
        walker = Multiprocessor(layout, 2, self.CONFIG)
        scalar = Multiprocessor(layout, 2, self.CONFIG)
        result = walker.run(records)
        assert _observables(walker, result) == _observables(
            scalar, scalar.run_scalar(records)
        )
        assert result.walker == {
            "escapes": sum(escapes_by.values()),
            "native": native,
            "escapes_by": escapes_by,
        }


class TestPeerShapes:
    """Hand-built 2-CPU traces, one per shape the native bus round
    commits, in every organisation: a level-2 miss fill that meets a
    peer copy (clean, dirty in the peer's level 1, dirty in its level
    2, or invalidated by a write miss's read-modified-write) and a
    write to a SHARED block (a level-1 write hit, or a level-2-hit
    write fill).

    Level 1 is 1K direct-mapped and level 2 8K with 32-byte blocks
    (two subentries, so a fill is two bus transactions); ``B`` shares
    ``A``'s level-1 set but not its level-2 set.  CPU 0 runs pid 1 and
    CPU 1 pid 2, both mapping the page at ``A``.  Each case replays a
    set-up trace and then the shape's trace, so the shape starts with
    the set-up's copies in place.  In four cases the shape ends with a
    peer reference to a block that was a level-1 hit (or a dirty write
    hit) before the round invalidated or flushed it: the walk must read
    the peer's live level-1 state, not what it held before the round.
    """

    A = 0x10000
    B = A + 0x400

    #: name -> (set-up steps, shape steps); every shape commits natively.
    CASES = {
        "clean-peer-copy": ([(1, R, A)], [(0, R, A)]),
        # CPU 0's read flushes CPU 1's dirty child, so CPU 1's write,
        # a dirty hit before the round, is a clean write hit on SHARED.
        "peer-vdirty-flush": ([(1, W, A)], [(0, R, A), (1, W, A)]),
        # B evicts CPU 1's dirty A into the write buffer and the 4th
        # reference drains it into level 2 (rdirty), which supplies.
        "peer-rdirty-supply": (
            [(1, W, A), (1, R, B), (1, R, B), (1, R, B)],
            [(0, R, A), (1, R, A)],
        ),
        "write-miss-invalidates-peer": ([(1, R, A)], [(0, W, A), (1, R, A)]),
        "write-hit-on-shared": ([(1, R, A), (0, R, A)], [(0, W, A), (1, R, A)]),
        # B evicts CPU 0's clean A from level 1 only: the write then
        # hits SHARED in level 2.
        "l2-hit-write-fill-on-shared": (
            [(1, R, A), (0, R, A), (0, R, B)],
            [(0, W, A), (1, R, A)],
        ),
    }

    def _shape_meter(self, config, setup, shape):
        """Replay the set-up, then the shape, on both paths; return the
        walker's meter for the shape."""
        layout = MemoryLayout()
        layout.add_shared_segment("shm", [(1, self.A), (2, self.A)], n_pages=1)
        walker = Multiprocessor(layout, 2, config)
        scalar = Multiprocessor(layout, 2, config)
        for steps in (setup, shape):
            records = [TraceRecord(cpu, cpu + 1, k, va) for cpu, k, va in steps]
            result = walker.run(records)
            assert _observables(walker, result) == _observables(
                scalar, scalar.run_scalar(records)
            )
        return result.walker

    @pytest.mark.parametrize("kind", list(HierarchyKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_walker_matches_scalar(self, case, kind):
        config = HierarchyConfig.sized("1K", "8K", l2_block_size=32, kind=kind)
        setup, shape = self.CASES[case]
        # Every reference of the shape's trace is a level-1 miss or a
        # clean write hit, and every one commits natively.
        assert self._shape_meter(config, setup, shape) == {
            "escapes": 0,
            "native": len(shape),
            "escapes_by": {},
        }

    @pytest.mark.parametrize("kind", list(HierarchyKind), ids=lambda k: k.value)
    def test_peer_holding_a_block_in_two_ways_escapes(self, kind):
        """With a 2-way level 2, CPU 0's refill of A after CPU 1's
        write takes the empty way: CPU 0 then holds A's tag in two
        ways.  CPU 1's write hit on A and its write fill of A + 16,
        both on SHARED, bail on that peer, and the escapes leave the
        same machine."""
        config = HierarchyConfig.sized(
            "1K", "8K", l2_block_size=32, l2_associativity=2, kind=kind
        )
        setup = [(0, R, self.A), (1, W, self.A), (0, R, self.A)]
        shape = [(1, W, self.A), (1, W, self.A + 16), (0, R, self.A + 16)]
        assert self._shape_meter(config, setup, shape) == {
            "escapes": 2,
            "native": 1,
            "escapes_by": {"shared-fill": 1, "shared-write": 1},
        }


    @pytest.mark.parametrize("kind", list(HierarchyKind), ids=lambda k: k.value)
    def test_peer_buffered_writeback_escapes(self, kind):
        """B evicts CPU 1's dirty A into its write buffer, and no drain
        runs before CPU 0 reads A: the peer's buffer bit (or, without
        inclusion, its buffered entry) leaves the fill to the scalar
        path's flush from the write buffer."""
        config = HierarchyConfig.sized("1K", "8K", l2_block_size=32, kind=kind)
        setup = [(1, W, self.A), (1, R, self.B)]
        assert self._shape_meter(config, setup, [(0, R, self.A)]) == {
            "escapes": 1,
            "native": 0,
            "escapes_by": {"peer-copy": 1},
        }

    #: name -> (set-up steps, CPU whose copy of A is corrupted and
    #: how, trigger steps, the error the scalar path raises).  Each
    #: corrupted state is one the protocol never reaches; the round's
    #: screen must leave the reference to the scalar path, which
    #: rejects it.  Each trigger starts with a level-1 hit by CPU 1,
    #: so the peer whose snoop rejects the state has made a reference
    #: in the walk, and the error must name the same access index.
    REJECTED = {
        # Two peers hold A rdirty: both would supply.
        "two-suppliers": (
            [(1, R, A), (2, R, A)],
            {1: "rdirty", 2: "rdirty"},
            [(1, R, A), (0, R, A)],
            ProtocolError,
        ),
        # A write hit on SHARED finds a peer holding A dirty.
        "invalidate-dirty-copy": (
            [(0, R, A), (1, R, A)],
            {1: "rdirty"},
            [(1, R, A), (0, W, A)],
            ProtocolError,
        ),
        # The invalidation must reach a peer child with no v-pointer.
        "missing-v-pointer": (
            [(0, R, A), (1, R, A)],
            {1: "v_pointer"},
            [(1, R, A), (0, W, A)],
            InclusionError,
        ),
    }

    @pytest.mark.parametrize(
        "case, kind",
        [
            (case, kind)
            for case in sorted(REJECTED)
            for kind in HierarchyKind
            # Without inclusion there are no v-pointers.
            if kind.inclusion or case != "missing-v-pointer"
        ],
        ids=lambda value: getattr(value, "value", value),
    )
    def test_rejected_peer_state_raises_as_scalar(self, case, kind):
        setup, corrupt, trigger, error = self.REJECTED[case]
        config = HierarchyConfig.sized("1K", "8K", l2_block_size=32, kind=kind)
        layout = MemoryLayout()
        layout.add_shared_segment(
            "shm", [(1, self.A), (2, self.A), (3, self.A)], n_pages=1
        )
        raised = []
        for path in ("scalar", "walker"):
            machine = Multiprocessor(layout, 3, config)
            machine.run_scalar(
                [TraceRecord(cpu, cpu + 1, k, va) for cpu, k, va in setup]
            )
            for cpu, field in corrupt.items():
                paddr = layout.translate(cpu + 1, self.A)
                _, sub = machine.hierarchies[cpu].rcache.lookup(paddr)
                if field == "rdirty":
                    sub.rdirty = True
                else:
                    sub.v_pointer = None
            records = [TraceRecord(cpu, cpu + 1, k, va) for cpu, k, va in trigger]
            replay = machine.run_scalar if path == "scalar" else machine.run
            with pytest.raises(error) as info:
                replay(records)
            raised.append(str(info.value))
        assert raised[0] == raised[1]


class TestGridMeter:
    """The walker's meter on one shared-data simulation of the paper's
    grid, pinned as exact counts: a shape the screen stops committing
    shows up as escapes.  Its 4 CPUs share data, so 669 of its
    references met a peer copy or wrote a SHARED block; all of them
    commit natively, and the escapes left are synonyms and write-back
    cancels."""

    def test_pops_vr_meter_pinned(self):
        result = simulate("pops", 0.02, "4K", "64K", HierarchyKind.VR)
        assert result.walker == {
            "escapes": 102,
            "native": 5104,
            "escapes_by": {"synonym": 19, "wb-cancel": 83},
        }


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
