"""The invariant checkers must actually detect corruption.

Each test builds a healthy hierarchy, breaks one invariant by hand,
and asserts the matching checker raises — proving the structural
checks used throughout the suite have teeth.
"""

import pytest

from repro.common.errors import InclusionError, IntegrityError, ProtocolError
from repro.faults import InvariantGuard
from repro.hierarchy.checker import (
    check_all,
    check_buffer_bits,
    check_coherence,
    check_pointer_consistency,
    check_single_copy,
    scan_hierarchy,
    scan_l2_set,
)
from repro.cache.write_buffer import WriteBufferEntry
from repro.faults.checkpoint import export_machine
from repro.hierarchy.config import HierarchyConfig
from repro.system.multiprocessor import Multiprocessor
from repro.trace.record import RefKind, TraceRecord
from tests.conftest import build_hierarchy

R, W = RefKind.READ, RefKind.WRITE


@pytest.fixture
def healthy(layout):
    hier = build_hierarchy(layout)
    hier.access(1, 0x40000, R)
    hier.access(1, 0x40100, W)
    check_pointer_consistency(hier)
    return hier


def _sub_of(hier, vaddr):
    paddr = hier.layout.translate(1, vaddr)
    return hier.rcache.lookup(paddr)[1]


class TestPointerChecker:
    def test_detects_cleared_inclusion_bit(self, healthy):
        _sub_of(healthy, 0x40000).inclusion = False
        with pytest.raises(InclusionError, match="no live parent"):
            check_pointer_consistency(healthy)

    def test_detects_dangling_v_pointer(self, healthy):
        sub = _sub_of(healthy, 0x40000)
        child = healthy.l1_caches[0].block_at(sub.v_pointer)
        child.invalidate()
        with pytest.raises(InclusionError, match="empty level-1 slot"):
            check_pointer_consistency(healthy)

    def test_detects_missing_v_pointer(self, healthy):
        _sub_of(healthy, 0x40000).v_pointer = None
        with pytest.raises(InclusionError, match="without v-pointer"):
            check_pointer_consistency(healthy)

    def test_detects_broken_back_pointer(self, healthy):
        sub = _sub_of(healthy, 0x40000)
        child = healthy.l1_caches[0].block_at(sub.v_pointer)
        child.r_pointer = (child.r_pointer[0], child.r_pointer[1], 0)
        bad_set = (child.r_pointer[0] + 1) % healthy.rcache.config.n_sets
        child.r_pointer = (bad_set, 0, 0)
        with pytest.raises(InclusionError):
            check_pointer_consistency(healthy)

    def test_detects_vdirty_without_dirty_child(self, healthy):
        sub = _sub_of(healthy, 0x40000)
        sub.vdirty = True  # child is clean
        with pytest.raises(InclusionError, match="child clean"):
            check_pointer_consistency(healthy)

    def test_detects_dirty_child_without_vdirty(self, healthy):
        sub = _sub_of(healthy, 0x40100)
        sub.vdirty = False  # child IS dirty
        with pytest.raises(InclusionError, match="vdirty clear"):
            check_pointer_consistency(healthy)

    def test_detects_inclusion_on_invalid_subentry(self, healthy):
        sub = _sub_of(healthy, 0x40000)
        sub.valid = False
        with pytest.raises(InclusionError):
            check_pointer_consistency(healthy)


def _replay(machine, path, records):
    """Replay through the scalar loop (``object``: every reference
    through the block objects) or the walker (``soa``: over the flat
    arrays)."""
    return machine.run_scalar(records) if path == "object" else machine.run(records)


class TestLiveSetSweeps:
    @pytest.mark.parametrize("path", ["object", "soa"])
    def test_full_sweeps_of_a_fresh_machine_build_no_set(self, layout, path):
        machine = Multiprocessor(layout, 2, HierarchyConfig.sized("16K", "256K"))
        # A context switch demotes every valid level-1 block; on a fresh
        # machine it must do so without building a set.
        switches = [TraceRecord(cpu, 2, RefKind.CSWITCH) for cpu in (0, 1)]
        _replay(machine, path, switches)
        for hier in machine.hierarchies:
            assert scan_hierarchy(hier) == []
            check_all(hier)
        check_coherence(machine.hierarchies)
        export_machine(machine, 0, 0)
        for hier in machine.hierarchies:
            for store in [hier.rcache.store] + [l1.store for l1 in hier.l1_caches]:
                assert store.live_sets() == []
                assert list(store) == []


class TestBufferChecker:
    def test_detects_bit_without_entry(self, healthy):
        sub = _sub_of(healthy, 0x40000)
        sub.inclusion = False
        sub.buffer = True
        with pytest.raises(InclusionError, match="buffer bits"):
            check_buffer_bits(healthy)

    def test_detects_entry_without_bit(self, healthy):
        healthy.write_buffer.push(WriteBufferEntry(0x999, 1))
        with pytest.raises(InclusionError, match="buffer bits"):
            check_buffer_bits(healthy)


class TestSingleCopyChecker:
    def test_detects_duplicate_children(self, healthy):
        l1 = healthy.l1_caches[0]
        original = l1.block_at(_sub_of(healthy, 0x40000).v_pointer)
        # Forge a second level-1 block claiming the same parent.
        other_set = (original.set_index + 1) % l1.config.n_sets
        forged = l1.store.ways(other_set)[0]
        forged.fill(1234, tuple(original.r_pointer), 0)
        with pytest.raises(InclusionError, match="two level-1 copies"):
            check_single_copy(healthy)


class TestCoherenceChecker:
    def test_detects_two_dirty_owners(self, layout):
        from repro.coherence.bus import Bus, MainMemory

        bus = Bus(MainMemory())
        h0 = build_hierarchy(layout, bus=bus)
        h1 = build_hierarchy(layout, bus=bus)
        h0.access(1, 0x40000, W)
        # Forge a dirty copy of the same physical block in h1 by
        # directly planting an rdirty subentry.
        paddr = h0.layout.translate(1, 0x40000)
        victim = h1.rcache.victim(paddr, prefer_unencumbered=True)
        victim.tag = h1.rcache.config.tag(paddr)
        sub = victim.subentries[h1.rcache.sub_index(paddr)]
        sub.fill(version=99, shared=False)
        sub.rdirty = True
        victim.refresh_valid()
        with pytest.raises(ProtocolError, match="dirty in hierarchies"):
            check_coherence([h0, h1])


class TestSwappedSynonymEdges:
    """Swapped-valid blocks with lazy dirty write-back interacting
    with the synonym machinery: the data must survive re-tags and
    cross-set moves of a block the processor can no longer see."""

    def test_move_of_swapped_dirty_block_keeps_data(self, synonym_layout):
        # 32K level 1: the alias bases differ in an index bit, so the
        # second name forces a cross-set move of the swapped copy.
        hier = build_hierarchy(synonym_layout, l1_size="32K", l2_size="64K")
        a, b = 0x200000, 0x284000
        version = hier.access(1, a, W).version
        hier.context_switch()  # dirty copy demoted to swapped-valid
        result = hier.access(1, b, R)
        assert result.version == version
        # The copy was swapped, so this counts as a swapped restore
        # (the move machinery is exercised, the synonym counter not).
        assert hier.stats.counters["swapped_restores"] == 1
        hier.drain_write_buffer()
        check_all(hier)

    def test_sameset_retag_of_swapped_dirty_block(self, synonym_layout):
        hier = build_hierarchy(synonym_layout)  # 1K: page-offset indexed
        a, b = 0x200000, 0x284000
        version = hier.access(1, a, W).version
        hier.context_switch()
        result = hier.access(1, b, R)
        assert result.version == version
        hier.drain_write_buffer()
        check_all(hier)

    def test_moved_dirty_data_is_not_lost(self, synonym_layout):
        hier = build_hierarchy(synonym_layout, l1_size="32K", l2_size="64K")
        a, b = 0x200000, 0x284000
        version = hier.access(1, a, W).version
        hier.context_switch()
        hier.access(1, b, R)  # cross-set move of the swapped dirty copy
        hier.drain_write_buffer()
        check_all(hier)
        # The written version must still live somewhere: memory, the
        # subentry, or the (moved) level-1 child.
        pblock = hier.rcache.sub_block_number(hier.layout.translate(1, a))
        held = {hier.bus.memory.peek(pblock)}
        found = hier.rcache.lookup_sub_block(pblock)
        if found is not None:
            _, sub = found
            held.add(sub.version)
            if sub.inclusion:
                child = hier.l1_caches[sub.v_pointer[0]].block_at(sub.v_pointer)
                held.add(child.version)
        assert version in held


class TestInclusionRepair:
    """Inclusion-bit corruptions, found by the set scan and by the
    fail-fast guard at the next access boundary."""

    def test_scan_flags_vdirty_without_inclusion(self, healthy):
        sub = _sub_of(healthy, 0x40100)  # written by the fixture
        assert sub.vdirty
        sub.inclusion = False
        rblock = healthy.rcache.lookup(
            healthy.layout.translate(1, 0x40100)
        )[0]
        violations = scan_l2_set(healthy, rblock.set_index)
        assert any(
            "vdirty set without inclusion" in v.message for v in violations
        )

    def test_guard_detects_cleared_inclusion_bit(self, layout):
        hier = build_hierarchy(layout)
        hier.access(1, 0x40000, W)
        _sub_of(hier, 0x40000).inclusion = False  # over a dirty child
        guard = InvariantGuard(check_every=1, full_every=1)
        with pytest.raises(IntegrityError) as exc_info:
            guard.after_access(hier, 1, 0x40000, RefKind.READ, access_index=7)
        error = exc_info.value
        assert error.access_index == 7
        assert error.address == 0x40000
        assert any(
            "vdirty set without inclusion" in v.message
            for v in error.violations
        )

    def test_guard_detects_unlinked_inclusion_bit(self, layout):
        hier = build_hierarchy(layout, l2_block_size=32)
        hier.access(1, 0x40000, R)
        rblock, _ = hier.rcache.lookup(hier.layout.translate(1, 0x40000))
        # The neighbouring subentry was filled by the level-2 miss but
        # has no level-1 child; forging its inclusion bit leaves a
        # v-pointer-less claim the guard must report.
        spare = next(s for s in rblock.subentries if not s.inclusion)
        spare.inclusion = True
        guard = InvariantGuard(check_every=1, full_every=1)
        with pytest.raises(IntegrityError) as exc_info:
            guard.after_access(hier, 1, 0x40000, RefKind.READ, access_index=1)
        assert any(
            "without v-pointer" in v.message for v in exc_info.value.violations
        )
        assert f"l2 set {rblock.set_index}" in exc_info.value.snapshot
