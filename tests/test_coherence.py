"""Multi-hierarchy coherence tests: two or more hierarchies on one bus.

These verify the paper's bus-induced behaviour (section 3): flushes of
dirty first-level copies, invalidations, read-modified-write handling,
and — the paper's headline claim — the shielding of the first-level
cache by an inclusion-maintaining second level.
"""

import pytest

from repro.coherence.bus import Bus, MainMemory
from repro.coherence.protocol import ShareState
from repro.hierarchy.checker import check_all, check_coherence
from repro.hierarchy.config import HierarchyConfig, HierarchyKind
from repro.hierarchy.twolevel import Outcome, TwoLevelHierarchy
from repro.mmu.address_space import MemoryLayout
from repro.system.multiprocessor import Multiprocessor
from repro.trace.record import RefKind, TraceRecord

R = RefKind.READ
W = RefKind.WRITE

#: A virtual address in the shared segment, per pid (same physical).
SHARED = {1: 0x100000, 2: 0x180000}


def shared_layout() -> MemoryLayout:
    layout = MemoryLayout()
    layout.add_private_segment(1, "data", 0x40000, 8)
    layout.add_private_segment(2, "data", 0x40000, 8)
    layout.add_shared_segment("shm", [(1, SHARED[1]), (2, SHARED[2])], 4)
    return layout


def machine(kind=HierarchyKind.VR, n_cpus=2, l1="1K", l2="8K"):
    """(layout, bus, [hierarchies]) with a shared version counter."""
    import itertools

    layout = shared_layout()
    bus = Bus(MainMemory())
    counter = itertools.count(1).__next__
    hierarchies = [
        TwoLevelHierarchy(
            HierarchyConfig.sized(l1, l2, kind=kind),
            layout,
            bus,
            next_version=counter,
        )
        for _ in range(n_cpus)
    ]
    return layout, bus, hierarchies


class TestReadSharing:
    def test_second_reader_sees_shared_state(self):
        layout, bus, (h0, h1) = machine()
        h0.access(1, SHARED[1], R)
        h1.access(2, SHARED[2], R)
        for hier, pid in ((h0, 1), (h1, 2)):
            paddr = layout.translate(pid, SHARED[pid])
            _, sub = hier.rcache.lookup(paddr)
            assert sub.state is ShareState.SHARED

    def test_lone_reader_is_private(self):
        layout, bus, (h0, h1) = machine()
        h0.access(1, SHARED[1], R)
        paddr = layout.translate(1, SHARED[1])
        _, sub = h0.rcache.lookup(paddr)
        assert sub.state is ShareState.PRIVATE

    def test_read_after_remote_write_gets_fresh_data(self):
        layout, bus, (h0, h1) = machine()
        version = h0.access(1, SHARED[1], W).version
        result = h1.access(2, SHARED[2], R)
        assert result.version == version
        check_coherence([h0, h1])

    def test_remote_read_flushes_dirty_v_copy(self):
        layout, bus, (h0, h1) = machine()
        h0.access(1, SHARED[1], W)
        h1.access(2, SHARED[2], R)
        # The flush reached h0's level 1 (one coherence message).
        assert h0.stats.counters["l1_coherence_flushes"] == 1
        paddr = layout.translate(1, SHARED[1])
        _, sub = h0.rcache.lookup(paddr)
        assert not sub.vdirty and sub.state is ShareState.SHARED
        # h0's level-1 copy survives, now clean.
        child = h0.l1_caches[0].block_at(sub.v_pointer)
        assert child.valid and not child.dirty
        check_all(h0)

    def test_flush_updates_memory(self):
        layout, bus, (h0, h1) = machine()
        version = h0.access(1, SHARED[1], W).version
        h1.access(2, SHARED[2], R)
        pblock = layout.translate(1, SHARED[1]) >> 4
        assert bus.memory.peek(pblock) == version

    def test_remote_read_supplied_from_write_buffer(self):
        layout, bus, (h0, h1) = machine()
        version = h0.access(1, SHARED[1], W).version
        # Evict the dirty block into the write buffer.
        h0.access(1, SHARED[1] + h0.config.l1.size, R)
        assert len(h0.write_buffer) == 1
        result = h1.access(2, SHARED[2], R)
        assert result.version == version
        assert h0.stats.counters["l1_coherence_buffer_ops"] == 1
        assert len(h0.write_buffer) == 0
        check_all(h0)

    def test_dirty_l2_supplies_without_disturbing_l1(self):
        layout, bus, (h0, h1) = machine()
        version = h0.access(1, SHARED[1], W).version
        h0.access(1, SHARED[1] + h0.config.l1.size, R)  # evict to buffer
        h0.drain_write_buffer()                          # now rdirty in L2
        before = h0.stats.coherence_to_l1()
        result = h1.access(2, SHARED[2], R)
        assert result.version == version
        assert h0.stats.coherence_to_l1() == before  # shielded


class TestWriteInvalidation:
    def test_write_hit_on_shared_invalidates_peer(self):
        layout, bus, (h0, h1) = machine()
        h0.access(1, SHARED[1], R)
        h1.access(2, SHARED[2], R)
        h0.access(1, SHARED[1], W)  # write hit on clean shared block
        assert h1.stats.counters["l1_coherence_invalidations"] == 1
        paddr = layout.translate(2, SHARED[2])
        assert h1.rcache.lookup(paddr) is None
        assert h1.access(2, SHARED[2], R).outcome is Outcome.MEMORY

    def test_write_becomes_private_after_invalidation(self):
        layout, bus, (h0, h1) = machine()
        h0.access(1, SHARED[1], R)
        h1.access(2, SHARED[2], R)
        h0.access(1, SHARED[1], W)
        paddr = layout.translate(1, SHARED[1])
        _, sub = h0.rcache.lookup(paddr)
        assert sub.state is ShareState.PRIVATE and sub.vdirty

    def test_write_hit_on_private_is_silent(self):
        layout, bus, (h0, h1) = machine()
        h0.access(1, SHARED[1], R)
        before = dict(bus.stats.as_dict())
        h0.access(1, SHARED[1], W)
        assert bus.stats.as_dict().get("invalidate", 0) == before.get(
            "invalidate", 0
        )

    def test_write_miss_on_remote_dirty_flushes_then_invalidates(self):
        layout, bus, (h0, h1) = machine()
        h0.access(1, SHARED[1], W)
        version = h1.access(2, SHARED[2], W).version
        # h0 lost its copy entirely; h1 owns the block dirty.
        paddr = layout.translate(1, SHARED[1])
        assert h0.rcache.lookup(paddr) is None
        assert h1.access(2, SHARED[2], R).version == version
        check_coherence([h0, h1])

    def test_ping_pong_writes_stay_coherent(self):
        layout, bus, (h0, h1) = machine()
        latest = 0
        for _ in range(5):
            latest = h0.access(1, SHARED[1], W).version
            latest = h1.access(2, SHARED[2], W).version
        assert h0.access(1, SHARED[1], R).version == latest
        check_coherence([h0, h1])
        check_all(h0)
        check_all(h1)

    def test_alternating_read_write_many_blocks(self):
        layout, bus, (h0, h1) = machine()
        for i in range(32):
            addr_off = (i % 16) * 16
            h0.access(1, SHARED[1] + addr_off, W)
            h1.access(2, SHARED[2] + addr_off, R)
            h1.access(2, SHARED[2] + addr_off, W)
            h0.access(1, SHARED[1] + addr_off, R)
        check_coherence([h0, h1])
        check_all(h0)
        check_all(h1)


class TestShielding:
    def test_unrelated_traffic_never_reaches_l1(self):
        layout, bus, (h0, h1) = machine()
        h0.access(1, 0x40000, W)  # private data, never shared
        for i in range(16):
            h1.access(2, SHARED[2] + i * 16, W)
        assert h0.stats.coherence_to_l1() == 0

    def test_no_inclusion_forwards_everything(self):
        layout, bus, (h0, h1) = machine(kind=HierarchyKind.RR_NO_INCLUSION)
        h0.access(1, 0x40000, W)
        for i in range(16):
            h1.access(2, SHARED[2] + i * 16, W)
        # Every coherence transaction h1 issued was forwarded to
        # h0's level 1 as a probe.
        assert h0.stats.counters["l1_coherence_probes"] >= 16

    @pytest.mark.parametrize("kind", list(HierarchyKind))
    def test_snoop_of_absent_block_builds_no_peer_set(self, kind):
        # A snoop that misses in a fresh peer probes its tag stores
        # without building a set there: an unbuilt set holds nothing.
        layout, bus, (h0, h1) = machine(kind=kind)
        h0.access(1, SHARED[1], W)
        assert sum(bus.stats.as_dict().values()) > 0  # h1 was snooped
        for store in [h1.rcache.store] + [l1.store for l1 in h1.l1_caches]:
            assert store.live_sets() == []

    @pytest.mark.parametrize("kind", list(HierarchyKind))
    def test_snoops_build_no_view_in_an_idle_peer(self, kind):
        # CPU 0 misses on 256 blocks while CPU 1 holds nothing: every
        # snoop CPU 1 sees misses, and its tag-store lookups scan the
        # arrays without building a single view.
        layout = shared_layout()
        machine = Multiprocessor(
            layout, 2, HierarchyConfig.sized("1K", "8K", kind=kind)
        )
        records = [
            TraceRecord(0, 1, W if i % 3 else R, 0x40000 + 16 * i)
            for i in range(256)
        ]
        machine.run_scalar(records)
        assert sum(machine.bus.stats.as_dict().values()) >= 256
        peer = machine.hierarchies[1]
        for store in [peer.rcache.store] + [l1.store for l1 in peer.l1_caches]:
            assert store.live_sets() == []

    def test_inclusion_rr_shields_like_vr(self):
        layout, bus, (h0, h1) = machine(kind=HierarchyKind.RR_INCLUSION)
        h0.access(1, 0x40000, W)
        for i in range(16):
            h1.access(2, SHARED[2] + i * 16, W)
        assert h0.stats.coherence_to_l1() == 0

    def test_message_count_ordering_across_kinds(self):
        """The paper's Tables 11-13 ordering: VR ~ RR(incl) << RR(no incl).

        Shielding wins on the *unrelated* majority of bus traffic
        (other CPUs' private misses), so the workload is mostly
        private with a little hot sharing — like the real traces.
        """
        counts = {}
        for kind in HierarchyKind:
            layout, bus, (h0, h1) = machine(kind=kind)
            h0.access(1, SHARED[1], R)  # h0 holds one shared block
            for i in range(100):
                h1.access(2, 0x40000 + i * 16, R)   # private bus misses
                if i % 25 == 0:
                    h1.access(2, SHARED[2], W)      # occasional sharing
                    h0.access(1, SHARED[1], R)
            counts[kind] = h0.stats.coherence_to_l1()
        assert counts[HierarchyKind.RR_NO_INCLUSION] > 3 * counts[HierarchyKind.VR]
        assert counts[HierarchyKind.RR_NO_INCLUSION] > 3 * counts[
            HierarchyKind.RR_INCLUSION
        ]


class TestNoInclusionCorrectness:
    def test_orphan_dirty_block_supplied_on_remote_read(self):
        layout, bus, (h0, h1) = machine(
            kind=HierarchyKind.RR_NO_INCLUSION, l1="1K", l2="1K"
        )
        version = h0.access(1, SHARED[1], W).version
        # Push the block out of h0's L2 (64 direct-mapped sets) while
        # it stays dirty in L1: walk private data mapping to all sets.
        for i in range(64):
            h0.access(1, 0x40000 + i * 16, R)
        paddr = layout.translate(1, SHARED[1])
        # L1 may still hold it dirty even though L2 does not.
        result = h1.access(2, SHARED[2], R)
        assert result.version == version
        check_coherence([h0, h1])

    def test_value_oracle_under_churn(self):
        layout, bus, (h0, h1) = machine(
            kind=HierarchyKind.RR_NO_INCLUSION, l1="1K", l2="2K"
        )
        latest = {}
        for i in range(200):
            off = (i * 48) % 2048
            if i % 3 == 0:
                latest[off // 16 * 16] = h0.access(
                    1, SHARED[1] + off // 16 * 16, W
                ).version
            else:
                got = h1.access(2, SHARED[2] + off // 16 * 16, R).version
                assert got == latest.get(off // 16 * 16, 0)
        check_coherence([h0, h1])


class TestProtocolInvariants:
    def test_single_dirty_owner_enforced(self):
        layout, bus, (h0, h1) = machine()
        h0.access(1, SHARED[1], W)
        h1.access(2, SHARED[2], W)
        check_coherence([h0, h1])

    def test_four_cpu_rotation(self):
        import itertools

        layout = MemoryLayout()
        mappings = [(pid, 0x100000 + pid * 0x10000) for pid in (1, 2, 3, 4)]
        layout.add_shared_segment("shm", mappings, 2)
        bus = Bus(MainMemory())
        counter = itertools.count(1).__next__
        hierarchies = [
            TwoLevelHierarchy(
                HierarchyConfig.sized("1K", "8K"), layout, bus,
                next_version=counter,
            )
            for _ in range(4)
        ]
        latest = 0
        for _round in range(8):
            for pid, hier in enumerate(hierarchies, start=1):
                vaddr = 0x100000 + pid * 0x10000
                latest = hier.access(pid, vaddr, W).version
        for pid, hier in enumerate(hierarchies, start=1):
            vaddr = 0x100000 + pid * 0x10000
            assert hier.access(pid, vaddr, R).version == latest
            check_all(hier)
        check_coherence(hierarchies)
