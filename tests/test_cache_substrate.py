"""Unit tests for the cache substrate: config, blocks, tag stores,
replacement policies and the write buffer."""

import pytest

from repro.cache.block import CacheBlock
from repro.cache.config import CacheConfig
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    make_policy,
)
from repro.cache.tagstore import TagStore
from repro.cache.write_buffer import WriteBuffer, WriteBufferEntry
from repro.common.errors import ConfigurationError


class TestCacheConfig:
    def test_geometry_direct_mapped(self):
        cfg = CacheConfig.create("16K", 16)
        assert cfg.n_blocks == 1024
        assert cfg.n_sets == 1024
        assert cfg.block_bits == 4
        assert cfg.set_bits == 10

    def test_geometry_set_associative(self):
        cfg = CacheConfig.create("16K", 16, associativity=4)
        assert cfg.n_sets == 256

    def test_fully_associative(self):
        cfg = CacheConfig.create("1K", 16, associativity=64)
        assert cfg.n_sets == 1

    def test_set_index_and_tag_partition_block_number(self):
        cfg = CacheConfig.create("4K", 16)
        addr = 0x12345678
        reconstructed = cfg.address_of(cfg.tag(addr), cfg.set_index(addr))
        assert reconstructed == cfg.block_base(addr)

    def test_same_block_same_set(self):
        cfg = CacheConfig.create("4K", 16)
        assert cfg.set_index(0x1000) == cfg.set_index(0x100F)

    def test_block_number(self):
        cfg = CacheConfig.create("4K", 16)
        assert cfg.block_number(0x20) == 2

    def test_block_base(self):
        cfg = CacheConfig.create("4K", 16)
        assert cfg.block_base(0x2F) == 0x20

    def test_size_not_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(3000, 16)

    def test_block_larger_than_cache_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(16, 32)

    def test_bad_associativity_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(1024, 16, associativity=0)
        with pytest.raises(ConfigurationError):
            CacheConfig(1024, 16, associativity=63)

    def test_describe(self):
        assert CacheConfig.create("16K", 16).describe() == "16K/16B direct-mapped"
        assert "2-way" in CacheConfig.create("16K", 16, 2).describe()


def fresh_block(set_index=0, way=0):
    """A power-on block, viewed through a 2-way store."""
    store = TagStore(CacheConfig.create("1K", 16, associativity=2))
    return store.ways(set_index)[way]


class TestCacheBlock:
    def test_starts_invalid(self):
        block = fresh_block()
        assert not block.valid and not block.present

    def test_fill_makes_valid_clean(self):
        block = fresh_block()
        block.dirty = True
        block.fill(tag=5, r_pointer=(1, 0, 0), version=7)
        assert block.valid and not block.dirty and block.version == 7

    def test_swap_out_demotes_valid(self):
        block = fresh_block()
        block.fill(1, 0, 0)
        block.swap_out()
        assert not block.valid and block.swapped_valid and block.present

    def test_swap_out_ignores_invalid(self):
        block = fresh_block()
        block.swap_out()
        assert not block.present

    def test_swap_out_preserves_dirty(self):
        block = fresh_block()
        block.fill(1, 0, 0)
        block.dirty = True
        block.swap_out()
        assert block.dirty

    def test_invalidate_clears_all(self):
        block = fresh_block()
        block.fill(1, 0, 0)
        block.dirty = True
        block.invalidate()
        assert not block.present and not block.dirty

    def test_repr_flags(self):
        block = fresh_block(2, 1)
        block.fill(1, 0, 0)
        assert "V" in repr(block)


class TestReplacementPolicies:
    def test_lru_chooses_least_recent(self):
        lru = LRUPolicy(1, 4)
        for way in (0, 1, 2, 3):
            lru.on_install(0, way)
        lru.on_access(0, 0)
        assert lru.choose(0, range(4)) == 1

    def test_lru_respects_candidates(self):
        lru = LRUPolicy(1, 4)
        for way in (0, 1, 2, 3):
            lru.on_install(0, way)
        assert lru.choose(0, [2, 3]) == 2

    def test_lru_empty_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUPolicy(1, 2).choose(0, [])

    def test_lru_recency_order(self):
        lru = LRUPolicy(1, 2)
        lru.on_access(0, 0)
        assert lru.recency_order(0) == [1, 0]

    @pytest.mark.parametrize("cls", [LRUPolicy, FIFOPolicy])
    def test_untouched_set_order_is_way_order(self, cls):
        policy = cls(8, 4)
        policy.on_install(2, 0)
        assert policy.recency_order(5) == [0, 1, 2, 3]
        assert policy.choose(6, range(4)) == 0

    @pytest.mark.parametrize("cls", [LRUPolicy, FIFOPolicy])
    def test_order_snapshot_covers_untouched_sets(self, cls):
        policy = cls(4, 2)
        policy.on_install(1, 0)
        state = policy.export_state()
        assert state == [[0, 1], [1, 0], [0, 1], [0, 1]]
        restored = cls(4, 2)
        restored.on_install(3, 0)  # overwritten by the restore
        restored.restore_state(state)
        assert restored.export_state() == state

    def test_fifo_ignores_accesses(self):
        fifo = FIFOPolicy(1, 2)
        fifo.on_install(0, 0)
        fifo.on_install(0, 1)
        fifo.on_access(0, 0)  # should not refresh way 0
        assert fifo.choose(0, range(2)) == 0

    def test_random_is_seeded(self):
        a = RandomPolicy(1, 8, seed=3)
        b = RandomPolicy(1, 8, seed=3)
        picks_a = [a.choose(0, range(8)) for _ in range(20)]
        picks_b = [b.choose(0, range(8)) for _ in range(20)]
        assert picks_a == picks_b

    def test_random_respects_candidates(self):
        policy = RandomPolicy(1, 8, seed=0)
        assert all(policy.choose(0, [5]) == 5 for _ in range(5))

    def test_make_policy_by_name(self):
        assert isinstance(make_policy("lru", 1, 2), LRUPolicy)
        assert isinstance(make_policy("FIFO", 1, 2), FIFOPolicy)
        assert isinstance(make_policy("random", 1, 2, seed=1), RandomPolicy)

    def test_make_policy_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown replacement"):
            make_policy("clock", 1, 2)


class TestTagStore:
    def _store(self, assoc=2):
        return TagStore(CacheConfig.create("1K", 16, associativity=assoc))

    def test_find_miss(self):
        assert self._store().find(0x40) is None

    def test_install_then_find(self):
        store = self._store()
        block = store.victim(0x40)
        block.fill(store.config.tag(0x40), 0, 0)
        store.note_install(block)
        assert store.find(0x40) is block

    def test_find_does_not_match_other_tag(self):
        store = self._store()
        block = store.victim(0x40)
        block.fill(store.config.tag(0x40), 0, 0)
        other = 0x40 + store.config.size  # same set, different tag
        assert store.find(other) is None

    def test_swapped_needs_flag(self):
        store = self._store()
        block = store.victim(0x40)
        block.fill(store.config.tag(0x40), 0, 0)
        block.swap_out()
        assert store.find(0x40) is None
        assert store.find(0x40, include_swapped=True) is block

    def test_victim_prefers_empty_way(self):
        store = self._store()
        first = store.victim(0x40)
        first.fill(store.config.tag(0x40), 0, 0)
        store.note_install(first)
        second = store.victim(0x40 + store.config.size)
        assert second is not first
        assert not second.present

    def test_victim_lru_when_full(self):
        store = self._store(assoc=2)
        tags = [0x40, 0x40 + 1024, 0x40 + 2048]
        a = store.victim(tags[0])
        a.fill(store.config.tag(tags[0]), 0, 0)
        store.note_install(a)
        b = store.victim(tags[1])
        b.fill(store.config.tag(tags[1]), 0, 0)
        store.note_install(b)
        store.access(tags[0])  # make a MRU
        assert store.victim(tags[2]) is b

    def test_victim_prefer_predicate(self):
        store = self._store(assoc=2)
        for addr in (0x40, 0x40 + 1024):
            block = store.victim(addr)
            block.fill(store.config.tag(addr), 0, 0)
            store.note_install(block)
        ways = store.ways(store.config.set_index(0x40))
        ways[1].dirty = True
        chosen = store.victim(0x40 + 2048, prefer=lambda b: b.dirty)
        assert chosen is ways[1]

    def test_victim_prefer_falls_back_when_none_match(self):
        store = self._store(assoc=2)
        for addr in (0x40, 0x40 + 1024):
            block = store.victim(addr)
            block.fill(store.config.tag(addr), 0, 0)
            store.note_install(block)
        chosen = store.victim(0x40 + 2048, prefer=lambda b: False)
        assert chosen.present  # fell back to plain LRU choice

    def test_swap_out_all_counts(self):
        store = self._store()
        block = store.victim(0x40)
        block.fill(store.config.tag(0x40), 0, 0)
        assert store.swap_out_all() == 1
        assert store.swap_out_all() == 0  # already swapped

    def test_invalidate_all(self):
        store = self._store()
        block = store.victim(0x40)
        block.fill(store.config.tag(0x40), 0, 0)
        assert store.invalidate_all() == 1
        assert store.find(0x40, include_swapped=True) is None

    def test_present_blocks_iteration(self):
        store = self._store()
        assert list(store.present_blocks()) == []
        block = store.victim(0x40)
        block.fill(store.config.tag(0x40), 0, 0)
        assert list(store.present_blocks()) == [block]

    def test_geometry_mismatch_policy_rejected(self):
        cfg = CacheConfig.create("1K", 16, associativity=2)
        with pytest.raises(ConfigurationError):
            TagStore(cfg, replacement=LRUPolicy(4, 4))


class TestLazySets:
    """Sets are built on first use; whole-cache walks see only those."""

    @staticmethod
    def _counting_store(assoc=4):
        built = []

        def factory(set_index, way):
            built.append((set_index, way))
            return CacheBlock(store, set_index, way)

        cfg = CacheConfig.create("4K", 16, associativity=assoc)
        store = TagStore(cfg, block_factory=factory)
        return store, built

    def test_fresh_store_builds_and_iterates_nothing(self):
        store, built = self._counting_store()
        assert list(store) == []
        assert store.live_sets() == []
        assert store.swap_out_all() == 0
        assert store.invalidate_all() == 0
        assert built == []

    def test_victim_builds_exactly_one_set(self):
        store, built = self._counting_store(assoc=4)
        set_index = store.config.set_index(0x1230)
        block = store.victim(0x1230)
        assert built == [(set_index, way) for way in range(4)]
        assert store.live_sets() == [set_index]
        assert list(store) == store.ways(set_index)
        assert block is store.ways(set_index)[0]
        assert len(built) == 4  # ways() reuses the built set

    def test_find_builds_views_only_on_a_hit(self):
        store, built = self._counting_store(assoc=2)
        assert store.find(0x1230, include_swapped=True) is None
        assert built == []
        # State written straight into the arrays, as the replay walker
        # writes it: the set holds data without having been built.
        set_index = store.config.set_index(0x1230)
        g = set_index * 2 + 1
        store.tags[g] = store.config.tag(0x1230)
        store.flags[g] = 1
        assert store.live_sets() == [set_index]
        block = store.find(0x1230)
        assert (block.set_index, block.way) == (set_index, 1)
        assert built == [(set_index, 0), (set_index, 1)]

    def test_walks_visit_live_sets_in_index_order(self):
        store, _ = self._counting_store(assoc=1)
        for addr in (0x300, 0x100, 0x200):
            block = store.victim(addr)
            block.fill(store.config.tag(addr), 0, 0)
        assert [b.set_index for b in store.present_blocks()] == [16, 32, 48]
        assert store.live_sets() == [16, 32, 48]


class TestWriteBuffer:
    def test_push_and_len(self):
        buf = WriteBuffer(capacity=2)
        buf.push(WriteBufferEntry(1, 10))
        assert len(buf) == 1
        assert not buf.full

    def test_full_flag(self):
        buf = WriteBuffer(capacity=1)
        buf.push(WriteBufferEntry(1, 10))
        assert buf.full

    def test_overflow_raises(self):
        buf = WriteBuffer(capacity=1)
        buf.push(WriteBufferEntry(1, 10))
        with pytest.raises(RuntimeError, match="overflow"):
            buf.push(WriteBufferEntry(2, 20))

    def test_fifo_order(self):
        buf = WriteBuffer(capacity=3)
        for pblock in (1, 2, 3):
            buf.push(WriteBufferEntry(pblock, pblock * 10))
        assert buf.pop_oldest().pblock == 1
        assert buf.pop_oldest().pblock == 2

    def test_find(self):
        buf = WriteBuffer(capacity=2)
        buf.push(WriteBufferEntry(7, 70))
        assert buf.find(7).version == 70
        assert buf.find(8) is None

    def test_remove(self):
        buf = WriteBuffer(capacity=2)
        buf.push(WriteBufferEntry(7, 70))
        entry = buf.remove(7)
        assert entry.pblock == 7
        assert len(buf) == 0
        assert buf.remove(7) is None

    def test_drain(self):
        buf = WriteBuffer(capacity=3)
        for pblock in (1, 2):
            buf.push(WriteBufferEntry(pblock, 0))
        drained = buf.drain()
        assert [e.pblock for e in drained] == [1, 2]
        assert len(buf) == 0

    def test_swapped_stat(self):
        buf = WriteBuffer(capacity=2)
        buf.push(WriteBufferEntry(1, 0, swapped=True))
        assert buf.stats["swapped_pushes"] == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            WriteBuffer(capacity=0)

    def test_entries_snapshot(self):
        buf = WriteBuffer(capacity=2)
        buf.push(WriteBufferEntry(1, 0))
        entries = buf.entries()
        buf.pop_oldest()
        assert len(entries) == 1
