"""Unit tests for the R-cache structure (subentries, sub-block math)."""


from repro.cache.config import CacheConfig
from repro.coherence.protocol import ShareState
from repro.hierarchy.rcache import RCache


def make_rcache(n_subentries=2):
    # 1K cache, 32-byte L2 blocks, two 16-byte subentries each.
    return RCache(CacheConfig.create("1K", 32), n_subentries=n_subentries)


def fresh_block():
    """A power-on R-cache block (two subentries), built by its store."""
    return make_rcache().store.ways(0)[0]


def fresh_sub():
    """A power-on subentry, viewed through its R-cache."""
    return fresh_block().subentries[0]


class TestSubEntry:
    def test_starts_invalid_and_unencumbered(self):
        sub = fresh_sub()
        assert not sub.valid
        assert sub.unencumbered
        assert not sub.dirty_anywhere

    def test_fill_sets_state(self):
        sub = fresh_sub()
        sub.fill(version=5, shared=True)
        assert sub.valid and sub.version == 5
        assert sub.state is ShareState.SHARED

    def test_fill_private(self):
        sub = fresh_sub()
        sub.fill(version=1, shared=False)
        assert sub.state is ShareState.PRIVATE

    def test_encumbered_by_inclusion_or_buffer(self):
        sub = fresh_sub()
        sub.inclusion = True
        assert not sub.unencumbered
        sub.inclusion = False
        sub.buffer = True
        assert not sub.unencumbered

    def test_dirty_anywhere_variants(self):
        for field in ("vdirty", "rdirty", "buffer"):
            sub = fresh_sub()
            setattr(sub, field, True)
            assert sub.dirty_anywhere

    def test_reset(self):
        sub = fresh_sub()
        sub.fill(3, True)
        sub.inclusion = True
        sub.reset()
        assert not sub.valid and sub.unencumbered and sub.version == 0

    def test_repr_flags(self):
        sub = fresh_sub()
        sub.valid = True
        sub.inclusion = True
        assert "I" in repr(sub)


class TestRCacheBlock:
    def test_refresh_valid_tracks_subentries(self):
        block = fresh_block()
        block.refresh_valid()
        assert not block.valid
        block.subentries[1].valid = True
        block.refresh_valid()
        assert block.valid

    def test_invalidate_resets_subentries(self):
        block = fresh_block()
        block.subentries[0].fill(1, False)
        block.refresh_valid()
        block.invalidate()
        assert not block.valid
        assert not block.subentries[0].valid

    def test_unencumbered_all_subentries(self):
        block = fresh_block()
        assert block.unencumbered
        block.subentries[1].buffer = True
        assert not block.unencumbered


class TestRCacheAddressing:
    def test_sub_index_splits_l2_block(self):
        rc = make_rcache()
        assert rc.sub_index(0x00) == 0
        assert rc.sub_index(0x10) == 1
        assert rc.sub_index(0x20) == 0  # next L2 block

    def test_sub_block_size(self):
        rc = make_rcache()
        assert rc.sub_block_size == 16

    def test_pblock_round_trip(self):
        rc = make_rcache()
        paddr = 0x12340
        block = rc.store.victim(paddr)
        block.tag = rc.config.tag(paddr)
        index = rc.sub_index(paddr)
        assert rc.pblock_of(block, index) == rc.sub_block_number(paddr)

    def test_lookup_requires_valid_subentry(self):
        rc = make_rcache()
        paddr = 0x40
        block = rc.store.victim(paddr)
        block.tag = rc.config.tag(paddr)
        block.subentries[rc.sub_index(paddr)].valid = True
        block.refresh_valid()
        assert rc.lookup(paddr) is not None
        # The sibling sub-block is not valid: its lookup misses.
        sibling = paddr ^ 0x10
        assert rc.lookup(sibling) is None

    def test_lookup_sub_block_equivalent(self):
        rc = make_rcache()
        paddr = 0x80
        block = rc.store.victim(paddr)
        block.tag = rc.config.tag(paddr)
        block.subentries[rc.sub_index(paddr)].valid = True
        block.refresh_valid()
        assert rc.lookup_sub_block(rc.sub_block_number(paddr)) is not None

    def test_slot_and_block_at_inverse(self):
        rc = make_rcache()
        block = rc.store.ways(3)[0]
        assert rc.block_at(rc.slot(block)) is block

    def test_victim_prefers_unencumbered(self):
        rc = RCache(
            CacheConfig.create("64", 32, associativity=2), n_subentries=2
        )
        paddr = 0x100
        first = rc.store.victim(paddr)
        first.tag = rc.config.tag(paddr)
        first.subentries[0].valid = True
        first.subentries[0].inclusion = True
        first.refresh_valid()
        rc.store.note_install(first)
        second = rc.store.victim(paddr + 64)
        second.tag = rc.config.tag(paddr + 64)
        second.subentries[0].valid = True
        second.refresh_valid()
        rc.store.note_install(second)
        rc.store.touch(second)  # second is MRU: plain LRU would evict first
        victim = rc.victim(paddr + 128, prefer_unencumbered=True)
        assert victim is second  # the unencumbered one despite recency

    def test_victim_plain_lru_without_preference(self):
        rc = RCache(
            CacheConfig.create("64", 32, associativity=2), n_subentries=2
        )
        paddr = 0x100
        first = rc.store.victim(paddr)
        first.tag = rc.config.tag(paddr)
        first.subentries[0].valid = True
        first.subentries[0].inclusion = True
        first.refresh_valid()
        rc.store.note_install(first)
        second = rc.store.victim(paddr + 64)
        second.tag = rc.config.tag(paddr + 64)
        second.subentries[0].valid = True
        second.refresh_valid()
        rc.store.note_install(second)
        rc.store.touch(second)
        victim = rc.victim(paddr + 128, prefer_unencumbered=False)
        assert victim is first  # strict LRU ignores encumbrance
