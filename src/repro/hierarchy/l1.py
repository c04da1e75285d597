"""The first-level cache (V-cache in a V-R hierarchy, physical in R-R).

A thin wrapper over :class:`TagStore` that adds the level-1 semantics
the hierarchy algorithm needs: swapped-valid handling for context
switches and (set, way) slot addressing so the R-cache's v-pointers
can be dereferenced.

Whether the cache is virtually or physically addressed is decided by
the hierarchy: it simply keys lookups with a virtual or physical
address.  Blocks store an ``r_pointer`` — in this simulator the
``(set, way, subentry)`` slot of the parent R-cache entry (see
DESIGN.md §6 on pointer representation).
"""

from __future__ import annotations

from ..cache.block import CacheBlock
from ..cache.config import CacheConfig
from ..cache.tagstore import TagStore

#: Pointer into the R-cache: (set, way, subentry index).
RSlot = tuple[int, int, int]
#: Pointer into a level-1 cache: (cache index, set, way).
VSlot = tuple[int, int, int]


class L1Cache:
    """One first-level cache (a unified cache, or one half of a split).

    Attributes:
        index: position among the hierarchy's level-1 caches (0 for a
            unified cache or the I half, 1 for the D half); the first
            component of every v-pointer naming a block here.
        name: label used in reports ("L1", "L1-I", "L1-D").
        access: processor-side lookup (valid blocks only, LRU
            updated).  This is the tag store's bound ``access``
            method, installed per instance so the replay loop skips a
            wrapper frame; it must stay an instance slot, not a
            ``def`` in the class body.
    """

    __slots__ = ("config", "index", "name", "store", "access")

    def __init__(
        self,
        config: CacheConfig,
        index: int = 0,
        name: str = "L1",
        replacement: str = "lru",
        seed: int = 0,
    ) -> None:
        self.config = config
        self.index = index
        self.name = name
        self.store = TagStore(config, replacement=replacement, seed=seed)
        # The processor-side lookup is pure forwarding, and the replay
        # loop performs it once per reference: expose the tag store's
        # bound method directly so the wrapper frame disappears.
        self.access = self.store.access

    # -- lookup -----------------------------------------------------------

    def find_present(self, key: int) -> CacheBlock | None:
        """Find a block whose data is physically present (valid or
        swapped-valid) — used by coherence probes in non-inclusion
        hierarchies, where the address key is physical."""
        return self.store.find(key, include_swapped=True)

    def victim(self, key: int) -> CacheBlock:
        """The slot a fill of *key* would use (eviction not committed)."""
        return self.store.victim(key)

    # -- slot addressing -----------------------------------------------------

    def slot(self, block: CacheBlock) -> VSlot:
        """The v-pointer value naming *block*."""
        return (self.index, block.set_index, block.way)

    def block_at(self, slot: VSlot) -> CacheBlock:
        """Dereference a v-pointer that names this cache."""
        if slot[0] != self.index:
            raise ValueError(f"v-pointer {slot} does not name cache {self.index}")
        return self.store.ways(slot[1])[slot[2]]

    # -- bulk operations ------------------------------------------------------

    def swap_out(self) -> int:
        """Context switch: demote all valid blocks to swapped-valid."""
        return self.store.swap_out_all()

    def present_count(self) -> int:
        """Number of slots holding data (valid or swapped)."""
        return sum(1 for _ in self.store.present_blocks())
