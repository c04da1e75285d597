"""The second-level physical cache (R-cache).

Per the paper's Figure 3, each R-cache tag entry holds one *subentry*
per level-1-sized sub-block.  A subentry records whether the sub-block
has a child in the level-1 cache (inclusion bit), whether the only
up-to-date copy sits in the level-1 write buffer (buffer bit), the
sharing state used by the snooping protocol, two dirty bits (vdirty:
the level-1 child is modified; rdirty: the R-cache's own copy is
modified) and the v-pointer locating the child.

Pointer representation: the hardware stores the low bits of the
page number, which resolve to a *set*; the way is found by searching
back-pointers.  The simulator stores ``(set, way)`` directly — an
unambiguous encoding of the same linkage (see DESIGN.md §6).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from typing import Any
from weakref import proxy

import numpy as np

from ..cache.block import CacheBlock
from ..cache.config import CacheConfig
from ..cache.tagstore import TagStore
from ..coherence.protocol import ShareState

#: A (set, way) slot pointer into the other cache level.
Slot = tuple[int, int]

# Subentry flag bits, one byte per subentry in ``RCache.sub_flags``.
S_VALID = 1
S_INCL = 2
S_BUF = 4
S_VDIRTY = 8
S_RDIRTY = 16
S_SHARED = 32

_SHARED = ShareState.SHARED
_PRIVATE = ShareState.PRIVATE


class SubEntry:
    """Per-sub-block bookkeeping of one R-cache tag entry, viewed over
    the R-cache's subentry arrays at flat index *g*.

    *planes* is ``(sub_flags, sub_versions, vp_ci, vp_set, vp_way)``.
    """

    __slots__ = ("_fl", "_vr", "_pc", "_ps", "_pw", "_g")

    def __init__(self, planes: tuple, g: int) -> None:
        self._fl, self._vr, self._pc, self._ps, self._pw = planes
        self._g = g

    @property
    def valid(self) -> bool:
        return bool(self._fl[self._g] & S_VALID)

    @valid.setter
    def valid(self, value: bool) -> None:
        if value:
            self._fl[self._g] |= S_VALID
        else:
            self._fl[self._g] &= 0xFF ^ S_VALID

    @property
    def inclusion(self) -> bool:
        return bool(self._fl[self._g] & S_INCL)

    @inclusion.setter
    def inclusion(self, value: bool) -> None:
        if value:
            self._fl[self._g] |= S_INCL
        else:
            self._fl[self._g] &= 0xFF ^ S_INCL

    @property
    def buffer(self) -> bool:
        return bool(self._fl[self._g] & S_BUF)

    @buffer.setter
    def buffer(self, value: bool) -> None:
        if value:
            self._fl[self._g] |= S_BUF
        else:
            self._fl[self._g] &= 0xFF ^ S_BUF

    @property
    def vdirty(self) -> bool:
        return bool(self._fl[self._g] & S_VDIRTY)

    @vdirty.setter
    def vdirty(self, value: bool) -> None:
        if value:
            self._fl[self._g] |= S_VDIRTY
        else:
            self._fl[self._g] &= 0xFF ^ S_VDIRTY

    @property
    def rdirty(self) -> bool:
        return bool(self._fl[self._g] & S_RDIRTY)

    @rdirty.setter
    def rdirty(self, value: bool) -> None:
        if value:
            self._fl[self._g] |= S_RDIRTY
        else:
            self._fl[self._g] &= 0xFF ^ S_RDIRTY

    @property
    def state(self) -> ShareState:
        return _SHARED if self._fl[self._g] & S_SHARED else _PRIVATE

    @state.setter
    def state(self, value: ShareState) -> None:
        if value is _SHARED:
            self._fl[self._g] |= S_SHARED
        else:
            self._fl[self._g] &= 0xFF ^ S_SHARED

    @property
    def version(self) -> int:
        return self._vr[self._g]

    @version.setter
    def version(self, value: int) -> None:
        self._vr[self._g] = value

    @property
    def v_pointer(self) -> Any:
        """The level-1 child slot ``(cache, set, way)``, or None."""
        g = self._g
        ci = self._pc[g]
        if ci < 0:
            return None
        return (ci, self._ps[g], self._pw[g])

    @v_pointer.setter
    def v_pointer(self, value: Any) -> None:
        g = self._g
        if value is None:
            self._pc[g] = -1
        else:
            self._pc[g] = value[0]
            self._ps[g] = value[1]
            self._pw[g] = value[2]

    @property
    def unencumbered(self) -> bool:
        """True when no level-1 copy exists (inclusion and buffer clear)."""
        return not self._fl[self._g] & (S_INCL | S_BUF)

    @property
    def dirty_anywhere(self) -> bool:
        """True when this hierarchy holds newer data than memory."""
        return bool(self._fl[self._g] & (S_VDIRTY | S_RDIRTY | S_BUF))

    def reset(self) -> None:
        """Return to the power-on state."""
        g = self._g
        self._fl[g] = 0
        self._pc[g] = -1
        self._vr[g] = 0

    def fill(self, version: int, shared: bool) -> None:
        """Install a clean copy fetched from the bus."""
        g = self._g
        self._fl[g] = S_VALID | S_SHARED if shared else S_VALID
        self._pc[g] = -1
        self._vr[g] = version

    def __repr__(self) -> str:
        flags = "".join(
            ch
            for ch, on in (
                ("V", self.valid),
                ("I", self.inclusion),
                ("B", self.buffer),
                ("v", self.vdirty),
                ("r", self.rdirty),
            )
            if on
        )
        return f"SubEntry({self.state.value}, flags={flags or '-'})"


class RCacheBlock(CacheBlock):
    """An R-cache tag entry: a tag plus its subentries.

    ``valid`` on the base class mirrors "any subentry valid" so the
    generic tag-store search works unchanged.  Level-2 entries have no
    r-pointer arrays: ``r_pointer`` is a plain attribute that stays the
    power-on placeholder 0 (checkpoints export it).
    """

    __slots__ = ("subentries", "r_pointer")

    def __init__(
        self, store: TagStore, set_index: int, way: int, subentries: list[SubEntry]
    ) -> None:
        super().__init__(store, set_index, way)
        self.subentries = subentries
        self.r_pointer = 0

    def refresh_valid(self) -> None:
        """Recompute the block-level valid bit from the subentries."""
        self.valid = any(sub.valid for sub in self.subentries)

    def invalidate(self) -> None:
        """Drop the block and all its subentries."""
        super().invalidate()
        for sub in self.subentries:
            sub.reset()

    @property
    def unencumbered(self) -> bool:
        """True when no subentry has a level-1 copy."""
        return all(sub.unencumbered for sub in self.subentries)


class RCache:
    """Tag store plus sub-block addressing for the second level.

    The hierarchy object orchestrates misses and coherence; this class
    owns geometry, lookup, victim preference and the subentry arrays,
    indexed by ``(set * associativity + way) * n_subentries + index``.
    """

    __slots__ = (
        "config",
        "n_subentries",
        "store",
        "sub_block_size",
        "sub_flags",
        "sub_versions",
        "vp_ci",
        "vp_set",
        "vp_way",
        "_sub_bits",
    )

    def __init__(
        self,
        config: CacheConfig,
        n_subentries: int,
        replacement: str = "lru",
        seed: int = 0,
    ) -> None:
        self.config = config
        self.n_subentries = n_subentries
        m = config.n_sets * config.associativity * n_subentries
        self.sub_flags = bytearray(m)
        self.sub_versions = array("q", bytes(8 * m))
        # v-pointers: a negative cache index means "no child".
        self.vp_ci = array("q", [-1]) * m
        self.vp_set = array("q", bytes(8 * m))
        self.vp_way = array("q", bytes(8 * m))
        planes = (
            self.sub_flags,
            self.sub_versions,
            self.vp_ci,
            self.vp_set,
            self.vp_way,
        )
        assoc = config.associativity

        def block(set_index: int, way: int) -> RCacheBlock:
            # Closes over the arrays and a weak proxy of the store (bound
            # below), never over this R-cache: the store owns the factory,
            # and a strong reference back would make a cycle that only
            # the cyclic garbage collector frees.
            base = (set_index * assoc + way) * n_subentries
            subs = [SubEntry(planes, base + i) for i in range(n_subentries)]
            return RCacheBlock(store, set_index, way, subs)

        self.store = TagStore(
            config,
            block_factory=block,
            replacement=replacement,
            seed=seed,
            r_pointers=False,
            planes=(
                (self.sub_flags, np.uint8, 0),
                (self.sub_versions, np.int64, 0),
                (self.vp_ci, np.int64, -1),
                (self.vp_set, np.int64, 0),
                (self.vp_way, np.int64, 0),
            ),
        )
        store = proxy(self.store)
        # Sub-block geometry: the level-1 block size.
        self.sub_block_size = config.block_size // n_subentries
        self._sub_bits = self.sub_block_size.bit_length() - 1

    # -- addressing ------------------------------------------------------

    def sub_index(self, paddr: int) -> int:
        """Which subentry of its block *paddr* falls in."""
        return (paddr >> self._sub_bits) & (self.n_subentries - 1)

    def pblock_of(self, block: RCacheBlock, sub_index: int) -> int:
        """Physical sub-block number stored at (block, sub_index)."""
        base = self.config.address_of(block.tag, block.set_index)
        return (base >> self._sub_bits) + sub_index

    def sub_block_number(self, paddr: int) -> int:
        """Physical sub-block number (the coherence/memory granule)."""
        return paddr >> self._sub_bits

    # -- lookup ------------------------------------------------------------

    def lookup(self, paddr: int) -> tuple[RCacheBlock, SubEntry] | None:
        """Find the valid subentry covering *paddr*, if present."""
        block = self.store.find(paddr)
        if block is None:
            return None
        sub = block.subentries[self.sub_index(paddr)]
        if not sub.valid:
            return None
        return block, sub  # type: ignore[return-value]

    def lookup_sub_block(self, pblock: int) -> tuple[RCacheBlock, SubEntry] | None:
        """Like :meth:`lookup` but keyed by sub-block number."""
        return self.lookup(pblock << self._sub_bits)

    def slot(self, block: RCacheBlock) -> Slot:
        """The (set, way) pointer value naming *block*."""
        return (block.set_index, block.way)

    def block_at(self, slot: Slot) -> RCacheBlock:
        """Dereference a (set, way) pointer."""
        return self.store.ways(slot[0])[slot[1]]  # type: ignore[return-value]

    # -- victim choice --------------------------------------------------------

    def victim(self, paddr: int, prefer_unencumbered: bool) -> RCacheBlock:
        """Choose the block the fill for *paddr* will replace.

        With *prefer_unencumbered* (the paper's relaxed inclusion
        rule), ways whose subentries all lack level-1 children are
        preferred; only if none exists may a block with children be
        chosen, in which case the hierarchy must invalidate those
        children.
        """
        if prefer_unencumbered:
            return self.store.victim(
                paddr, prefer=lambda b: b.unencumbered  # type: ignore[attr-defined]
            )
        return self.store.victim(paddr)

    def blocks(self) -> Iterator[RCacheBlock]:
        """Iterate every block (for checkers and snoop-by-scan tests)."""
        return iter(self.store)  # type: ignore[return-value]
