"""Tag-store entries.

:class:`CacheBlock` carries the union of the fields the paper's
Figure 3 puts in a *V-cache* tag entry (tag, r-pointer, dirty, valid,
swapped-valid) plus a data *version stamp* used by the simulator to
verify write-back and coherence correctness without storing bytes.

The state itself lives in the owning :class:`~repro.cache.tagstore.
TagStore`'s flat arrays, indexed by ``set * associativity + way``; a
block is a *view* of one index.  The protocol code reads and writes
views, while the replay walker (``repro.core.soa``) reads and writes
the arrays directly.

The R-cache's richer entries (per-sub-block inclusion/buffer/state
bits and v-pointers) are built in ``repro.hierarchy.rcache`` on top of
this class.
"""

from __future__ import annotations

from typing import Any

# Block flag bits, one byte per block in ``TagStore.flags``.
F_VALID = 1
F_SWAPPED = 2
F_DIRTY = 4


class CacheBlock:
    """One way of one set in a tag store, viewed over its arrays.

    A block is *addressable* (its data physically present and findable
    by the second level) when ``valid or swapped_valid``; it is
    *hittable* by the processor only when ``valid``.  The distinction
    implements the paper's swapped-valid bit: a context switch turns
    valid blocks into swapped-valid ones whose dirty data survives
    until the slot is reused.

    Every getter returns a plain ``int``/``bool``/tuple, so values
    escaping into replacement orders, checkpoints and digests never
    carry array types.
    """

    __slots__ = (
        "set_index",
        "way",
        "_tg",
        "_fl",
        "_vr",
        "_ps",
        "_pw",
        "_pb",
        "_g",
    )

    def __init__(self, store: Any, set_index: int, way: int) -> None:
        self.set_index = set_index
        self.way = way
        self._tg = store.tags
        self._fl = store.flags
        self._vr = store.versions
        self._ps = store.rp_set
        self._pw = store.rp_way
        self._pb = store.rp_sub
        self._g = set_index * store.config.associativity + way

    @property
    def valid(self) -> bool:
        return bool(self._fl[self._g] & F_VALID)

    @valid.setter
    def valid(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= F_VALID
        else:
            self._fl[g] &= 0xFF ^ F_VALID

    @property
    def swapped_valid(self) -> bool:
        return bool(self._fl[self._g] & F_SWAPPED)

    @swapped_valid.setter
    def swapped_valid(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= F_SWAPPED
        else:
            self._fl[g] &= 0xFF ^ F_SWAPPED

    @property
    def dirty(self) -> bool:
        return bool(self._fl[self._g] & F_DIRTY)

    @dirty.setter
    def dirty(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= F_DIRTY
        else:
            self._fl[g] &= 0xFF ^ F_DIRTY

    @property
    def tag(self) -> int:
        return self._tg[self._g]

    @tag.setter
    def tag(self, value: int) -> None:
        self._tg[self._g] = value

    @property
    def version(self) -> int:
        return self._vr[self._g]

    @version.setter
    def version(self, value: int) -> None:
        self._vr[self._g] = value

    @property
    def r_pointer(self) -> Any:
        """The parent R-cache slot ``(set, way, subentry)``, or the
        power-on placeholder ``0``."""
        g = self._g
        s = self._ps[g]
        if s < 0:
            return 0
        return (s, self._pw[g], self._pb[g])

    @r_pointer.setter
    def r_pointer(self, value: Any) -> None:
        g = self._g
        if isinstance(value, (tuple, list)):
            self._ps[g] = value[0]
            self._pw[g] = value[1]
            self._pb[g] = value[2]
        else:
            self._ps[g] = -1

    @property
    def present(self) -> bool:
        """True when the slot physically holds a block (valid or swapped)."""
        return bool(self._fl[self._g] & (F_VALID | F_SWAPPED))

    def invalidate(self) -> None:
        """Drop the block entirely (data discarded)."""
        self._fl[self._g] = 0

    def swap_out(self) -> None:
        """Context switch: valid -> swapped-valid, data retained.

        A block that is already swapped-valid stays swapped-valid; an
        invalid slot is untouched.
        """
        g = self._g
        flags = self._fl[g]
        if flags & F_VALID:
            self._fl[g] = (flags & ~F_VALID) | F_SWAPPED

    def fill(self, tag: int, r_pointer: Any, version: int) -> None:
        """Load a clean block into this slot."""
        self.r_pointer = r_pointer
        g = self._g
        self._tg[g] = tag
        self._vr[g] = version
        self._fl[g] = F_VALID

    def __repr__(self) -> str:
        flags = "".join(
            ch
            for ch, on in (
                ("V", self.valid),
                ("S", self.swapped_valid),
                ("D", self.dirty),
            )
            if on
        )
        return (
            f"CacheBlock(set={self.set_index}, way={self.way}, "
            f"tag={self.tag:#x}, flags={flags or '-'})"
        )
