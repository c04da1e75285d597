"""Struct-of-arrays replay core (the ``--engine soa`` backend).

The object engine spends most of its time chasing ``CacheBlock``
instances through Python attribute access.  This module keeps the
*protocol* code — every miss, synonym move, coherence event and
context switch still runs the unmodified ``TwoLevelHierarchy``
methods — but stores all hot metadata in flat numpy vectors indexed
by ``set * assoc + way``:

* level-1 tags / flag bits / version stamps / r-pointers,
* R-cache tags plus per-subentry flag bits and v-pointers,
* TLB entries (pid, vpage, frame, LRU timestamp, valid),
* write-buffer slots (pblock, version, swapped).

The bridge between the two worlds is a set of *view* classes
(:class:`SoABlock`, :class:`SoASub`, :class:`SoARBlock`,
:class:`SoAWriteBufferEntry`): each is a real subclass of the object
model's class whose field accessors are properties over the shared
arrays.  The scalar protocol code reads and writes views exactly as it
would plain blocks, so SoA and object runs are bit-identical by
construction; checkpoints, the invariant checker and the BFS model
checker all work unchanged.

:func:`run_soa` is the fast replay loop.  It consumes the trace in
bounded chunks, classifies every reference of a chunk with vectorized
array ops (L1 tag match + dirty bit, TLB probe for physically-indexed
level 1), and then walks the chunk in :func:`_walk_chunk`, committing
pure level-1 hits with a handful of integer operations and escaping to
``TwoLevelHierarchy.access`` for everything else.  Chunk-boundary
semantics (how a scalar escape invalidates earlier classifications)
are documented in DESIGN.md §13.  ``_walk_chunk`` is the
RPL005-audited function: it performs no attribute lookups and no
container allocation per reference.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Any

import numpy as np

from ..cache.block import CacheBlock
from ..cache.config import CacheConfig
from ..cache.tagstore import BlockFactory, TagStore
from ..cache.write_buffer import WriteBuffer, WriteBufferEntry
from ..coherence.protocol import ShareState
from ..common.errors import InclusionError, ProtocolError
from ..hierarchy.l1 import L1Cache
from ..hierarchy.rcache import RCache, RCacheBlock, SubEntry
from ..hierarchy.stats import _L1_KEYS
from ..hierarchy.twolevel import TwoLevelHierarchy
from ..mmu.tlb import TLB
from ..trace.record import RefKind

# Block flag bits (level-1 blocks and R-cache tag entries).
_F_VALID = 1
_F_SWAPPED = 2
_F_DIRTY = 4

# Subentry flag bits.
_S_VALID = 1
_S_INCL = 2
_S_BUF = 4
_S_VDIRTY = 8
_S_RDIRTY = 16
_S_SHARED = 32

_SHARED = ShareState.SHARED
_PRIVATE = ShareState.PRIVATE

#: TLB keys pack (pid, vpage) into one int; pids are far below 2**16.
_PID_SHIFT = 48
_VPAGE_MASK = (1 << _PID_SHIFT) - 1

# Numeric reference-kind codes used by the vectorized classifier:
# INSTR=0, READ=1, WRITE=2, CSWITCH=3, CALL=4 (assigned inline in the
# batch-conversion loop).  Memory kinds come first so ``kind_code < 3``
# selects them, and the INSTR/READ/WRITE codes double as indices into
# the per-CPU hit accumulators (matching l1_hits_i/_r/_w).
_KIND_OBJS = (RefKind.INSTR, RefKind.READ, RefKind.WRITE)

# The exact key objects the object engine mints (the f-strings in
# ``_L1_KEYS`` are not interned, and state digests compare pickles —
# which memoize strings by identity — so both engines must count into
# the *same* string objects, not merely equal ones).
_HIT_KEYS = tuple(_L1_KEYS[kind, True] for kind in _KIND_OBJS)
_MISS_KEYS = tuple(_L1_KEYS[kind, False] for kind in _KIND_OBJS)

#: References per classification chunk and records per conversion batch.
_CHUNK = 8192
_BATCH = 1 << 16


# -- view classes --------------------------------------------------------------


class SoABlock(CacheBlock):
    """A level-1 tag entry viewed over the cache's flat arrays.

    Every getter casts to plain ``int``/``bool`` so values escaping
    into object-engine structures (replacement orders, checkpoints,
    digests) never carry numpy scalar types.  Setters that change
    classification inputs (tag and any flag bit) append the block's
    flat index to the owning cache's dirty log, which the SoA replay
    loop folds into its per-chunk taint sets.
    """

    __slots__ = ("_tg", "_fl", "_vr", "_ps", "_pw", "_pb", "_dl", "_g")

    def __init__(
        self,
        set_index: int,
        way: int,
        tags: Any,
        flags: Any,
        versions: Any,
        rp_set: Any,
        rp_way: Any,
        rp_sub: Any,
        dirty_log: list,
        g: int,
    ) -> None:
        self.set_index = set_index
        self.way = way
        self._tg = tags
        self._fl = flags
        self._vr = versions
        self._ps = rp_set
        self._pw = rp_way
        self._pb = rp_sub
        self._dl = dirty_log
        self._g = g

    @property
    def valid(self) -> bool:
        return bool(self._fl[self._g] & _F_VALID)

    @valid.setter
    def valid(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _F_VALID
        else:
            self._fl[g] &= 0xFF ^ _F_VALID
        self._dl.append(g)

    @property
    def swapped_valid(self) -> bool:
        return bool(self._fl[self._g] & _F_SWAPPED)

    @swapped_valid.setter
    def swapped_valid(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _F_SWAPPED
        else:
            self._fl[g] &= 0xFF ^ _F_SWAPPED
        self._dl.append(g)

    @property
    def dirty(self) -> bool:
        return bool(self._fl[self._g] & _F_DIRTY)

    @dirty.setter
    def dirty(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _F_DIRTY
        else:
            self._fl[g] &= 0xFF ^ _F_DIRTY
        self._dl.append(g)

    @property
    def tag(self) -> int:
        return self._tg[self._g]

    @tag.setter
    def tag(self, value: int) -> None:
        g = self._g
        self._tg[g] = value
        self._dl.append(g)

    @property
    def version(self) -> int:
        return self._vr[self._g]

    @version.setter
    def version(self, value: int) -> None:
        self._vr[self._g] = value

    @property
    def r_pointer(self):
        g = self._g
        s = self._ps[g]
        if s < 0:
            # The power-on placeholder, matching CacheBlock.__init__.
            return 0
        return (s, self._pw[g], self._pb[g])

    @r_pointer.setter
    def r_pointer(self, value) -> None:
        g = self._g
        if isinstance(value, (tuple, list)):
            self._ps[g] = value[0]
            self._pw[g] = value[1]
            self._pb[g] = value[2]
        else:
            self._ps[g] = -1


class SoASub(SubEntry):
    """One R-cache subentry viewed over the R-cache's flat arrays."""

    __slots__ = ("_fl", "_vr", "_pc", "_ps", "_pw", "_g")

    def __init__(
        self,
        sub_flags: Any,
        sub_versions: Any,
        vp_ci: Any,
        vp_set: Any,
        vp_way: Any,
        g: int,
    ) -> None:
        self._fl = sub_flags
        self._vr = sub_versions
        self._pc = vp_ci
        self._ps = vp_set
        self._pw = vp_way
        self._g = g

    @property
    def valid(self) -> bool:
        return bool(self._fl[self._g] & _S_VALID)

    @valid.setter
    def valid(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _S_VALID
        else:
            self._fl[g] &= 0xFF ^ _S_VALID

    @property
    def inclusion(self) -> bool:
        return bool(self._fl[self._g] & _S_INCL)

    @inclusion.setter
    def inclusion(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _S_INCL
        else:
            self._fl[g] &= 0xFF ^ _S_INCL

    @property
    def buffer(self) -> bool:
        return bool(self._fl[self._g] & _S_BUF)

    @buffer.setter
    def buffer(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _S_BUF
        else:
            self._fl[g] &= 0xFF ^ _S_BUF

    @property
    def vdirty(self) -> bool:
        return bool(self._fl[self._g] & _S_VDIRTY)

    @vdirty.setter
    def vdirty(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _S_VDIRTY
        else:
            self._fl[g] &= 0xFF ^ _S_VDIRTY

    @property
    def rdirty(self) -> bool:
        return bool(self._fl[self._g] & _S_RDIRTY)

    @rdirty.setter
    def rdirty(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _S_RDIRTY
        else:
            self._fl[g] &= 0xFF ^ _S_RDIRTY

    @property
    def state(self) -> ShareState:
        if self._fl[self._g] & _S_SHARED:
            return _SHARED
        return _PRIVATE

    @state.setter
    def state(self, value: ShareState) -> None:
        g = self._g
        if value is _SHARED:
            self._fl[g] |= _S_SHARED
        else:
            self._fl[g] &= 0xFF ^ _S_SHARED

    @property
    def version(self) -> int:
        return self._vr[self._g]

    @version.setter
    def version(self, value: int) -> None:
        self._vr[self._g] = value

    @property
    def v_pointer(self):
        g = self._g
        ci = self._pc[g]
        if ci < 0:
            return None
        return (ci, self._ps[g], self._pw[g])

    @v_pointer.setter
    def v_pointer(self, value) -> None:
        g = self._g
        if value is None:
            self._pc[g] = -1
        else:
            self._pc[g] = value[0]
            self._ps[g] = value[1]
            self._pw[g] = value[2]


class SoARBlock(RCacheBlock):
    """An R-cache tag entry viewed over the R-cache's flat arrays.

    R-cache state is never read by the vectorized classifier, so no
    dirty log is kept here.  ``r_pointer`` stays a plain inherited
    slot (R-cache entries never use it, but checkpoints export it).
    """

    __slots__ = ("_tg", "_fl", "_vr", "_g")

    def __init__(
        self,
        set_index: int,
        way: int,
        tags: Any,
        flags: Any,
        versions: Any,
        g: int,
        subentries: list,
    ) -> None:
        self.set_index = set_index
        self.way = way
        self.r_pointer = 0
        self._tg = tags
        self._fl = flags
        self._vr = versions
        self._g = g
        self.subentries = subentries

    @property
    def valid(self) -> bool:
        return bool(self._fl[self._g] & _F_VALID)

    @valid.setter
    def valid(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _F_VALID
        else:
            self._fl[g] &= 0xFF ^ _F_VALID

    @property
    def swapped_valid(self) -> bool:
        return bool(self._fl[self._g] & _F_SWAPPED)

    @swapped_valid.setter
    def swapped_valid(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _F_SWAPPED
        else:
            self._fl[g] &= 0xFF ^ _F_SWAPPED

    @property
    def dirty(self) -> bool:
        return bool(self._fl[self._g] & _F_DIRTY)

    @dirty.setter
    def dirty(self, value: bool) -> None:
        g = self._g
        if value:
            self._fl[g] |= _F_DIRTY
        else:
            self._fl[g] &= 0xFF ^ _F_DIRTY

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


class SoAWriteBufferEntry(WriteBufferEntry):
    """A write-buffer slot viewed over the buffer's flat arrays.

    Instances are created once per slot and live as long as the
    buffer; pushing re-points the slot's data, so code holding a view
    across a ``remove``/``pop_oldest`` of *another* entry stays
    correct (the object engine's dataclass entries behave the same
    way).  ``remove``/``pop_oldest`` return detached plain entries for
    exactly that reason — see :class:`SoAWriteBuffer`.
    """

    __slots__ = ("_pb", "_vr", "_sw", "_i")

    def __init__(self, pblocks: Any, versions: Any, swapped: Any, i: int) -> None:
        self._pb = pblocks
        self._vr = versions
        self._sw = swapped
        self._i = i

    @property
    def pblock(self) -> int:
        return self._pb[self._i]

    @pblock.setter
    def pblock(self, value: int) -> None:
        self._pb[self._i] = value

    @property
    def version(self) -> int:
        return self._vr[self._i]

    @version.setter
    def version(self, value: int) -> None:
        self._vr[self._i] = value

    @property
    def swapped(self) -> bool:
        return bool(self._sw[self._i])

    @swapped.setter
    def swapped(self, value: bool) -> None:
        self._sw[self._i] = 1 if value else 0

    def __eq__(self, other: object) -> bool:
        # The dataclass __eq__ requires an exact class match; entries
        # must compare by value against plain WriteBufferEntry too.
        if isinstance(other, WriteBufferEntry):
            return (
                self.pblock == other.pblock
                and self.version == other.version
                and self.swapped == other.swapped
            )
        return NotImplemented

    __hash__ = None  # match the eq-without-hash dataclass behaviour


# -- array-backed components ---------------------------------------------------


class SoATagStore(TagStore):
    """A tag store whose blocks are views over flat arrays.

    :func:`run_soa`'s native miss handlers fill blocks by writing the
    arrays directly, without building the set's views, so here a set
    can hold data without having been built.  The live sets are the
    built sets plus every set whose arrays differ from their power-on
    values, found in one vectorized pass over *planes* — one
    ``(buffer, dtype, power-on value)`` triple per array, each laid
    out set-major.
    """

    __slots__ = ("_planes",)

    def __init__(
        self,
        config: CacheConfig,
        block_factory: BlockFactory,
        replacement: str,
        seed: int,
        planes: tuple,
    ) -> None:
        super().__init__(
            config, block_factory=block_factory, replacement=replacement, seed=seed
        )
        self._planes = planes

    def find(self, addr: int, include_swapped: bool = False) -> CacheBlock | None:
        # Unlike the object store, an unbuilt set may hold data the
        # native handlers wrote, so the lookup builds the set's views.
        block_number = addr >> self._block_bits
        tag = block_number >> self._set_bits
        for block in self._sets[block_number & self._set_mask]:
            if block.tag == tag and (
                block.valid or (include_swapped and block.swapped_valid)
            ):
                return block
        return None

    def live_sets(self) -> list[int]:
        n_sets = self.config.n_sets
        live = np.zeros(n_sets, dtype=bool)
        for buffer, dtype, power_on in self._planes:
            plane = np.frombuffer(buffer, dtype=dtype).reshape(n_sets, -1)
            live |= (plane != power_on).any(axis=1)
        live[np.fromiter(self._sets, dtype=np.intp, count=len(self._sets))] = True
        return np.flatnonzero(live).tolist()


class SoAL1Cache(L1Cache):
    """A level-1 cache whose tag store is backed by flat arrays."""

    __slots__ = (
        "tags",
        "flags",
        "versions",
        "rp_set",
        "rp_way",
        "rp_sub",
        "dirty_log",
    )

    def __init__(
        self,
        config: CacheConfig,
        index: int = 0,
        name: str = "L1",
        replacement: str = "lru",
        seed: int = 0,
    ) -> None:
        n = config.n_sets * config.associativity
        self.config = config
        self.index = index
        self.name = name
        self.tags = array("q", bytes(8 * n))
        self.flags = bytearray(n)
        self.versions = array("q", bytes(8 * n))
        self.rp_set = array("q", [-1]) * n
        self.rp_way = array("q", bytes(8 * n))
        self.rp_sub = array("q", bytes(8 * n))
        self.dirty_log: list[int] = []
        assoc = config.associativity
        tags = self.tags
        flags = self.flags
        versions = self.versions
        rp_s = self.rp_set
        rp_w = self.rp_way
        rp_b = self.rp_sub
        log = self.dirty_log

        def factory(s: int, w: int) -> SoABlock:
            return SoABlock(
                s, w, tags, flags, versions, rp_s, rp_w, rp_b, log, s * assoc + w
            )

        self.store = SoATagStore(
            config,
            factory,
            replacement,
            seed,
            planes=(
                (tags, np.int64, 0),
                (flags, np.uint8, 0),
                (versions, np.int64, 0),
                (rp_s, np.int64, -1),
                (rp_w, np.int64, 0),
                (rp_b, np.int64, 0),
            ),
        )
        self.access = self.store.access


class SoARCache(RCache):
    """An R-cache whose tag entries and subentries live in flat arrays."""

    __slots__ = (
        "tags",
        "flags",
        "versions",
        "sub_flags",
        "sub_versions",
        "vp_ci",
        "vp_set",
        "vp_way",
    )

    def __init__(
        self,
        config: CacheConfig,
        n_subentries: int,
        replacement: str = "lru",
        seed: int = 0,
    ) -> None:
        n = config.n_sets * config.associativity
        m = n * n_subentries
        self.config = config
        self.n_subentries = n_subentries
        self.tags = array("q", bytes(8 * n))
        self.flags = bytearray(n)
        self.versions = array("q", bytes(8 * n))
        self.sub_flags = bytearray(m)
        self.sub_versions = array("q", bytes(8 * m))
        self.vp_ci = array("q", [-1]) * m
        self.vp_set = array("q", bytes(8 * m))
        self.vp_way = array("q", bytes(8 * m))
        assoc = config.associativity
        tags = self.tags
        flags = self.flags
        versions = self.versions
        sub_flags = self.sub_flags
        sub_versions = self.sub_versions
        vp_ci = self.vp_ci
        vp_set = self.vp_set
        vp_way = self.vp_way

        def factory(s: int, w: int) -> SoARBlock:
            g = s * assoc + w
            base = g * n_subentries
            subs = [
                SoASub(sub_flags, sub_versions, vp_ci, vp_set, vp_way, base + j)
                for j in range(n_subentries)
            ]
            return SoARBlock(s, w, tags, flags, versions, g, subs)

        self.store = SoATagStore(
            config,
            factory,
            replacement,
            seed,
            planes=(
                (tags, np.int64, 0),
                (flags, np.uint8, 0),
                (versions, np.int64, 0),
                (sub_flags, np.uint8, 0),
                (sub_versions, np.int64, 0),
                (vp_ci, np.int64, -1),
                (vp_set, np.int64, 0),
                (vp_way, np.int64, 0),
            ),
        )
        self.sub_block_size = config.block_size // n_subentries
        self._sub_bits = self.sub_block_size.bit_length() - 1


class SoATLB(TLB):
    """Array-backed TLB with timestamp LRU.

    Replacement is exactly equivalent to the object TLB's per-set
    ``OrderedDict``: a hit refreshes the entry's timestamp, a miss
    that finds the set full evicts the entry with the smallest
    timestamp (least recently used or inserted).  Resident entries
    never move between slots, which is what lets the replay loop cache
    a (key → slot) classification across a chunk; evictions are
    appended to :attr:`evict_log` so the loop can tell when that
    classification may have gone stale.
    """

    __slots__ = (
        "pids",
        "vpages",
        "frames",
        "ts",
        "valid",
        "evict_log",
        "_tick",
        "_map",
        "_frames_py",
    )

    def __init__(
        self,
        layout: Any,
        n_entries: int = 64,
        associativity: int = 4,
    ) -> None:
        super().__init__(layout, n_entries, associativity)
        self.pids = array("q", bytes(8 * n_entries))
        self.vpages = array("q", bytes(8 * n_entries))
        self.frames = array("q", bytes(8 * n_entries))
        self.ts = array("q", bytes(8 * n_entries))
        self.valid = bytearray(n_entries)
        self.evict_log: list[int] = []
        self._tick = 0
        self._map: dict[int, int] = {}
        # Frames as plain ints for scalar reads (promotions, export).
        self._frames_py: list[int] = [0] * n_entries

    def translate(self, pid: int, vaddr: int) -> int:
        page_size = self.layout.page_size
        shift = self._page_shift
        if shift is not None:
            vpage = vaddr >> shift
            offset = vaddr & self._page_mask
        else:
            vpage, offset = divmod(vaddr, page_size)
        key = (pid << _PID_SHIFT) | vpage
        slot = self._map.get(key, -1)
        if slot >= 0:
            self.ts[slot] = self._tick
            self._tick += 1
            self._counts["hits"] += 1
            frame = self._frames_py[slot]
        else:
            self._counts["misses"] += 1
            frame = self.layout.translate(pid, vpage * page_size) // page_size
            base = (vpage % self.n_sets) * self.associativity
            valid = self.valid
            ts = self.ts
            free = -1
            count = 0
            oldest = -1
            oldest_ts = 0
            for w in range(self.associativity):
                s = base + w
                if valid[s]:
                    count += 1
                    t = ts[s]
                    if oldest < 0 or t < oldest_ts:
                        oldest = s
                        oldest_ts = t
                elif free < 0:
                    free = s
            if count >= self.associativity:
                ev_key = (self.pids[oldest] << _PID_SHIFT) | self.vpages[oldest]
                del self._map[ev_key]
                valid[oldest] = 0
                self.evict_log.append(oldest)
                self._counts["evictions"] += 1
                free = oldest
            self.pids[free] = pid
            self.vpages[free] = vpage
            self.frames[free] = frame
            self._frames_py[free] = frame
            valid[free] = 1
            ts[free] = self._tick
            self._tick += 1
            self._map[key] = free
        if shift is not None:
            return (frame << shift) | offset
        return frame * page_size + offset

    def flush(self) -> None:
        # Mirror the object TLB exactly: one "flushed_entries" add per
        # set, including zero-valued adds for empty sets (those mint
        # the counter key, which state digests can see).
        per_set = [0] * self.n_sets
        for key, slot in self._map.items():
            per_set[(key & _VPAGE_MASK) % self.n_sets] += 1
            self.valid[slot] = 0
            self.evict_log.append(slot)
        self._map.clear()
        for count in per_set:
            self.stats.add("flushed_entries", count)
        self.stats.add("flushes")

    def flush_pid(self, pid: int) -> None:
        per_set: list[list[int]] = [[] for _ in range(self.n_sets)]
        for key, slot in self._map.items():
            if (key >> _PID_SHIFT) == pid:
                per_set[(key & _VPAGE_MASK) % self.n_sets].append(key)
        for bucket in per_set:
            for key in bucket:
                slot = self._map.pop(key)
                self.valid[slot] = 0
                self.evict_log.append(slot)
            self.stats.add("flushed_entries", len(bucket))
        self.stats.add("selective_flushes")

    def resident(self) -> list[tuple[int, int]]:
        return sorted(
            (key >> _PID_SHIFT, key & _VPAGE_MASK) for key in self._map
        )

    def entries(self) -> list[tuple[int, int, int]]:
        return sorted(
            (key >> _PID_SHIFT, key & _VPAGE_MASK, self._frames_py[slot])
            for key, slot in self._map.items()
        )

    def poison(self, pid: int, vpage: int, frame: int) -> bool:
        slot = self._map.get((pid << _PID_SHIFT) | vpage, -1)
        if slot < 0:
            return False
        self.frames[slot] = frame
        self._frames_py[slot] = frame
        return True

    def scrub(self, pid: int, vpage: int) -> bool:
        slot = self._map.pop((pid << _PID_SHIFT) | vpage, -1)
        if slot < 0:
            return False
        self.valid[slot] = 0
        self.evict_log.append(slot)
        self.stats.add("scrubbed_entries")
        return True

    def export_state(self) -> dict:
        # Same shape as the object TLB's snapshot: per set, entries in
        # LRU order (oldest first), as ((pid, vpage), frame) pairs.
        sets: list[list] = []
        for set_index in range(self.n_sets):
            items = [
                (int(self.ts[slot]), key, slot)
                for key, slot in self._map.items()
                if (key & _VPAGE_MASK) % self.n_sets == set_index
            ]
            items.sort()
            sets.append(
                [
                    ((key >> _PID_SHIFT, key & _VPAGE_MASK), self._frames_py[slot])
                    for _, key, slot in items
                ]
            )
        return {"sets": sets, "stats": self.stats.export_state()}

    def restore_state(self, state: dict) -> None:
        self._map.clear()
        # In-place wipes: numpy classification views share these buffers.
        self.valid[:] = bytes(len(self.valid))
        self.ts[:] = array("q", bytes(8 * len(self.ts)))
        self._tick = 0
        del self.evict_log[:]
        for set_index, entries in enumerate(state["sets"]):
            base = set_index * self.associativity
            for w, (key, frame) in enumerate(entries):
                pid, vpage = key
                slot = base + w
                self.pids[slot] = pid
                self.vpages[slot] = vpage
                self.frames[slot] = frame
                self._frames_py[slot] = int(frame)
                self.valid[slot] = 1
                self.ts[slot] = self._tick
                self._tick += 1
                self._map[(int(pid) << _PID_SHIFT) | int(vpage)] = slot
        self.stats.restore_state(state["stats"])


class SoAWriteBuffer(WriteBuffer):
    """Write buffer whose slots are flat arrays.

    The FIFO order still lives in the inherited ``_entries`` deque
    (the hierarchy aliases it directly), but the deque holds long-lived
    per-slot views.  ``pop_oldest``/``remove`` return *detached* plain
    entries: the protocol code reads fields from a removed entry after
    subsequent pushes may have recycled its slot.
    """

    __slots__ = ("pblocks", "versions", "swapped", "used", "_views")

    def __init__(self, capacity: int = 1) -> None:
        super().__init__(capacity)
        self.pblocks = array("q", bytes(8 * capacity))
        self.versions = array("q", bytes(8 * capacity))
        self.swapped = bytearray(capacity)
        self.used = bytearray(capacity)
        self._views = [
            SoAWriteBufferEntry(self.pblocks, self.versions, self.swapped, i)
            for i in range(capacity)
        ]

    def push(self, entry: WriteBufferEntry) -> None:
        if self.full:
            raise RuntimeError("write buffer overflow: drain before pushing")
        used = self.used
        i = 0
        while used[i]:
            i += 1
        self.pblocks[i] = entry.pblock
        self.versions[i] = entry.version
        self.swapped[i] = 1 if entry.swapped else 0
        used[i] = 1
        self._entries.append(self._views[i])
        self.stats.add("pushes")
        if entry.swapped:
            self.stats.add("swapped_pushes")

    def pop_oldest(self) -> WriteBufferEntry:
        view = self._entries.popleft()
        self.stats.add("retires")
        out = WriteBufferEntry(view.pblock, view.version, view.swapped)
        self.used[view._i] = 0
        return out

    def remove(self, pblock: int) -> WriteBufferEntry | None:
        for i, view in enumerate(self._entries):
            if view.pblock == pblock:
                del self._entries[i]
                self.stats.add("removals")
                out = WriteBufferEntry(view.pblock, view.version, view.swapped)
                self.used[view._i] = 0
                return out
        return None

    def restore_state(self, state: dict) -> None:
        self._entries.clear()
        self.used[:] = bytes(len(self.used))
        for i, (pblock, version, swapped) in enumerate(state["entries"]):
            self.pblocks[i] = pblock
            self.versions[i] = version
            self.swapped[i] = 1 if swapped else 0
            self.used[i] = 1
            self._entries.append(self._views[i])
        self.stats.restore_state(state["stats"])


# -- the hierarchy -------------------------------------------------------------


class SoAHierarchy(TwoLevelHierarchy):
    """A :class:`TwoLevelHierarchy` with array-backed components.

    The parent's constructor builds the SoA TLB, level-1 caches,
    R-cache and write buffer through the component types below.
    Because they subclass the originals and present identical
    interfaces, every scalar protocol method — and the checker,
    checkpointer and model checker with them — runs unchanged; only
    :func:`run_soa` exploits the arrays.
    """

    __slots__ = ()

    tlb_type = SoATLB
    l1_type = SoAL1Cache
    rcache_type = SoARCache
    write_buffer_type = SoAWriteBuffer

    def clear_change_logs(self) -> None:
        """Drop accumulated dirty/eviction logs.

        The logs only carry information while :func:`run_soa` is
        consuming them; long object-path runs (guarded replay, model
        checking) would otherwise grow them without bound.
        """
        for l1 in self._l1s:
            del l1.dirty_log[:]
        del self.tlb.evict_log[:]


# -- the fast replay loop ------------------------------------------------------


def _walk_chunk(
    s,
    e,
    code_l,
    sb_l,
    tg_l,
    w_l,
    ts_l,
    tkey_l,
    off_l,
    cpu_l,
    kc_l,
    refs_l,
    cnt_l,
    acc,
    tacc,
    vn,
    ticks,
    tags_a,
    flags_a,
    vers_a,
    ts_a,
    pols,
    tsets,
    wbs,
    drains,
    fms,
    esc,
    cs,
    tmget,
    tfrs,
    evls,
    dp,
    assoc,
    multi,
    wt,
    rr,
    split,
    pshift,
    psize,
    bbits,
    sbits,
    smask,
):
    """Commit one classified chunk (trace indices ``s..e``).

    This is the per-reference hot loop: RPL005 requires that it
    perform no attribute lookups and allocate no containers.  All
    object work happens through the prebound closures ``esc`` (escape
    one reference to the scalar protocol path), ``cs`` (context
    switch), and ``drains[c]`` (drain one write-buffer entry).

    ``mut`` tracks whether any scalar handler has run since the chunk
    was classified.  While False, the vectorized verdicts are exact.
    Once True, pure-looking references are revalidated against the
    live arrays: a cheap taint-set membership test first (scalar
    handlers report every level-1 slot they touch), then a way scan
    only for references whose set was actually touched.  Physically
    indexed level-1 references additionally recheck TLB residency via
    the slot map once any eviction has been logged.
    """
    mut = False
    i = -1
    for j in range(s, e):
        i += 1
        code = code_l[i]
        if code >= 3:
            if code == 3:
                cs(j)
                mut = True
            continue
        c = cpu_l[j]
        k = kc_l[j]
        if split and k:
            cl = c + c + 1
        elif split:
            cl = c + c
        else:
            cl = c
        slot = -1
        if not mut:
            if not code:
                if fms is None or not fms[c](j, k):
                    esc(j)
                mut = True
                continue
            sb = sb_l[i]
            w = w_l[i]
            g = sb + w
            if rr:
                slot = ts_l[i]
        else:
            if wt and k == 2:
                esc(j)
                continue
            if rr:
                if evls[c]:
                    slot = tmget[c](tkey_l[i], -1)
                elif code:
                    slot = ts_l[i]
                else:
                    slot = ts_l[i]
                    if slot < 0:
                        slot = tmget[c](tkey_l[i], -1)
                if slot < 0:
                    if fms is None or not fms[c](j, k):
                        esc(j)
                    continue
                fr = tfrs[c][slot]
                if pshift >= 0:
                    pb = (fr << pshift) | off_l[i]
                else:
                    pb = fr * psize + off_l[i]
                bn = pb >> bbits
                tg = bn >> sbits
                sb = (bn & smask) * assoc
            else:
                sb = sb_l[i]
                tg = tg_l[i]
            if code and sb not in tsets[cl]:
                w = w_l[i]
                g = sb + w
            else:
                fa = flags_a[cl]
                ta = tags_a[cl]
                g = -1
                w = 0
                f = 0
                while w < assoc:
                    gi = sb + w
                    f = fa[gi]
                    if (f & 1) and ta[gi] == tg:
                        g = gi
                        break
                    w += 1
                if g < 0:
                    if fms is None or not fms[c](j, k):
                        esc(j)
                    continue
                if k == 2 and not (f & 4):
                    if fms is None or not fms[c](j, k):
                        esc(j)
                    continue
        refs_l[c] += 1
        cd = cnt_l[c] - 1
        if cd:
            cnt_l[c] = cd
        else:
            cnt_l[c] = dp
            if wbs[c]:
                drains[c]()
        if k == 2:
            v = vn[0]
            vn[0] = v + 1
            vers_a[cl][g] = v
            acc[c + c + c + 2] += 1
        else:
            acc[c + c + c + k] += 1
        if multi:
            pols[cl](sb // assoc, w)
        if rr:
            ts_a[c][slot] = ticks[c]
            ticks[c] += 1
            tacc[c] += 1


def run_soa(machine: Any, records: Any) -> int:
    """Replay *records* through a machine of :class:`SoAHierarchy`.

    Returns the number of memory references processed (CSWITCH/CALL
    records excluded), exactly like ``Multiprocessor._run_fast``.
    """
    hiers = machine.hierarchies
    n_cpus = len(hiers)
    for h in hiers:
        if not isinstance(h, SoAHierarchy):
            raise TypeError("run_soa requires SoAHierarchy instances")
    vc = machine.version_counter
    h0 = hiers[0]
    rr = not h0._virtual_l1
    pid_tags = h0._pid_tags
    wt = h0._write_through
    split = h0._split
    n_l1 = 2 if split else 1
    dp = h0.drain_period
    if any(h.drain_period != dp for h in hiers):
        raise ValueError("run_soa requires a uniform drain period")
    cfg = h0._l1s[0].config
    assoc = cfg.associativity
    multi = assoc > 1
    bbits = cfg.block_bits
    sbits = cfg.set_bits
    smask = cfg.set_mask
    tlb0 = h0.tlb
    psize = tlb0.layout.page_size
    pshift = tlb0._page_shift if tlb0._page_shift is not None else -1
    pmask = tlb0._page_mask
    tlb_assoc = tlb0.associativity
    tlb_sets = tlb0.n_sets

    # Flat views of every hierarchy's hot state, indexed by CPU (or by
    # cpu * n_l1 + level for the per-L1 groups).
    tags_a = []
    flags_a = []
    vers_a = []
    rps_a = []
    rpw_a = []
    rpb_a = []
    dls = []
    pols = []
    insts = []
    chs = []
    tsets: list[set[int]] = []
    for h in hiers:
        for l1 in h._l1s:
            tags_a.append(l1.tags)
            flags_a.append(l1.flags)
            vers_a.append(l1.versions)
            rps_a.append(l1.rp_set)
            rpw_a.append(l1.rp_way)
            rpb_a.append(l1.rp_sub)
            dls.append(l1.dirty_log)
            pols.append(l1.store.policy.on_access)
            insts.append(l1.store.policy.on_install)
            chs.append(l1.store.policy.choose)
            tsets.append(set())
    n_groups = len(tags_a)
    # Zero-copy numpy views over the scalar buffers, for the vectorized
    # classifier only (the walk reads/writes the buffers directly —
    # scalar indexing on bytearray/array is ~2x faster than on ndarray).
    tags_np = [np.frombuffer(a, dtype=np.int64) for a in tags_a]
    flags_np = [np.frombuffer(a, dtype=np.uint8) for a in flags_a]
    tlbs = [h.tlb for h in hiers]
    tpid_a = [np.frombuffer(t.pids, dtype=np.int64) for t in tlbs]
    tvpage_a = [np.frombuffer(t.vpages, dtype=np.int64) for t in tlbs]
    tframe_a = [np.frombuffer(t.frames, dtype=np.int64) for t in tlbs]
    tvalid_a = [np.frombuffer(t.valid, dtype=np.uint8) for t in tlbs]
    ts_a = [t.ts for t in tlbs]
    tfrs = [t._frames_py for t in tlbs]
    tmget = [t._map.get for t in tlbs]
    evls = [t.evict_log for t in tlbs]
    ticks = [t._tick for t in tlbs]
    wbs = [h._wb_entries for h in hiers]
    refs_l = [h._refs for h in hiers]
    cnt_l = [h._drain_countdown for h in hiers]
    vn = [vc.next_value]
    acc = [0] * (n_cpus * 3)
    tacc = [0] * n_cpus
    counts_l = [h._counts for h in hiers]
    tlb_counts = [t._counts for t in tlbs]
    refs0 = sum(refs_l)
    for log in dls:
        del log[:]
    for log in evls:
        del log[:]

    # Current batch of converted trace fields (rebound per batch; the
    # closures below see the rebinding through the shared cells).
    cpu_l: list[int] = []
    pid_l: list[int] = []
    kc_l: list[int] = []
    vad_l: list[int] = []
    cpu_np = pid_np = kind_np = vad_np = None

    def _merge_taint() -> None:
        for t in range(n_groups):
            log = dls[t]
            if log:
                tset = tsets[t]
                for g in log:
                    tset.add(g - g % assoc)
                del log[:]

    def esc(j: int) -> None:
        """Escape one reference to the scalar protocol path."""
        c = cpu_l[j]
        h = hiers[c]
        h._refs = refs_l[c]
        h._drain_countdown = cnt_l[c]
        tlbs[c]._tick = ticks[c]
        vc.next_value = vn[0]
        h.access(pid_l[j], vad_l[j], _KIND_OBJS[kc_l[j]])
        refs_l[c] = h._refs
        cnt_l[c] = h._drain_countdown
        ticks[c] = tlbs[c]._tick
        vn[0] = vc.next_value
        _merge_taint()

    def cs(j: int) -> None:
        c = cpu_l[j]
        h = hiers[c]
        h._refs = refs_l[c]
        h.context_switch(pid_l[j])
        _merge_taint()

    def _mk_drain(c: int, h: Any):
        def _drain() -> None:
            h._refs = refs_l[c]
            h._drain_one()

        return _drain

    drains = [_mk_drain(c, h) for c, h in enumerate(hiers)]

    # Native scalar miss handlers.  The object protocol path costs
    # tens of microseconds per escape (view properties, AccessResult
    # allocation, enum dispatch); the three dominant miss shapes — a
    # clean write hit on a private block, a level-2 hit filling level
    # 1, and a level-2 miss with no remote copies — are re-implemented
    # directly over the arrays.  A handler first *screens* the access
    # with zero side effects and returns False (caller escapes) for
    # anything rare or shared: synonyms (inclusion bit), write-buffer
    # interactions (buffer bit), shared-write invalidations, any peer
    # holding the missing level-2 block, and every configuration the
    # screen does not model (write-through, write-update, no
    # inclusion, bus observers, event tracers).  Once the screen
    # passes, the commit phase replicates ``TwoLevelHierarchy.access``
    # mutation-for-mutation and counter-for-counter.
    native = (
        h0._inclusion
        and not wt
        and not h0._update_protocol
        and machine.bus.observer is None
        and all(
            h._tr_syn is None
            and h._tr_incl is None
            and h._tr_wb is None
            and h._tr_coh is None
            for h in hiers
        )
    )

    def _mk_fmiss(c: int, h: Any):
        t = tlbs[c]
        tmg = tmget[c]
        tfr_py = tfrs[c]
        tsb = ts_a[c]
        ttr = t.translate
        lay_tr = t.layout.translate
        rc = h.rcache
        rtg = rc.tags
        rfl = rc.flags
        sfl = rc.sub_flags
        svr = rc.sub_versions
        vpc = rc.vp_ci
        vps = rc.vp_set
        vpw = rc.vp_way
        cfg2 = rc.config
        assoc2 = cfg2.associativity
        multi2 = assoc2 > 1
        bbits2 = cfg2.block_bits
        sbits2 = cfg2.set_bits
        smask2 = cfg2.set_mask
        n_sub = rc.n_subentries
        sub_bits = h._sub_bits
        nsub_mask = ~(n_sub - 1)
        rpol = rc.store.policy
        r_onacc = rpol.on_access
        r_onins = rpol.on_install
        r_choose = rpol.choose
        rng2 = range(assoc2)
        rng1 = range(assoc)
        base_g = c * n_l1
        gtg = tags_a[base_g : base_g + n_l1]
        gfl = flags_a[base_g : base_g + n_l1]
        gvr = vers_a[base_g : base_g + n_l1]
        grs = rps_a[base_g : base_g + n_l1]
        grw = rpw_a[base_g : base_g + n_l1]
        grb = rpb_a[base_g : base_g + n_l1]
        gacc = pols[base_g : base_g + n_l1]
        gins = insts[base_g : base_g + n_l1]
        gch = chs[base_g : base_g + n_l1]
        gts = tsets[base_g : base_g + n_l1]
        counts_c = counts_l[c]
        wb = h.write_buffer
        wpb = wb.pblocks
        wvr = wb.versions
        wsw = wb.swapped
        wused = wb.used
        wviews = wb._views
        wdeq = wbs[c]
        wcap = wb.capacity
        wb_counts = wb.stats._counts
        hist_rec = h.stats.writeback_intervals.record
        bus = h.bus
        bus_counts = bus.stats._counts
        mem = bus.memory
        mem_counts = mem.stats._counts
        mv = mem._versions
        mvget = mv.get
        peer_rs = [
            (p.rcache.tags, p.rcache.flags)
            for pi, p in enumerate(hiers)
            if pi != c
        ]
        nsm1 = n_sub - 1

        def drain_n() -> None:
            # ``TwoLevelHierarchy._drain_one`` over the arrays.  Only
            # reachable with inclusion held (the native gate), so the
            # no-parent case is the same protocol error it is there.
            vw = wdeq.popleft()
            ii = vw._i
            wb_counts["retires"] += 1
            pb = wpb[ii]
            ver = wvr[ii]
            wused[ii] = 0
            bn2 = (pb << sub_bits) >> bbits2
            rb = (bn2 & smask2) * assoc2
            tg2 = bn2 >> sbits2
            w2 = 0
            while w2 < assoc2:
                gi2 = rb + w2
                if (rfl[gi2] & 1) and rtg[gi2] == tg2:
                    sg2 = gi2 * n_sub + (pb & nsm1)
                    sf2 = sfl[sg2]
                    if sf2 & _S_VALID:
                        if ver >= svr[sg2]:
                            sfl[sg2] = (sf2 & ~_S_BUF) | _S_RDIRTY
                            svr[sg2] = ver
                        else:
                            sfl[sg2] = sf2 & ~_S_BUF
                        return
                    break
                w2 += 1
            raise ProtocolError(
                "write-buffer entry has no level-2 parent",
                access_index=refs_l[c],
                pblock=pb,
            )

        def fmiss(j: int, k: int) -> bool:
            pid = pid_l[j]
            vad = vad_l[j]
            lv = 1 if (split and k) else 0
            fl = gfl[lv]
            tgs = gtg[lv]
            # -- screen (no side effects until every bail is resolved) --
            if rr:
                # Peek the translation: resident slot map first, then
                # the (pure) layout walk.  The commit phase re-runs the
                # real translate for its counter/LRU/refill effects.
                if pshift >= 0:
                    vpage = vad >> pshift
                    off = vad & pmask
                else:
                    vpage = vad // psize
                    off = vad - vpage * psize
                sl = tmg((pid << _PID_SHIFT) | vpage, -1)
                if sl >= 0:
                    fr = tfr_py[sl]
                else:
                    fr = lay_tr(pid, vpage * psize) // psize
                if pshift >= 0:
                    paddr = (fr << pshift) | off
                else:
                    paddr = fr * psize + off
                key = paddr
            else:
                paddr = -1
                key = (vad | (pid << _PID_SHIFT)) if pid_tags else vad
            bn = key >> bbits
            sb = (bn & smask) * assoc
            tg = bn >> sbits
            g = -1
            f = 0
            w = 0
            while w < assoc:
                gi = sb + w
                f = fl[gi]
                if (f & 1) and tgs[gi] == tg:
                    g = gi
                    break
                w += 1
            if g >= 0:
                # Level-1 hit: only the clean-write shape is native
                # (reads that land here were bailed for other reasons).
                if k != 2 or (f & 4):
                    return False
                rs = grs[lv][g]
                if rs < 0:
                    return False
                sg = (rs * assoc2 + grw[lv][g]) * n_sub + grb[lv][g]
                if sfl[sg] & _S_SHARED:
                    return False
                # -- commit: clean write hit on a private block --
                refs_l[c] += 1
                cd = cnt_l[c] - 1
                if cd:
                    cnt_l[c] = cd
                else:
                    cnt_l[c] = dp
                    if wdeq:
                        drain_n()
                if rr:
                    if sl >= 0:
                        tsb[sl] = ticks[c]
                        ticks[c] += 1
                        tacc[c] += 1
                    else:
                        t._tick = ticks[c]
                        ttr(pid, vad)
                        ticks[c] = t._tick
                acc[c + c + c + 2] += 1
                if multi:
                    gacc[lv](sb // assoc, g - sb)
                v = vn[0]
                vn[0] = v + 1
                fl[g] = f | 4
                sfl[sg] |= _S_VDIRTY
                gvr[lv][g] = v
                gts[lv].add(sb)
                return True
            # Level-1 miss.
            if paddr < 0:
                if pshift >= 0:
                    vpage = vad >> pshift
                    off = vad & pmask
                else:
                    vpage = vad // psize
                    off = vad - vpage * psize
                sl = tmg((pid << _PID_SHIFT) | vpage, -1)
                if sl >= 0:
                    fr = tfr_py[sl]
                else:
                    fr = lay_tr(pid, vpage * psize) // psize
                if pshift >= 0:
                    paddr = (fr << pshift) | off
                else:
                    paddr = fr * psize + off
            bn2 = paddr >> bbits2
            st2 = bn2 & smask2
            tg2 = bn2 >> sbits2
            rb = st2 * assoc2
            si = (paddr >> sub_bits) & (n_sub - 1)
            rg = -1
            w2 = 0
            while w2 < assoc2:
                gi2 = rb + w2
                if (rfl[gi2] & 1) and rtg[gi2] == tg2:
                    rg = gi2
                    break
                w2 += 1
            l2_hit = False
            if rg >= 0:
                sf = sfl[rg * n_sub + si]
                if sf & _S_VALID:
                    if sf & (_S_INCL | _S_BUF):
                        return False
                    if k == 2 and (sf & _S_SHARED):
                        return False
                    l2_hit = True
            if not l2_hit:
                # A fill must arrive private and read from memory: any
                # peer holding the level-2 block (any valid subentry
                # replies has-copy to some sub-block's read) bails.
                for prtg, prfl in peer_rs:
                    pw = 0
                    while pw < assoc2:
                        pgi = rb + pw
                        if (prfl[pgi] & 1) and prtg[pgi] == tg2:
                            return False
                        pw += 1
            # -- commit --
            refs_l[c] += 1
            cd = cnt_l[c] - 1
            if cd:
                cnt_l[c] = cd
            else:
                cnt_l[c] = dp
                if wdeq:
                    drain_n()
            if sl >= 0:
                tsb[sl] = ticks[c]
                ticks[c] += 1
                tacc[c] += 1
            else:
                t._tick = ticks[c]
                ttr(pid, vad)
                ticks[c] = t._tick
            counts_c[_MISS_KEYS[k]] += 1
            if l2_hit:
                counts_c["l2_hits"] += 1
                if multi2:
                    r_onacc(st2, rg - rb)
                sg = rg * n_sub + si
            else:
                counts_c["l2_misses"] += 1
                rvg = -1
                w2 = 0
                while w2 < assoc2:
                    gi2 = rb + w2
                    if not (rfl[gi2] & 3):
                        rvg = gi2
                        break
                    w2 += 1
                if rvg < 0:
                    if not multi2:
                        rvg = rb
                    else:
                        cands = []
                        w2 = 0
                        while w2 < assoc2:
                            sbase2 = (rb + w2) * n_sub
                            i2 = 0
                            while i2 < n_sub:
                                if sfl[sbase2 + i2] & 6:  # _S_INCL | _S_BUF
                                    break
                                i2 += 1
                            else:
                                cands.append(w2)
                            w2 += 1
                        rvg = rb + r_choose(st2, cands if cands else rng2)
                rf = rfl[rvg]
                sbase2 = rvg * n_sub
                if rf & 3:
                    counts_c["l2_evictions"] += 1
                    vbase = (((rtg[rvg] << sbits2) | st2) << bbits2) >> sub_bits
                    i2 = 0
                    while i2 < n_sub:
                        sg2 = sbase2 + i2
                        sf2 = sfl[sg2]
                        if sf2 & _S_VALID:
                            pb2 = vbase + i2
                            if sf2 & _S_BUF:
                                entv = -1
                                di = 0
                                nd = len(wdeq)
                                while di < nd:
                                    ii = wdeq[di]._i
                                    if wpb[ii] == pb2:
                                        del wdeq[di]
                                        wb_counts["removals"] += 1
                                        entv = wvr[ii]
                                        wused[ii] = 0
                                        break
                                    di += 1
                                if entv < 0:
                                    raise ProtocolError(
                                        "buffer bit set but no write-buffer"
                                        " entry",
                                        access_index=refs_l[c],
                                        pblock=pb2,
                                    )
                                bus_counts["write_back"] += 1
                                mem_counts["writes"] += 1
                                mv[pb2] = entv
                            if sf2 & _S_INCL:
                                ci = vpc[sg2]
                                if ci < 0:
                                    raise InclusionError(
                                        "inclusion bit set without a"
                                        " v-pointer",
                                        access_index=refs_l[c],
                                        pblock=pb2,
                                    )
                                counts_c["l1_inclusion_invalidations"] += 1
                                cfl = gfl[ci]
                                cgi = vps[sg2] * assoc + vpw[sg2]
                                cf = cfl[cgi]
                                if cf & 4:
                                    bus_counts["write_back"] += 1
                                    mem_counts["writes"] += 1
                                    mv[pb2] = gvr[ci][cgi]
                                elif (sf2 & _S_RDIRTY) and not (sf2 & _S_BUF):
                                    bus_counts["write_back"] += 1
                                    mem_counts["writes"] += 1
                                    mv[pb2] = svr[sg2]
                                cfl[cgi] = cf & 0xF8
                                gts[ci].add(cgi - cgi % assoc)
                            elif (sf2 & _S_RDIRTY) and not (sf2 & _S_BUF):
                                bus_counts["write_back"] += 1
                                mem_counts["writes"] += 1
                                mv[pb2] = svr[sg2]
                        i2 += 1
                    rfl[rvg] = 0
                # Fill every subentry from memory (no peer copies).
                base_bn = (paddr >> sub_bits) & nsub_mask
                i2 = 0
                while i2 < n_sub:
                    pb2 = base_bn + i2
                    if k == 2 and i2 == si:
                        bus_counts["read_modified_write"] += 1
                    else:
                        bus_counts["read_miss"] += 1
                    mem_counts["reads"] += 1
                    sg2 = sbase2 + i2
                    sfl[sg2] = 1
                    vpc[sg2] = -1
                    svr[sg2] = mvget(pb2, 0)
                    i2 += 1
                rtg[rvg] = tg2
                rfl[rvg] = 1
                if multi2:
                    r_onins(st2, rvg - rb)
                rg = rvg
                sg = sbase2 + si
            # Place in level 1 (plain supply; synonym and buffer paths
            # were screened out, and a fresh fill arrives with both
            # inclusion and buffer bits clear).
            vg = -1
            w = 0
            while w < assoc:
                gi = sb + w
                if not (fl[gi] & 3):
                    vg = gi
                    break
                w += 1
            if vg < 0:
                if not multi:
                    vg = sb
                else:
                    vg = sb + gch[lv](sb // assoc, rng1)
            f = fl[vg]
            if f & 3:
                counts_c["l1_evictions"] += 1
                grs_l = grs[lv]
                grw_l = grw[lv]
                grb_l = grb[lv]
                vrs = grs_l[vg]
                vrg = vrs * assoc2 + grw_l[vg]
                vsg = vrg * n_sub + grb_l[vg]
                if f & 4:
                    vpb = (
                        (((rtg[vrg] << sbits2) | vrs) << bbits2) >> sub_bits
                    ) + grb_l[vg]
                    if len(wdeq) >= wcap:
                        counts_c["writeback_stalls"] += 1
                        drain_n()
                    ii = 0
                    while wused[ii]:
                        ii += 1
                    wpb[ii] = vpb
                    wvr[ii] = gvr[lv][vg]
                    swp = 1 if (f & 2) else 0
                    wsw[ii] = swp
                    wused[ii] = 1
                    wdeq.append(wviews[ii])
                    wb_counts["pushes"] += 1
                    counts_c["writebacks"] += 1
                    if swp:
                        wb_counts["swapped_pushes"] += 1
                        counts_c["swapped_writebacks"] += 1
                    lw = h._last_writeback_ref
                    r_now = refs_l[c]
                    if lw is not None:
                        iv = r_now - lw
                        if iv >= 1:
                            hist_rec(iv)
                    h._last_writeback_ref = r_now
                    x = sfl[vsg]
                    sfl[vsg] = (x | _S_BUF) & ~_S_VDIRTY
                sfl[vsg] &= ~_S_INCL
                vpc[vsg] = -1
                fl[vg] = 0
            tgs[vg] = tg
            gvr[lv][vg] = svr[sg]
            grs[lv][vg] = st2
            grw[lv][vg] = rg - rb
            grb[lv][vg] = si
            fl[vg] = 1
            sfl[sg] |= _S_INCL
            vpc[sg] = lv
            vps[sg] = sb // assoc
            vpw[sg] = vg - sb
            if multi:
                gins[lv](sb // assoc, vg - sb)
            if k == 2:
                v = vn[0]
                vn[0] = v + 1
                fl[vg] = 5
                sfl[sg] |= _S_VDIRTY
                gvr[lv][vg] = v
            gts[lv].add(sb)
            return True

        return fmiss, drain_n

    if native:
        fms = []
        for c, h in enumerate(hiers):
            fm, dn = _mk_fmiss(c, h)
            fms.append(fm)
            drains[c] = dn
    else:
        fms = None

    def _flush_counters() -> None:
        # Deferred hit counters; only nonzero deltas are applied so
        # the engines mint exactly the same counter keys.
        for c in range(n_cpus):
            counts = counts_l[c]
            base = c * 3
            for k in range(3):
                delta = acc[base + k]
                if delta:
                    counts[_HIT_KEYS[k]] += delta
                    acc[base + k] = 0
            delta = tacc[c]
            if delta:
                tlb_counts[c]["hits"] += delta
                tacc[c] = 0

    def _classify(s: int, e: int):
        """Vectorized verdicts for trace slice ``s..e`` of the batch."""
        ka = kind_np[s:e]
        ca = cpu_np[s:e]
        va = vad_np[s:e]
        pa = pid_np[s:e]
        m = e - s
        code = np.where(ka >= 3, ka, 0)
        sb = np.zeros(m, dtype=np.int64)
        tg = np.zeros(m, dtype=np.int64)
        wy = np.zeros(m, dtype=np.int64)
        if rr:
            tsl = np.full(m, -1, dtype=np.int64)
            tkey = np.zeros(m, dtype=np.int64)
            off = np.zeros(m, dtype=np.int64)
        mem = ka < 3
        for c in range(n_cpus):
            idx = np.nonzero(mem & (ca == c))[0]
            if idx.size == 0:
                continue
            v = va[idx]
            p = pa[idx]
            k = ka[idx]
            if rr:
                if pshift >= 0:
                    vpage = v >> pshift
                    o = v & pmask
                else:
                    vpage = v // psize
                    o = v - vpage * psize
                tbase = (vpage % tlb_sets) * tlb_assoc
                thit = np.zeros(idx.size, dtype=bool)
                tfr = np.zeros(idx.size, dtype=np.int64)
                tsl_c = np.full(idx.size, -1, dtype=np.int64)
                tp = tpid_a[c]
                tv = tvpage_a[c]
                tf = tframe_a[c]
                tva = tvalid_a[c]
                for w in range(tlb_assoc):
                    sl = tbase + w
                    hw = (tva[sl] != 0) & (tp[sl] == p) & (tv[sl] == vpage)
                    new = hw & ~thit
                    tfr = np.where(new, tf[sl], tfr)
                    tsl_c = np.where(new, sl, tsl_c)
                    thit |= hw
                if pshift >= 0:
                    key = (tfr << pshift) | o
                else:
                    key = tfr * psize + o
                tkey[idx] = (p << _PID_SHIFT) | vpage
                off[idx] = o
                tsl[idx] = tsl_c
            else:
                key = (v | (p << _PID_SHIFT)) if pid_tags else v
                thit = None
            bn = key >> bbits
            st = bn & smask
            t = bn >> sbits
            sbase = st * assoc
            sb[idx] = sbase
            tg[idx] = t
            for lv in range(n_l1):
                if split:
                    ls = np.nonzero((k != 0) == bool(lv))[0]
                    if ls.size == 0:
                        continue
                else:
                    ls = np.arange(idx.size)
                sb_g = sbase[ls]
                tg_g = t[ls]
                fa = flags_np[c * n_l1 + lv]
                ta = tags_np[c * n_l1 + lv]
                hit = np.zeros(ls.size, dtype=bool)
                dty = np.zeros(ls.size, dtype=bool)
                wv = np.zeros(ls.size, dtype=np.int64)
                for w in range(assoc):
                    gi = sb_g + w
                    f = fa[gi]
                    hw = ((f & 1) != 0) & (ta[gi] == tg_g)
                    new = hw & ~hit
                    if w:
                        wv = np.where(new, w, wv)
                    dty = np.where(new, (f & 4) != 0, dty)
                    hit |= hw
                isw = k[ls] == 2
                if wt:
                    ok = hit & ~isw
                else:
                    ok = hit & (~isw | dty)
                if thit is not None:
                    ok &= thit[ls]
                tgt = idx[ls]
                code[tgt] = np.where(ok, np.where(isw, 2, 1), 0)
                wy[tgt] = wv
        if rr:
            return (
                code.tolist(),
                sb.tolist(),
                tg.tolist(),
                wy.tolist(),
                tsl.tolist(),
                tkey.tolist(),
                off.tolist(),
            )
        empty: list[int] = []
        return (
            code.tolist(),
            sb.tolist(),
            tg.tolist(),
            wy.tolist(),
            empty,
            empty,
            empty,
        )

    k_i = RefKind.INSTR
    k_r = RefKind.READ
    k_w = RefKind.WRITE
    k_cs = RefKind.CSWITCH

    def _batch_source():
        # Chunked streams (repro.trace.stream) already carry each
        # batch in this engine's own vector layout — same int64
        # dtype, same 0-4 kind codes — so their arrays feed the
        # classifier directly and no TraceRecord is ever built.
        chunks = getattr(records, "chunks", None)
        if chunks is not None:
            for chunk in chunks():
                yield (
                    chunk.cpu.tolist(),
                    chunk.pid.tolist(),
                    chunk.vaddr.tolist(),
                    chunk.kind.tolist(),
                    chunk.cpu,
                    chunk.pid,
                    chunk.kind,
                    chunk.vaddr,
                )
            return
        it = iter(records)
        while True:
            batch = list(islice(it, _BATCH))
            if not batch:
                return
            c_l = [r.cpu for r in batch]
            p_l = [r.pid for r in batch]
            v_l = [r.vaddr for r in batch]
            # Identity compares beat the enum-dict lookup: ``RefKind``
            # members hash through ``Enum.__hash__`` (a Python call).
            k_l = [
                0
                if (k := r.kind) is k_i
                else 1
                if k is k_r
                else 2
                if k is k_w
                else 3
                if k is k_cs
                else 4
                for r in batch
            ]
            yield (
                c_l,
                p_l,
                v_l,
                k_l,
                np.asarray(c_l, dtype=np.int64),
                np.asarray(p_l, dtype=np.int64),
                np.asarray(k_l, dtype=np.int64),
                np.asarray(v_l, dtype=np.int64),
            )
            if len(batch) < _BATCH:
                return

    # The names below are the cells _classify / esc / cs close over:
    # the unpacking must happen in run_soa's own body so each batch
    # rebinds those cells.
    for cpu_l, pid_l, vad_l, kc_l, cpu_np, pid_np, kind_np, vad_np in (
        _batch_source()
    ):
        count = len(cpu_l)
        pos = 0
        while pos < count:
            end = pos + _CHUNK
            if end > count:
                end = count
            code_l, sb_l, tg_l, w_l, ts_l, tkey_l, off_l = _classify(pos, end)
            for tset in tsets:
                tset.clear()
            for log in evls:
                del log[:]
            _walk_chunk(
                pos,
                end,
                code_l,
                sb_l,
                tg_l,
                w_l,
                ts_l,
                tkey_l,
                off_l,
                cpu_l,
                kc_l,
                refs_l,
                cnt_l,
                acc,
                tacc,
                vn,
                ticks,
                tags_a,
                flags_a,
                vers_a,
                ts_a,
                pols,
                tsets,
                wbs,
                drains,
                fms,
                esc,
                cs,
                tmget,
                tfrs,
                evls,
                dp,
                assoc,
                multi,
                wt,
                rr,
                split,
                pshift,
                psize,
                bbits,
                sbits,
                smask,
            )
            _flush_counters()
            pos = end

    for c, h in enumerate(hiers):
        h._refs = refs_l[c]
        h._drain_countdown = cnt_l[c]
        tlbs[c]._tick = ticks[c]
    vc.next_value = vn[0]
    _flush_counters()
    for log in dls:
        del log[:]
    for log in evls:
        del log[:]
    return sum(refs_l) - refs0
