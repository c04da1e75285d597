"""The set-associative tag store both cache levels build on.

A :class:`TagStore` is policy-free about *what* the blocks mean: it
slices addresses per a :class:`CacheConfig`, finds matching blocks,
chooses victims and maintains replacement state.  The V-cache and
R-cache wrap it with their own semantics (swapped-valid handling,
subentries, inclusion).

The store owns its state as flat arrays indexed by
``set * associativity + way`` (tags, flag bits, version stamps,
r-pointers); :class:`CacheBlock` objects are views of one index each,
built per set on first use.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from weakref import proxy

import numpy as np

from ..common.errors import ConfigurationError
from .block import F_SWAPPED, F_VALID, CacheBlock
from .config import CacheConfig
from .replacement import ReplacementPolicy, make_policy

BlockFactory = Callable[[int, int], CacheBlock]


class _Sets(dict[int, list[CacheBlock]]):
    """Set index -> the set's block views (every way), built on first use.

    Building a set only creates views; the state they show is already
    in the arrays, so building late changes nothing a simulation can
    observe, and a run pays only for the sets it touches.
    """

    __slots__ = ("_factory", "_indices", "_ways")

    def __init__(
        self, factory: BlockFactory, n_sets: int, associativity: int
    ) -> None:
        super().__init__()
        self._factory = factory
        self._indices = range(n_sets)
        self._ways = range(associativity)

    def __missing__(self, set_index: int) -> list[CacheBlock]:
        if set_index not in self._indices:
            raise IndexError(f"set index {set_index} out of range")
        factory = self._factory
        ways = [factory(set_index, w) for w in self._ways]
        self[set_index] = ways
        return ways


class TagStore:
    """Tag arrays + replacement state for one cache.

    The *block_factory* lets a subsystem substitute a richer view
    class (the R-cache does); it must accept ``(set_index, way)``.
    *planes* are the owner's extra
    ``(buffer, dtype, power-on value)`` arrays, laid out set-major,
    that :meth:`live_sets` must also inspect.  A store whose blocks
    carry no r-pointer (the R-cache's) passes ``r_pointers=False`` and
    allocates no r-pointer arrays.

    >>> store = TagStore(CacheConfig.create("1K", block_size=16, associativity=2))
    >>> store.find(0x40) is None
    True
    """

    __slots__ = (
        "config",
        "policy",
        "tags",
        "flags",
        "versions",
        "rp_set",
        "rp_way",
        "rp_sub",
        "_sets",
        "_planes",
        "_ways",
        "_block_bits",
        "_set_bits",
        "_set_mask",
        "_assoc",
        "_multiway",
        "__weakref__",
    )

    def __init__(
        self,
        config: CacheConfig,
        block_factory: BlockFactory | None = None,
        replacement: str | ReplacementPolicy = "lru",
        seed: int = 0,
        planes: tuple = (),
        r_pointers: bool = True,
    ) -> None:
        self.config = config
        if isinstance(replacement, str):
            self.policy = make_policy(
                replacement, config.n_sets, config.associativity, seed
            )
        else:
            if (
                replacement.n_sets != config.n_sets
                or replacement.associativity != config.associativity
            ):
                raise ConfigurationError("replacement policy geometry mismatch")
            self.policy = replacement
        n = config.n_sets * config.associativity
        self.tags = array("q", bytes(8 * n))
        self.flags = bytearray(n)
        self.versions = array("q", bytes(8 * n))
        self._planes = (
            (self.tags, np.int64, 0),
            (self.flags, np.uint8, 0),
            (self.versions, np.int64, 0),
        ) + planes
        self.rp_set: array[int] | None = None
        self.rp_way: array[int] | None = None
        self.rp_sub: array[int] | None = None
        if r_pointers:
            # A negative set is the power-on placeholder r-pointer 0.
            self.rp_set = array("q", [-1]) * n
            self.rp_way = array("q", bytes(8 * n))
            self.rp_sub = array("q", bytes(8 * n))
            self._planes += (
                (self.rp_set, np.int64, -1),
                (self.rp_way, np.int64, 0),
                (self.rp_sub, np.int64, 0),
            )
        if block_factory is None:
            # Views take the arrays from a weak proxy: the store owns its
            # sets, and a strong reference back would make it a cycle
            # that only the cyclic garbage collector frees.
            block_factory = partial(CacheBlock, proxy(self))
        self._sets: dict[int, list[CacheBlock]] = _Sets(
            block_factory, config.n_sets, config.associativity
        )
        # Hot-loop constants: address slicing runs on every access, so
        # the shifts/masks are cached here, and replacement bookkeeping
        # is skipped entirely for direct-mapped stores (every policy is
        # a no-op over a single way).
        self._ways = range(config.associativity)
        self._block_bits = config.block_bits
        self._set_bits = config.set_bits
        self._set_mask = config.set_mask
        self._assoc = config.associativity
        self._multiway = config.associativity > 1

    # -- lookup ----------------------------------------------------------

    def ways(self, set_index: int) -> list[CacheBlock]:
        """The blocks of one set (all ways, present or not)."""
        return self._sets[set_index]

    def live_sets(self) -> list[int]:
        """Ascending indices of the sets that may hold non-power-on
        blocks: every set built so far, plus every set whose arrays
        differ from power-on (the replay walker writes the arrays
        without building views).  Whole-cache walks visit only these;
        every other set is in its power-on state."""
        n_sets = self.config.n_sets
        live = np.zeros(n_sets, dtype=bool)
        for buffer, dtype, power_on in self._planes:
            plane = np.frombuffer(buffer, dtype=dtype).reshape(n_sets, -1)
            live |= (plane != power_on).any(axis=1)
        live[np.fromiter(self._sets, dtype=np.intp, count=len(self._sets))] = True
        return np.flatnonzero(live).tolist()

    def find(self, addr: int, include_swapped: bool = False) -> CacheBlock | None:
        """Tag-match *addr*; no replacement-state side effects.

        With *include_swapped* the search also matches blocks whose
        data is physically present but invalidated by a context switch
        (swapped-valid).  The scan reads the arrays, so only a hit
        builds the set's views: a lookup of an absent block builds
        nothing.
        """
        block_number = addr >> self._block_bits
        set_index = block_number & self._set_mask
        tag = block_number >> self._set_bits
        want = F_VALID | F_SWAPPED if include_swapped else F_VALID
        flags = self.flags
        tags = self.tags
        base = set_index * self._assoc
        for way in self._ways:
            g = base + way
            if flags[g] & want and tags[g] == tag:
                return self._sets[set_index][way]
        return None

    def access(self, addr: int) -> CacheBlock | None:
        """Like :meth:`find`, but marks the block most recently used."""
        block_number = addr >> self._block_bits
        set_index = block_number & self._set_mask
        tag = block_number >> self._set_bits
        flags = self.flags
        tags = self.tags
        base = set_index * self._assoc
        for way in self._ways:
            g = base + way
            if flags[g] & F_VALID and tags[g] == tag:
                if self._multiway:
                    self.policy.on_access(set_index, way)
                return self._sets[set_index][way]
        return None

    def touch(self, block: CacheBlock) -> None:
        """Mark *block* most recently used."""
        if self._multiway:
            self.policy.on_access(block.set_index, block.way)

    # -- victim selection --------------------------------------------------

    def victim(
        self,
        addr: int,
        prefer: Callable[[CacheBlock], bool] | None = None,
    ) -> CacheBlock:
        """Choose the slot *addr* will fill.

        Empty (non-present) ways win outright.  Otherwise, when
        *prefer* is given and some present ways satisfy it, the
        replacement policy chooses only among those — this implements
        the R-cache's relaxed inclusion rule (prefer ways whose
        inclusion bits are all clear).  When no way satisfies
        *prefer*, the policy chooses among all ways.
        """
        set_index = (addr >> self._block_bits) & self._set_mask
        ways = self._sets[set_index]
        flags = self.flags
        base = set_index * self._assoc
        for way in self._ways:
            if not flags[base + way] & (F_VALID | F_SWAPPED):
                return ways[way]
        if not self._multiway:
            return ways[0]
        candidates: Sequence[int] = self._ways
        if prefer is not None:
            preferred = [block.way for block in ways if prefer(block)]
            if preferred:
                candidates = preferred
        way = self.policy.choose(set_index, candidates)
        return ways[way]

    def note_install(self, block: CacheBlock) -> None:
        """Record that *block* was just filled (replacement bookkeeping)."""
        if self._multiway:
            self.policy.on_install(block.set_index, block.way)

    # -- iteration / maintenance --------------------------------------------

    def __iter__(self) -> Iterator[CacheBlock]:
        """Every block of every live set, in set then way order."""
        sets = self._sets
        for set_index in self.live_sets():
            yield from sets[set_index]

    def present_blocks(self) -> Iterator[CacheBlock]:
        """Iterate blocks whose data is physically present."""
        return (block for block in self if block.present)

    def invalidate_all(self) -> int:
        """Drop every block; returns how many were present."""
        dropped = 0
        for block in self:
            if block.present:
                block.invalidate()
                dropped += 1
        return dropped

    def swap_out_all(self) -> int:
        """Context switch: demote every valid block to swapped-valid.

        Returns the number of blocks demoted.
        """
        demoted = 0
        for block in self:
            if block.valid:
                block.swap_out()
                demoted += 1
        return demoted
