"""The set-associative tag store both cache levels build on.

A :class:`TagStore` is policy-free about *what* the blocks mean: it
slices addresses per a :class:`CacheConfig`, finds matching blocks,
chooses victims and maintains replacement state.  The V-cache and
R-cache wrap it with their own semantics (swapped-valid handling,
subentries, inclusion).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from ..common.errors import ConfigurationError
from .block import CacheBlock
from .config import CacheConfig
from .replacement import ReplacementPolicy, make_policy

BlockFactory = Callable[[int, int], CacheBlock]


class _Sets(dict[int, list[CacheBlock]]):
    """Set index -> the set's blocks (every way), built on first lookup.

    A set nothing has looked up holds only power-on blocks, so building
    it late changes nothing a simulation can observe, and a run pays
    only for the sets it touches.
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
    """Tag array + replacement state for one cache.

    The *block_factory* lets a subsystem substitute a richer block
    class (the R-cache does); it must accept ``(set_index, way)``.
    Sets are built on first use (see :meth:`live_sets`).

    >>> store = TagStore(CacheConfig.create("1K", block_size=16, associativity=2))
    >>> store.find(0x40) is None
    True
    """

    __slots__ = (
        "config",
        "policy",
        "_sets",
        "_block_bits",
        "_set_bits",
        "_set_mask",
        "_multiway",
    )

    def __init__(
        self,
        config: CacheConfig,
        block_factory: BlockFactory = CacheBlock,
        replacement: str | ReplacementPolicy = "lru",
        seed: int = 0,
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
        self._sets: dict[int, list[CacheBlock]] = _Sets(
            block_factory, config.n_sets, config.associativity
        )
        # Hot-loop constants: address slicing runs on every access, so
        # the shifts/masks are cached here, and replacement bookkeeping
        # is skipped entirely for direct-mapped stores (every policy is
        # a no-op over a single way).
        self._block_bits = config.block_bits
        self._set_bits = config.set_bits
        self._set_mask = config.set_mask
        self._multiway = config.associativity > 1

    # -- lookup ----------------------------------------------------------

    def ways(self, set_index: int) -> list[CacheBlock]:
        """The blocks of one set (all ways, present or not)."""
        return self._sets[set_index]

    def live_sets(self) -> list[int]:
        """Ascending indices of the sets that may hold non-power-on
        blocks: every set built so far.  Whole-cache walks visit only
        these; every other set is in its power-on state."""
        return sorted(self._sets)

    def find(self, addr: int, include_swapped: bool = False) -> CacheBlock | None:
        """Tag-match *addr*; no replacement-state side effects.

        With *include_swapped* the search also matches blocks whose
        data is physically present but invalidated by a context switch
        (swapped-valid).
        """
        block_number = addr >> self._block_bits
        tag = block_number >> self._set_bits
        for block in self._sets[block_number & self._set_mask]:
            if block.tag == tag and (
                block.valid or (include_swapped and block.swapped_valid)
            ):
                return block
        return None

    def access(self, addr: int) -> CacheBlock | None:
        """Like :meth:`find`, but marks the block most recently used."""
        block_number = addr >> self._block_bits
        set_index = block_number & self._set_mask
        tag = block_number >> self._set_bits
        for block in self._sets[set_index]:
            if block.tag == tag and block.valid:
                if self._multiway:
                    self.policy.on_access(set_index, block.way)
                return block
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
        for block in ways:
            if not block.present:
                return block
        if not self._multiway:
            return ways[0]
        candidates: Sequence[int] = range(len(ways))
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
