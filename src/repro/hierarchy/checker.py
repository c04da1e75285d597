"""Invariant checkers for a running hierarchy.

These verify the structural invariants from DESIGN.md §5 — inclusion,
pointer consistency, the single-copy synonym rule and dirty-state
sanity — in two forms:

* **Incremental scans** (``scan_l2_set``, ``scan_l1_set``, …) examine
  one cache set at a time and return :class:`Violation` records
  instead of raising.  The runtime invariant guard
  (``repro.faults.guard``) calls these on the sets an access touched,
  every N references and at coherence-transaction boundaries, and
  raises at the first violation they report.
* **Raising wrappers** (``check_pointer_consistency``, ``check_all``,
  …) sweep the whole hierarchy and raise :class:`InclusionError` /
  :class:`ProtocolError` on the first violation.  The test suite calls
  them between and after simulations.

Every scan is defensive: corrupted pointers (out-of-range sets, ways
or cache indices) are reported as violations, never allowed to escape
as :class:`IndexError` — corrupt metadata must not be able to crash
the checker that is supposed to catch it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import InclusionError, ProtocolError, TranslationError
from .config import HierarchyKind
from .l1 import L1Cache
from .rcache import S_BUF, S_INCL, S_VALID, S_VDIRTY, RCacheBlock
from .twolevel import TwoLevelHierarchy


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation.

    Attributes:
        kind: invariant family — "pointer", "buffer", "single-copy"
            or "tlb".
        site: structured location, one of
            ``("l2", set, way, sub_index)``,
            ``("l1", cache_index, set, way)``,
            ``("buffer", pblock)`` or ``("tlb", pid, vpage)``.
        message: human-readable description (stable wording relied on
            by the test suite).
    """

    kind: str
    site: tuple
    message: str


def _l1_slot_valid(hier: TwoLevelHierarchy, pointer: object) -> bool:
    """Whether *pointer* is a structurally dereferenceable v-pointer."""
    if not (isinstance(pointer, tuple) and len(pointer) == 3):
        return False
    cache_index, set_index, way = pointer
    if not 0 <= cache_index < len(hier.l1_caches):
        return False
    config = hier.l1_caches[cache_index].config
    return 0 <= set_index < config.n_sets and 0 <= way < config.associativity


def _r_slot_valid(hier: TwoLevelHierarchy, pointer: object) -> bool:
    """Whether *pointer* is a structurally dereferenceable r-pointer."""
    if not (isinstance(pointer, tuple) and len(pointer) == 3):
        return False
    set_index, way, sub_index = pointer
    config = hier.rcache.config
    return (
        0 <= set_index < config.n_sets
        and 0 <= way < config.associativity
        and 0 <= sub_index < hier.rcache.n_subentries
    )


# -- incremental scans (per set, non-raising) --------------------------------


def scan_l2_set(hier: TwoLevelHierarchy, set_index: int) -> list[Violation]:
    """Forward linkage of one level-2 set.

    Every subentry with the inclusion bit set must point at a present
    level-1 block whose r-pointer points back, with matching dirty
    bits.  Empty for non-inclusion hierarchies.
    """
    if hier.kind is HierarchyKind.RR_NO_INCLUSION:
        return []
    # Every violation below needs an inclusion or a vdirty bit, so a
    # set without either is clean, and its views are not built.
    rcache = hier.rcache
    width = rcache.config.associativity * rcache.n_subentries
    start = set_index * width
    if not any(
        flags & (S_INCL | S_VDIRTY)
        for flags in rcache.sub_flags[start : start + width]
    ):
        return []
    out: list[Violation] = []
    for rblock in rcache.store.ways(set_index):
        for index, sub in enumerate(rblock.subentries):  # type: ignore[attr-defined]
            site = ("l2", set_index, rblock.way, index)
            if not sub.inclusion:
                if sub.valid and sub.vdirty:
                    # The snoop path dereferences the child whenever
                    # vdirty is set, inclusion bit or not — a vdirty
                    # claim without a linked child is a latent crash.
                    out.append(Violation(
                        "pointer", site,
                        f"vdirty set without inclusion at {rblock}[{index}]",
                    ))
                continue
            if not sub.valid:
                out.append(Violation(
                    "pointer", site,
                    f"inclusion bit set on invalid subentry {rblock}[{index}]",
                ))
                continue
            if sub.v_pointer is None:
                out.append(Violation(
                    "pointer", site,
                    f"inclusion bit set without v-pointer at {rblock}[{index}]",
                ))
                continue
            if not _l1_slot_valid(hier, sub.v_pointer):
                out.append(Violation(
                    "pointer", site,
                    f"v-pointer {sub.v_pointer} is out of range",
                ))
                continue
            child = hier.l1_caches[sub.v_pointer[0]].block_at(sub.v_pointer)
            if not child.present:
                out.append(Violation(
                    "pointer", site,
                    f"v-pointer {sub.v_pointer} names an empty level-1 slot",
                ))
                continue
            expected = (set_index, rblock.way, index)
            if (
                not isinstance(child.r_pointer, tuple)
                or tuple(child.r_pointer) != expected
            ):
                out.append(Violation(
                    "pointer", site,
                    f"r-pointer of {child!r} does not point back to {expected}",
                ))
                continue
            if sub.vdirty and not child.dirty:
                out.append(Violation(
                    "pointer", site,
                    f"vdirty set but child clean at {rblock}[{index}]",
                ))
            elif child.dirty and not sub.vdirty:
                out.append(Violation(
                    "pointer", site,
                    f"child dirty but vdirty clear at {rblock}[{index}]",
                ))
    return out


def scan_l1_set(
    hier: TwoLevelHierarchy, l1: L1Cache, set_index: int
) -> list[Violation]:
    """Reverse linkage of one level-1 set.

    Every present block must have a valid parent subentry with the
    inclusion bit set and a v-pointer naming exactly this slot.  Empty
    for non-inclusion hierarchies (level-1 blocks have no parents).
    """
    if hier.kind is HierarchyKind.RR_NO_INCLUSION:
        return []
    out: list[Violation] = []
    for block in l1.store.ways(set_index):
        if not block.present:
            continue
        site = ("l1", l1.index, set_index, block.way)
        if not _r_slot_valid(hier, block.r_pointer):
            out.append(Violation(
                "pointer", site,
                f"{l1.name} block {block!r} has an out-of-range r-pointer "
                f"{block.r_pointer!r}",
            ))
            continue
        r_set, r_way, sub_index = block.r_pointer
        rblock = hier.rcache.store.ways(r_set)[r_way]
        if not isinstance(rblock, RCacheBlock):
            out.append(Violation(
                "pointer", site, "level-2 store holds a non-R block",
            ))
            continue
        sub = rblock.subentries[sub_index]
        if not (sub.valid and sub.inclusion):
            out.append(Violation(
                "pointer", site,
                f"{l1.name} block {block!r} has no live parent subentry",
            ))
            continue
        if sub.v_pointer != l1.slot(block):
            out.append(Violation(
                "pointer", site,
                f"parent v-pointer {sub.v_pointer} does not name "
                f"{l1.slot(block)}",
            ))
    return out


def scan_buffer_bits(hier: TwoLevelHierarchy) -> list[Violation]:
    """Buffer bits and write-buffer entries must correspond one-to-one.

    Global rather than per-set, but one vectorized pass over the
    subentry flag array finds the flagged subentries, so this is cheap
    enough for every guard check.
    """
    if hier.kind is HierarchyKind.RR_NO_INCLUSION:
        return []
    rcache = hier.rcache
    sub_flags = np.frombuffer(rcache.sub_flags, dtype=np.uint8)
    wanted = S_VALID | S_BUF
    flagged: set[int] = set()
    for sub in np.flatnonzero((sub_flags & wanted) == wanted).tolist():
        block, index = divmod(sub, rcache.n_subentries)
        set_index, way = divmod(block, rcache.config.associativity)
        rblock = rcache.store.ways(set_index)[way]
        flagged.add(rcache.pblock_of(rblock, index))  # type: ignore[arg-type]
    buffered = {entry.pblock for entry in hier.write_buffer.entries()}
    if flagged == buffered:
        return []
    message = (
        f"buffer bits {sorted(flagged)} != write-buffer contents "
        f"{sorted(buffered)}"
    )
    return [
        Violation("buffer", ("buffer", pblock), message)
        for pblock in sorted(flagged ^ buffered)
    ]


def scan_single_copy(hier: TwoLevelHierarchy) -> list[Violation]:
    """At most one level-1 copy of any physical block exists.

    For a virtual level 1 the physical identity of a block is its
    parent subentry; this counts children per subentry across all
    level-1 sets, so it is inherently a global sweep.
    """
    if hier.kind is HierarchyKind.RR_NO_INCLUSION:
        return []
    out: list[Violation] = []
    seen: dict[tuple, tuple] = {}
    for l1 in hier.l1_caches:
        for block in l1.store.present_blocks():
            pointer = (
                tuple(block.r_pointer)
                if isinstance(block.r_pointer, tuple)
                else block.r_pointer
            )
            slot = l1.slot(block)
            if pointer in seen:
                out.append(Violation(
                    "single-copy", ("l1",) + slot,
                    f"two level-1 copies {seen[pointer]} and {slot} share "
                    f"parent {pointer}",
                ))
                continue
            seen[pointer] = slot
    return out


def scan_tlb(hier: TwoLevelHierarchy) -> list[Violation]:
    """Every cached translation must agree with the page tables.

    A corrupted TLB entry silently redirects accesses to the wrong
    frame; cross-checking against :class:`MemoryLayout` (the
    architectural truth) catches it.
    """
    out: list[Violation] = []
    page_size = hier.layout.page_size
    for pid, vpage, frame in hier.tlb.entries():
        try:
            expected = hier.layout.translate(pid, vpage * page_size) // page_size
        except TranslationError:
            out.append(Violation(
                "tlb", ("tlb", pid, vpage),
                f"TLB caches unmapped page (pid={pid}, vpage={vpage:#x})",
            ))
            continue
        if frame != expected:
            out.append(Violation(
                "tlb", ("tlb", pid, vpage),
                f"TLB maps (pid={pid}, vpage={vpage:#x}) to frame "
                f"{frame:#x}, page table says {expected:#x}",
            ))
    return out


def scan_hierarchy(hier: TwoLevelHierarchy) -> list[Violation]:
    """Full sweep: every invariant of one hierarchy, as a list.

    Only live sets are visited (``TagStore.live_sets``): every other
    set holds power-on blocks, which break no invariant.
    """
    out: list[Violation] = []
    for set_index in hier.rcache.store.live_sets():
        out.extend(scan_l2_set(hier, set_index))
    for l1 in hier.l1_caches:
        for set_index in l1.store.live_sets():
            out.extend(scan_l1_set(hier, l1, set_index))
    out.extend(scan_buffer_bits(hier))
    out.extend(scan_single_copy(hier))
    out.extend(scan_tlb(hier))
    return out


# -- raising wrappers (full sweeps, test-suite API) ---------------------------


def _raise_first(violations: list[Violation]) -> None:
    if violations:
        raise InclusionError(violations[0].message)


def check_pointer_consistency(hier: TwoLevelHierarchy) -> None:
    """Every inclusion bit and every level-1 block agree on linkage.

    Raises :class:`InclusionError` on the first violation.  Only
    meaningful for inclusion-maintaining hierarchies.  Like
    :func:`scan_hierarchy`, visits live sets only.
    """
    for set_index in hier.rcache.store.live_sets():
        _raise_first(scan_l2_set(hier, set_index))
    for l1 in hier.l1_caches:
        for set_index in l1.store.live_sets():
            _raise_first(scan_l1_set(hier, l1, set_index))


def check_buffer_bits(hier: TwoLevelHierarchy) -> None:
    """Buffer bits and write-buffer entries correspond one-to-one."""
    _raise_first(scan_buffer_bits(hier))


def check_single_copy(hier: TwoLevelHierarchy) -> None:
    """At most one level-1 copy of any physical block exists."""
    _raise_first(scan_single_copy(hier))


def check_tlb(hier: TwoLevelHierarchy) -> None:
    """Every TLB entry agrees with the page tables."""
    _raise_first(scan_tlb(hier))


def check_coherence(hierarchies: list[TwoLevelHierarchy]) -> None:
    """A physical block is dirty in at most one hierarchy machine-wide."""
    owners: dict[int, int] = {}

    def claim(pblock: int, cpu: int) -> None:
        if pblock in owners and owners[pblock] != cpu:
            raise ProtocolError(
                f"block {pblock:#x} dirty in hierarchies {owners[pblock]} "
                f"and {cpu}"
            )
        owners[pblock] = cpu

    for hier in hierarchies:
        for rblock in hier.rcache.blocks():
            for index, sub in enumerate(rblock.subentries):
                if sub.valid and sub.dirty_anywhere:
                    claim(hier.rcache.pblock_of(rblock, index), hier.cpu)
        for entry in hier.write_buffer.entries():
            claim(entry.pblock, hier.cpu)
        if hier.kind is HierarchyKind.RR_NO_INCLUSION:
            for l1 in hier.l1_caches:
                for block in l1.store.present_blocks():
                    if block.dirty:
                        paddr = l1.config.address_of(
                            block.tag, block.set_index
                        )
                        claim(paddr >> hier.config.l1.block_bits, hier.cpu)


def check_all(hier: TwoLevelHierarchy) -> None:
    """Run every single-hierarchy invariant check."""
    check_pointer_consistency(hier)
    check_buffer_bits(hier)
    check_single_copy(hier)
    check_tlb(hier)
