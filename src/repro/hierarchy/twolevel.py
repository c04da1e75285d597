"""The two-level cache hierarchy algorithm (paper section 3).

One :class:`TwoLevelHierarchy` object implements all three
organisations the paper compares, selected by
:class:`~repro.hierarchy.config.HierarchyKind`:

* **V-R** — level 1 is keyed by virtual address and invalidated
  (swapped-valid) on context switches; the physical level 2 detects
  synonyms via its v-pointers and resolves them with the paper's
  *sameset* / *move* operations; inclusion is maintained and shields
  level 1 from bus traffic.
* **R-R with inclusion** — level 1 keyed by physical address (the TLB
  is consulted before every level-1 access); the synonym machinery is
  present but never triggers, because a physical level-1 miss implies
  the inclusion bit is clear.  Shielding works exactly as in V-R.
* **R-R without inclusion** — level-2 replacement ignores level-1
  children and never back-invalidates, so every bus coherence
  transaction must be forwarded to level 1.

Dirty level-1 victims travel through a write buffer whose drain rate
is one entry per ``drain_period`` references (modelling the level-2
write latency); the matching level-2 subentry carries a *buffer bit*
while the data is in flight so coherence and synonym lookups find it.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable
from dataclasses import dataclass

from ..cache.block import CacheBlock
from ..cache.write_buffer import WriteBuffer, WriteBufferEntry
from ..coherence.bus import Bus
from ..coherence.messages import BusOp, BusTransaction, SnoopReply
from ..coherence.protocol import ShareState, WritePolicy
from ..common.errors import InclusionError, ProtocolError
from ..mmu.address_space import MemoryLayout
from ..mmu.tlb import TLB
from ..trace.record import RefKind
from .config import HierarchyConfig, Protocol
from .l1 import L1Cache
from .rcache import RCache, RCacheBlock, SubEntry
from .stats import _L1_KEYS, HierarchyStats

#: Hoisted enum constants for the per-access fast path.
_INSTR = RefKind.INSTR
_WRITE = RefKind.WRITE


class Outcome(enum.Enum):
    """Where an access was satisfied."""

    L1_HIT = "l1"
    L2_HIT = "l2"          # level-1 miss, plain level-2 hit
    SYNONYM = "synonym"    # level-2 hit resolved by moving a level-1 copy
    MEMORY = "memory"      # missed both levels


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome and observed/produced data version of one access."""

    outcome: Outcome
    version: int


class TwoLevelHierarchy:
    """One processor's private two-level hierarchy on a shared bus."""

    __slots__ = (
        "config",
        "kind",
        "layout",
        "bus",
        "cpu",
        "tlb",
        "stats",
        "write_buffer",
        "drain_period",
        "rcache",
        "_inclusion",
        "_virtual_l1",
        "_pid_tags",
        "_write_through",
        "_update_protocol",
        "_next_version",
        "_l1s",
        "_split",
        "_sub_bits",
        "_refs",
        "_last_writeback_ref",
        "_drain_countdown",
        "_wb_entries",
        "_counts",
        "_tr_syn",
        "_tr_incl",
        "_tr_wb",
        "_tr_coh",
    )

    def __init__(
        self,
        config: HierarchyConfig,
        layout: MemoryLayout,
        bus: Bus,
        next_version: Callable[[], int] | None = None,
        tlb_entries: int = 64,
        tlb_associativity: int = 4,
        drain_period: int = 4,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.kind = config.kind
        self.layout = layout
        self.bus = bus
        self.cpu = bus.attach(self)
        self.tlb = TLB(layout, tlb_entries, tlb_associativity)
        self.stats = HierarchyStats()
        self.write_buffer = WriteBuffer(config.write_buffer_capacity)
        self.drain_period = drain_period
        self._inclusion = config.kind.inclusion
        self._virtual_l1 = config.kind.virtual_l1
        self._pid_tags = config.l1_pid_tags
        self._write_through = (
            config.l1_write_policy is WritePolicy.WRITE_THROUGH
        )
        self._update_protocol = config.protocol is Protocol.WRITE_UPDATE
        self._next_version = (
            next_version
            if next_version is not None
            else itertools.count(1).__next__
        )

        if config.split_l1:
            half = config.l1_half()
            self._l1s = [
                L1Cache(half, 0, "L1-I", config.l1_replacement, seed),
                L1Cache(half, 1, "L1-D", config.l1_replacement, seed + 1),
            ]
        else:
            self._l1s = [L1Cache(config.l1, 0, "L1", config.l1_replacement, seed)]
        self.rcache = RCache(
            config.l2,
            config.subentries_per_l2_block,
            config.l2_replacement,
            seed + 2,
        )
        self._sub_bits = config.l1.block_bits
        self._refs = 0
        self._last_writeback_ref: int | None = None
        # Hot-path plumbing.  The access loop runs for every simulated
        # reference, so the write-buffer drain check is a counter
        # compare (no len() + modulo), the buffer's deque and the stats
        # Counter are aliased directly, and the split-L1 choice is a
        # precomputed boolean.  The countdown hits zero exactly when
        # self._refs % drain_period == 0 would.
        self._drain_countdown = drain_period
        self._wb_entries = self.write_buffer._entries
        self._counts = self.stats.counters._counts
        self._split = len(self._l1s) == 2
        # Per-category pre-resolved tracer slots (see set_tracer).
        # All None means tracing is off and every emit site is one
        # ``is None`` test; the per-access fast path carries none.
        self._tr_syn = None
        self._tr_incl = None
        self._tr_wb = None
        self._tr_coh = None

    # -- public API ---------------------------------------------------------

    @property
    def l1_caches(self) -> list[L1Cache]:
        """The level-1 caches (one unified, or the I and D halves)."""
        return list(self._l1s)

    def l1_for(self, kind: RefKind) -> L1Cache:
        """The level-1 cache serving references of class *kind*."""
        if len(self._l1s) == 2 and kind is not RefKind.INSTR:
            return self._l1s[1]
        return self._l1s[0]

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with None) a structured event tracer.

        Each category is resolved here once — a filtered-out category
        leaves its slot None, so emit sites for it cost exactly what
        tracing-off costs.
        """
        if tracer is None:
            self._tr_syn = self._tr_incl = self._tr_wb = self._tr_coh = None
            return
        self._tr_syn = tracer if tracer.wants("synonym") else None
        self._tr_incl = tracer if tracer.wants("inclusion") else None
        self._tr_wb = tracer if tracer.wants("writeback") else None
        self._tr_coh = tracer if tracer.wants("coherence") else None

    def access(self, pid: int, vaddr: int, kind: RefKind) -> AccessResult:
        """Process one memory reference from the local processor."""
        self._refs += 1
        countdown = self._drain_countdown - 1
        if countdown:
            self._drain_countdown = countdown
        else:
            self._drain_countdown = self.drain_period
            if self._wb_entries:
                self._drain_one()

        paddr: int | None = None
        if self._virtual_l1:
            # With pid tags, the process id joins the tag compare (it
            # sits far above the index bits, so set selection is pure
            # virtual address, as in hardware).
            key = vaddr | (pid << 48) if self._pid_tags else vaddr
        else:
            paddr = self.tlb.translate(pid, vaddr)
            key = paddr
        l1 = (
            self._l1s[1]
            if self._split and kind is not _INSTR
            else self._l1s[0]
        )
        block = l1.store.access(key)
        if block is not None:
            self._counts[_L1_KEYS[kind, True]] += 1
            if kind is _WRITE:
                version = self._write_hit(l1, block)
                return AccessResult(Outcome.L1_HIT, version)
            return AccessResult(Outcome.L1_HIT, block.version)

        self._counts[_L1_KEYS[kind, False]] += 1
        if paddr is None:
            paddr = self.tlb.translate(pid, vaddr)
        return self._l1_miss(l1, key, paddr, kind)

    def context_switch(self, new_pid: int | None = None) -> int:
        """A context switch on this CPU.

        For a virtual level 1, every valid block is demoted to
        swapped-valid (invalid to the processor, data retained and
        written back lazily on replacement).  A physical level 1 is
        unaffected.  Returns the number of blocks demoted.
        """
        self.stats.counters.add("context_switches")
        if not self._virtual_l1 or self._pid_tags:
            # Pid-tagged entries stay valid across switches (the
            # section-2 alternative scheme).
            return 0
        demoted = 0
        for l1 in self._l1s:
            demoted += l1.swap_out()
        self.stats.counters.add("swapped_blocks", demoted)
        return demoted

    def clear_change_logs(self) -> None:
        """Drop the level-1 and TLB change logs.

        The logs only carry information while the replay walker
        (``repro.core.soa.run_soa``) is consuming them; a long run of
        the scalar loop (a guarded or value-checked replay, the
        reference run) would otherwise grow them without bound.
        """
        for l1 in self._l1s:
            del l1.store.dirty_log[:]
        del self.tlb.evict_log[:]

    def drain_write_buffer(self) -> int:
        """Synchronously retire every write-buffer entry (for tests
        and end-of-simulation settling).  Returns entries drained."""
        drained = 0
        while len(self.write_buffer):
            self._drain_one()
            drained += 1
        return drained

    def _child_of(self, sub: SubEntry, pblock: int) -> CacheBlock:
        """Dereference a subentry's v-pointer, validating the linkage.

        Raises :class:`InclusionError` (with the current access index
        and the physical block) instead of crashing when the pointer
        metadata is corrupt, so the failure names where it happened.
        """
        if sub.v_pointer is None:
            raise InclusionError(
                "inclusion bit set without a v-pointer",
                access_index=self._refs,
                pblock=pblock,
            )
        cache_index = sub.v_pointer[0]
        if not 0 <= cache_index < len(self._l1s):
            raise InclusionError(
                f"v-pointer {sub.v_pointer} names a nonexistent level-1 cache",
                access_index=self._refs,
                pblock=pblock,
            )
        return self._l1s[cache_index].block_at(sub.v_pointer)

    # -- level-1 hit path -----------------------------------------------------

    def _write_hit(self, l1: L1Cache, block: CacheBlock) -> int:
        version = self._next_version()
        if self._write_through:
            block.version = version
            sub, pblock = self._sub_for_l1_block(l1, block)
            self._publish_write_through(sub, pblock, version)
            return version
        if not block.dirty:
            sub, pblock = self._sub_for_l1_block(l1, block)
            if self._resolve_write_sharing(sub, pblock, version):
                block.dirty = True
                if sub is not None and self._inclusion:
                    sub.vdirty = True
            elif sub is not None:
                # Update protocol kept the block shared: the broadcast
                # already refreshed peers and memory; our copies stay
                # clean at the new version.
                sub.version = version
                sub.rdirty = False
        block.version = version
        return version

    def _sub_for_l1_block(self, l1: L1Cache, block: CacheBlock):
        """The level-2 subentry backing a level-1 block, plus its
        physical block number.

        With inclusion the r-pointer dereferences directly (the
        paper's invack handshake needs no translation); without it the
        level-2 copy may be gone, so the physical address is
        reconstructed from the (physical) level-1 tag and the lookup
        may return ``(None, pblock)``.
        """
        if self._inclusion:
            _, sub, pblock = self._parent_of(block)
            return sub, pblock
        paddr = l1.config.address_of(block.tag, block.set_index)
        found = self.rcache.lookup(paddr)
        return (found[1] if found is not None else None), paddr >> self._sub_bits

    def _resolve_write_sharing(
        self, sub: SubEntry | None, pblock: int, version: int
    ) -> bool:
        """Clear or refresh other copies before a local write.

        Returns True when the writer becomes the exclusive dirty
        owner (write-invalidate semantics, or a write-update broadcast
        that found no remaining sharers); False when the update
        protocol kept the block shared and clean (peers and memory
        hold the new version already).
        """
        if sub is None:
            # No-inclusion orphan: the level-2 entry is gone, so the
            # sharing state is unknown — act conservatively.
            if self._update_protocol:
                self.bus.issue(
                    BusTransaction(
                        BusOp.WRITE_UPDATE, self.cpu, pblock, version
                    )
                )
                return False
            self.bus.issue(BusTransaction(BusOp.INVALIDATE, self.cpu, pblock))
            return True
        if sub.state is ShareState.PRIVATE:
            return True
        if self._update_protocol:
            result = self.bus.issue(
                BusTransaction(BusOp.WRITE_UPDATE, self.cpu, pblock, version)
            )
            if result.shared:
                return False
            sub.state = ShareState.PRIVATE
            return True
        self.bus.issue(BusTransaction(BusOp.INVALIDATE, self.cpu, pblock))
        sub.state = ShareState.PRIVATE
        return True

    def _publish_write_through(
        self, sub: SubEntry | None, pblock: int, version: int
    ) -> None:
        """Propagate a write-through write toward level 2.

        Under write-invalidate (or when an update broadcast leaves the
        writer exclusive) the data is buffered toward level 2; when a
        write-update broadcast keeps the block shared, the broadcast
        itself already carried the data to peers and memory, so the
        level-2 copy is refreshed directly and any older pending entry
        for the block is merged up to the new version.
        """
        self.stats.counters.add("wt_writes")
        if not self._resolve_write_sharing(sub, pblock, version):
            if sub is not None:
                sub.version = version
                sub.rdirty = False
            pending = self.write_buffer.find(pblock)
            if pending is not None:
                pending.version = version
            return
        pending = self.write_buffer.find(pblock)
        if pending is not None:
            pending.version = version
            self.stats.counters.add("wt_write_merges")
            return
        if self.write_buffer.full:
            self.stats.counters.add("writeback_stalls")
            if self._tr_wb is not None:
                self._tr_wb.emit("writeback", "stall", cpu=self.cpu, pblock=pblock)
            self._drain_one()
        self.write_buffer.push(WriteBufferEntry(pblock, version))
        self._note_downstream_write()
        if sub is not None and self._inclusion:
            sub.buffer = True

    # -- level-1 miss path ------------------------------------------------------

    def _l1_miss(
        self, l1: L1Cache, key: int, paddr: int, kind: RefKind
    ) -> AccessResult:
        found = self.rcache.lookup(paddr)
        if found is None:
            self.stats.record_l2(False)
            rblock, sub = self._l2_miss_fill(paddr, kind)
            outcome = Outcome.MEMORY
        else:
            self.stats.record_l2(True)
            rblock, sub = found
            self.rcache.store.touch(rblock)
            outcome = Outcome.L2_HIT
        pblock = paddr >> self._sub_bits
        sub_index = self.rcache.sub_index(paddr)

        if kind is RefKind.WRITE and self._write_through:
            # No write-allocate: the write is published toward level 2
            # without installing a level-1 copy.
            version = self._write_through_miss(rblock, sub, sub_index, pblock)
            return AccessResult(outcome, version)

        target, synonym = self._place_in_l1(
            l1, key, rblock, sub, sub_index, pblock
        )
        if synonym and outcome is Outcome.L2_HIT:
            outcome = Outcome.SYNONYM
        if kind is RefKind.WRITE:
            version = self._next_version()
            if not target.dirty:
                if self._resolve_write_sharing(sub, pblock, version):
                    target.dirty = True
                    if self._inclusion:
                        sub.vdirty = True
                else:
                    sub.version = version
                    sub.rdirty = False
            target.version = version
        return AccessResult(outcome, target.version)

    def _write_through_miss(
        self, rblock: RCacheBlock, sub: SubEntry, sub_index: int, pblock: int
    ) -> int:
        version = self._next_version()
        if sub.inclusion:
            # A synonym copy lives in the V-cache under another
            # virtual name: refresh it in place so it stays coherent
            # with the written-through data.
            child = self._child_of(sub, pblock)
            child.version = version
            self.stats.counters.add("wt_synonym_updates")
        self._publish_write_through(sub, pblock, version)
        return version

    def _place_in_l1(
        self,
        l1: L1Cache,
        key: int,
        rblock: RCacheBlock,
        sub: SubEntry,
        sub_index: int,
        pblock: int,
    ) -> tuple[CacheBlock, bool]:
        """Install the sub-block into level 1, resolving synonyms.

        Returns ``(block, was_synonym)`` where *was_synonym* is True
        when an existing level-1 copy (valid under another virtual
        address, swapped-valid, or parked in the write buffer) was
        reused instead of fetching from the level-2 data store.
        """
        new_tag = l1.config.tag(key)
        new_set = l1.config.set_index(key)
        r_slot = (rblock.set_index, rblock.way, sub_index)

        if sub.inclusion:
            child = self._child_of(sub, pblock)
            child_l1 = self._l1s[sub.v_pointer[0]]  # type: ignore[index]
            child_was_valid = child.valid
            if child_l1 is l1 and child.set_index == new_set:
                # Paper's *sameset*: the copy is already in the right
                # set — re-tag it in place, no write-back, no eviction.
                child.tag = new_tag
                child.valid = True
                child.swapped_valid = False
                l1.store.touch(child)
                self._count_synonym(child_was_valid, True, pblock)
                return child, True
            # Paper's *move*: the data migrates to the new location.
            victim = l1.victim(key)
            self._evict_l1(l1, victim)
            victim.fill(new_tag, r_slot, child.version)
            victim.dirty = child.dirty
            child.invalidate()
            sub.v_pointer = l1.slot(victim)
            l1.store.note_install(victim)
            self._count_synonym(child_was_valid, False, pblock)
            return victim, True

        if sub.buffer:
            if self._write_through:
                # Write-through data in flight: the level-2 copy is
                # stale, so fill (clean) from the pending entry and let
                # the write-through complete normally.
                entry = self.write_buffer.find(pblock)
                if entry is None:
                    raise ProtocolError(
                        "buffer bit set but no write-buffer entry",
                        access_index=self._refs,
                        pblock=pblock,
                    )
                victim = l1.victim(key)
                self._evict_l1(l1, victim)
                victim.fill(new_tag, r_slot, entry.version)
                sub.inclusion = True
                sub.v_pointer = l1.slot(victim)
                l1.store.note_install(victim)
                self.stats.counters.add("wt_buffer_forwards")
                return victim, True
            # Write-back data in flight: the only copy is in the write
            # buffer — cancel the write-back and restore the block
            # (still dirty) under the new address.
            entry = self.write_buffer.remove(pblock)
            if entry is None:
                raise ProtocolError(
                    "buffer bit set but no write-buffer entry",
                    access_index=self._refs,
                    pblock=pblock,
                )
            victim = l1.victim(key)
            self._evict_l1(l1, victim)
            victim.fill(new_tag, r_slot, entry.version)
            victim.dirty = True
            sub.buffer = False
            sub.inclusion = True
            sub.vdirty = True
            sub.v_pointer = l1.slot(victim)
            l1.store.note_install(victim)
            self.stats.counters.add("writeback_cancels")
            if self._tr_wb is not None:
                self._tr_wb.emit("writeback", "cancel", cpu=self.cpu, pblock=pblock)
            return victim, True

        if not self._inclusion:
            # No buffer bit without inclusion: the fill itself must
            # snoop the write buffer, or it would read a stale level-2
            # copy while the newest data is still in flight.
            entry = self.write_buffer.remove(pblock)
            if entry is not None:
                victim = l1.victim(key)
                self._evict_l1(l1, victim)
                victim.fill(new_tag, r_slot, entry.version)
                victim.dirty = True
                l1.store.note_install(victim)
                self.stats.counters.add("writeback_cancels")
                if self._tr_wb is not None:
                    self._tr_wb.emit(
                        "writeback", "cancel", cpu=self.cpu, pblock=pblock
                    )
                return victim, True

        # Plain supply from the level-2 data store.
        victim = l1.victim(key)
        self._evict_l1(l1, victim)
        victim.fill(new_tag, r_slot, sub.version)
        if self._inclusion:
            sub.inclusion = True
            sub.v_pointer = l1.slot(victim)
        l1.store.note_install(victim)
        return victim, False

    def _count_synonym(
        self, child_was_valid: bool, sameset: bool, pblock: int
    ) -> None:
        if child_was_valid:
            self.stats.counters.add(
                "synonym_sameset" if sameset else "synonym_moves"
            )
            if self._tr_syn is not None:
                self._tr_syn.emit(
                    "synonym",
                    "sameset" if sameset else "move",
                    cpu=self.cpu,
                    pblock=pblock,
                )
        else:
            self.stats.counters.add("swapped_restores")
            if self._tr_syn is not None:
                self._tr_syn.emit(
                    "synonym", "swapped_restore", cpu=self.cpu, pblock=pblock
                )

    # -- level-1 eviction and the write buffer ------------------------------------

    def _parent_of(self, block: CacheBlock) -> tuple[RCacheBlock, SubEntry, int]:
        """Dereference a level-1 block's r-pointer."""
        r_set, r_way, sub_index = block.r_pointer
        rblock = self.rcache.store.ways(r_set)[r_way]
        sub = rblock.subentries[sub_index]  # type: ignore[attr-defined]
        pblock = self.rcache.pblock_of(rblock, sub_index)  # type: ignore[arg-type]
        return rblock, sub, pblock  # type: ignore[return-value]

    def _evict_l1(self, l1: L1Cache, victim: CacheBlock) -> None:
        if not victim.present:
            return
        self.stats.counters.add("l1_evictions")
        if self._inclusion:
            _, sub, pblock = self._parent_of(victim)
            if victim.dirty:
                self._push_writeback(pblock, victim.version, victim.swapped_valid)
                sub.buffer = True
                sub.vdirty = False
            sub.inclusion = False
            sub.v_pointer = None
        elif victim.dirty:
            paddr = l1.config.address_of(victim.tag, victim.set_index)
            self._push_writeback(
                paddr >> self._sub_bits, victim.version, victim.swapped_valid
            )
        victim.invalidate()

    def _push_writeback(self, pblock: int, version: int, swapped: bool) -> None:
        if self.write_buffer.full:
            self.stats.counters.add("writeback_stalls")
            if self._tr_wb is not None:
                self._tr_wb.emit("writeback", "stall", cpu=self.cpu, pblock=pblock)
            self._drain_one()
        self.write_buffer.push(WriteBufferEntry(pblock, version, swapped))
        self.stats.counters.add("writebacks")
        if swapped:
            self.stats.counters.add("swapped_writebacks")
        if self._tr_wb is not None:
            self._tr_wb.emit(
                "writeback", "push", cpu=self.cpu, pblock=pblock, swapped=swapped
            )
        self._note_downstream_write()

    def _note_downstream_write(self) -> None:
        if self._last_writeback_ref is not None:
            interval = self._refs - self._last_writeback_ref
            if interval >= 1:
                self.stats.writeback_intervals.record(interval)
        self._last_writeback_ref = self._refs

    def _drain_one(self) -> None:
        entry = self.write_buffer.pop_oldest()
        found = self.rcache.lookup_sub_block(entry.pblock)
        if found is not None:
            _, sub = found
            sub.buffer = False
            # A write-update broadcast may have refreshed the level-2
            # copy past this queued write; never regress the version.
            if entry.version >= sub.version:
                sub.rdirty = True
                sub.version = entry.version
            return
        if self._inclusion:
            raise ProtocolError(
                "write-buffer entry has no level-2 parent",
                access_index=self._refs,
                pblock=entry.pblock,
            )
        self.bus.write_back(entry.pblock, entry.version)

    # -- level-2 miss path -----------------------------------------------------

    def _l2_miss_fill(
        self, paddr: int, kind: RefKind
    ) -> tuple[RCacheBlock, SubEntry]:
        victim = self.rcache.victim(paddr, prefer_unencumbered=self._inclusion)
        if victim.present:
            self._evict_l2(victim)
        n_sub = self.rcache.n_subentries
        base = paddr & ~(self.config.l2.block_size - 1)
        requested = self.rcache.sub_index(paddr)
        for i in range(n_sub):
            sub_paddr = base + i * self.rcache.sub_block_size
            pblock_i = sub_paddr >> self._sub_bits
            # Under write-invalidate a write miss fetches its sub-block
            # with read-modified-write; the update protocol reads the
            # block and broadcasts the new data afterwards instead.
            op = (
                BusOp.READ_MODIFIED_WRITE
                if (
                    kind is RefKind.WRITE
                    and i == requested
                    and not self._update_protocol
                )
                else BusOp.READ_MISS
            )
            result = self.bus.issue(BusTransaction(op, self.cpu, pblock_i))
            if result.version is None:
                raise ProtocolError(
                    f"{op.value} returned no data version",
                    access_index=self._refs,
                    pblock=pblock_i,
                )
            sub = victim.subentries[i]
            # A read-modified-write invalidates every other copy, so
            # the block arrives exclusive regardless of prior sharers.
            shared = result.shared and op is BusOp.READ_MISS
            sub.fill(result.version, shared)
        victim.tag = self.config.l2.tag(paddr)
        victim.refresh_valid()
        self.rcache.store.note_install(victim)
        return victim, victim.subentries[requested]

    def _evict_l2(self, rblock: RCacheBlock) -> None:
        self.stats.counters.add("l2_evictions")
        for index, sub in enumerate(rblock.subentries):
            if not sub.valid:
                continue
            pblock = self.rcache.pblock_of(rblock, index)
            # The inclusion and buffer bits are not exclusive: a
            # write-through level 1 holds a clean child (inclusion)
            # while its written-through data is still queued (buffer).
            # The pending entry is the newest copy, so it is flushed
            # first and supersedes any rdirty claim.
            if sub.buffer:
                entry = self.write_buffer.remove(pblock)
                if entry is None:
                    raise ProtocolError(
                        "buffer bit set but no write-buffer entry",
                        access_index=self._refs,
                        pblock=pblock,
                    )
                self.bus.write_back(pblock, entry.version)
            if sub.inclusion:
                child = self._child_of(sub, pblock)
                self.stats.counters.add("l1_inclusion_invalidations")
                if self._tr_incl is not None:
                    self._tr_incl.emit(
                        "inclusion",
                        "invalidate",
                        cpu=self.cpu,
                        pblock=pblock,
                        dirty=child.dirty,
                    )
                if child.dirty:
                    self.bus.write_back(pblock, child.version)
                elif sub.rdirty and not sub.buffer:
                    self.bus.write_back(pblock, sub.version)
                child.invalidate()
            elif sub.rdirty and not sub.buffer:
                self.bus.write_back(pblock, sub.version)
            sub.reset()
        rblock.invalidate()

    # -- bus-induced behaviour (snooping) ------------------------------------------

    def snoop(self, txn: BusTransaction) -> SnoopReply:
        """React to a coherence transaction issued by another CPU."""
        if self._inclusion:
            return self._snoop_shielded(txn)
        return self._snoop_unshielded(txn)

    def _snoop_shielded(self, txn: BusTransaction) -> SnoopReply:
        found = self.rcache.lookup_sub_block(txn.pblock)
        if found is None:
            # Inclusion guarantees no level-1 copy either: shielded.
            return SnoopReply(has_copy=False)
        rblock, sub = found
        reply = SnoopReply(has_copy=True)
        op = txn.op

        if op is BusOp.WRITE_UPDATE:
            if txn.version is None:
                raise ProtocolError(
                    "write-update snooped without a data version",
                    access_index=self._refs,
                    pblock=txn.pblock,
                )
            if sub.buffer and self._write_through:
                # Pending write-through data is not ownership: merge
                # the remote update into the queued entry.
                pending = self.write_buffer.find(txn.pblock)
                if pending is not None:
                    pending.version = txn.version
            elif sub.dirty_anywhere:
                raise ProtocolError(
                    "write-update for a block held dirty; updates only "
                    "target clean shared copies",
                    access_index=self._refs,
                    pblock=txn.pblock,
                )
            sub.version = txn.version
            sub.state = ShareState.SHARED
            if sub.inclusion:
                child = self._child_of(sub, txn.pblock)
                child.version = txn.version
                self.stats.counters.add("l1_coherence_updates")
                if self._tr_coh is not None:
                    self._tr_coh.emit(
                        "coherence", "update", cpu=self.cpu, pblock=txn.pblock
                    )
            return reply

        if op in (BusOp.READ_MISS, BusOp.READ_MODIFIED_WRITE):
            if sub.vdirty:
                child = self._child_of(sub, txn.pblock)
                self.stats.counters.add("l1_coherence_flushes")
                if self._tr_coh is not None:
                    self._tr_coh.emit(
                        "coherence", "flush", cpu=self.cpu, pblock=txn.pblock
                    )
                reply.supplied_version = child.version
                sub.version = child.version
                child.dirty = False
                sub.vdirty = False
                sub.rdirty = False
            elif sub.buffer:
                entry = self.write_buffer.remove(txn.pblock)
                if entry is None:
                    raise ProtocolError(
                        "buffer bit set but no write-buffer entry",
                        access_index=self._refs,
                        pblock=txn.pblock,
                    )
                self.stats.counters.add("l1_coherence_buffer_ops")
                if self._tr_coh is not None:
                    self._tr_coh.emit(
                        "coherence", "buffer_op", cpu=self.cpu, pblock=txn.pblock
                    )
                reply.supplied_version = entry.version
                sub.version = entry.version
                sub.buffer = False
                sub.rdirty = False
            elif sub.rdirty:
                reply.supplied_version = sub.version
                sub.rdirty = False
            sub.state = ShareState.SHARED

        if op in (BusOp.INVALIDATE, BusOp.READ_MODIFIED_WRITE):
            if op is BusOp.INVALIDATE and sub.dirty_anywhere:
                raise ProtocolError(
                    "invalidation for a block held dirty; the writer "
                    "should have issued a read-modified-write",
                    access_index=self._refs,
                    pblock=txn.pblock,
                )
            if sub.inclusion:
                child = self._child_of(sub, txn.pblock)
                child.invalidate()
                self.stats.counters.add("l1_coherence_invalidations")
                if self._tr_coh is not None:
                    self._tr_coh.emit(
                        "coherence", "invalidate", cpu=self.cpu, pblock=txn.pblock
                    )
            sub.reset()
            rblock.refresh_valid()
        return reply

    def _snoop_unshielded(self, txn: BusTransaction) -> SnoopReply:
        # Without inclusion the level-2 cache cannot prove the block is
        # absent from level 1, so every coherence transaction descends.
        self.stats.counters.add("l1_coherence_probes")
        if self._tr_coh is not None:
            self._tr_coh.emit(
                "coherence",
                "probe",
                cpu=self.cpu,
                pblock=txn.pblock,
                op=txn.op.value,
            )
        paddr = txn.pblock << self._sub_bits
        l1_hits = [
            (l1, block)
            for l1 in self._l1s
            for block in (l1.find_present(paddr),)
            if block is not None
        ]
        buffer_entry = self.write_buffer.find(txn.pblock)
        found = self.rcache.lookup_sub_block(txn.pblock)
        reply = SnoopReply(
            has_copy=bool(l1_hits) or buffer_entry is not None or found is not None
        )
        op = txn.op

        if op is BusOp.WRITE_UPDATE:
            if txn.version is None:
                raise ProtocolError(
                    "write-update snooped without a data version",
                    access_index=self._refs,
                    pblock=txn.pblock,
                )
            if buffer_entry is not None and self._write_through:
                buffer_entry.version = txn.version
            else:
                held_dirty = (
                    any(b.dirty for _, b in l1_hits)
                    or buffer_entry is not None
                    or (found is not None and found[1].rdirty)
                )
                if held_dirty:
                    raise ProtocolError(
                        "write-update for a block held dirty",
                        access_index=self._refs,
                        pblock=txn.pblock,
                    )
            for _, block in l1_hits:
                block.version = txn.version
            if found is not None:
                found[1].version = txn.version
                found[1].state = ShareState.SHARED
            return reply

        if op in (BusOp.READ_MISS, BusOp.READ_MODIFIED_WRITE):
            dirty_l1 = next(
                ((l1, b) for l1, b in l1_hits if b.dirty), None
            )
            if dirty_l1 is not None:
                block = dirty_l1[1]
                reply.supplied_version = block.version
                block.dirty = False
            elif buffer_entry is not None:
                self.write_buffer.remove(txn.pblock)
                reply.supplied_version = buffer_entry.version
                buffer_entry = None
            elif found is not None and found[1].rdirty:
                reply.supplied_version = found[1].version
            if found is not None:
                sub = found[1]
                if reply.supplied_version is not None:
                    sub.version = reply.supplied_version
                sub.rdirty = False
                sub.state = ShareState.SHARED

        if op in (BusOp.INVALIDATE, BusOp.READ_MODIFIED_WRITE):
            if op is BusOp.INVALIDATE:
                held_dirty = (
                    any(b.dirty for _, b in l1_hits)
                    or buffer_entry is not None
                    or (found is not None and found[1].rdirty)
                )
                if held_dirty:
                    raise ProtocolError(
                        "invalidation for a block held dirty",
                        access_index=self._refs,
                        pblock=txn.pblock,
                    )
            for _, block in l1_hits:
                block.invalidate()
            if buffer_entry is not None:
                self.write_buffer.remove(txn.pblock)
            if found is not None:
                rblock, sub = found
                sub.reset()
                rblock.refresh_valid()
        return reply
