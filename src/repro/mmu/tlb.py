"""A set-associative translation lookaside buffer.

The paper places the TLB at the second level, where it translates in
parallel with the V-cache lookup and is consulted only when the
V-cache misses.  The TLB never affects hit ratios in the paper's
methodology — translation penalties enter through the closed-form
timing model — but the simulator models it anyway so that TLB reach
and flush behaviour can be studied (and so the R-R baseline, which
translates before *every* level-1 access, has a realistic front end).

Entries are tagged with (pid, vpage); :meth:`flush_pid` supports the
selective-flush discussion in section 2 of the paper.
"""

from __future__ import annotations

from array import array

from ..common.errors import ConfigurationError
from ..common.params import is_power_of_two
from ..common.stats import CounterBag
from .address_space import MemoryLayout

#: Resident entries are keyed by ``(pid << PID_SHIFT) | vpage``.
PID_SHIFT = 48
_VPAGE_MASK = (1 << PID_SHIFT) - 1


class TLB:
    """LRU set-associative TLB over a :class:`MemoryLayout`.

    Entries live in flat arrays (pid, vpage, frame, LRU timestamp,
    valid), one slot per way, set-major.  A hit refreshes the entry's
    timestamp; a miss that finds its set full evicts the entry with
    the smallest timestamp (least recently used or inserted).
    Resident entries never move between slots, so the replay walker
    finds a resident entry's slot in the same key -> slot map the
    scalar path reads.

    >>> layout = MemoryLayout()
    >>> seg = layout.add_private_segment(pid=1, name="d", base_vaddr=0x4000, n_pages=2)
    >>> tlb = TLB(layout, n_entries=16, associativity=4)
    >>> tlb.translate(1, 0x4008) == layout.translate(1, 0x4008)
    True
    >>> tlb.stats["misses"], tlb.stats["hits"]
    (1, 0)
    """

    __slots__ = (
        "layout",
        "n_entries",
        "associativity",
        "n_sets",
        "stats",
        "pids",
        "vpages",
        "frames",
        "ts",
        "valid",
        "_tick",
        "_map",
        "_frames_py",
        "_page_shift",
        "_page_mask",
        "_counts",
    )

    def __init__(
        self,
        layout: MemoryLayout,
        n_entries: int = 64,
        associativity: int = 4,
    ) -> None:
        if not is_power_of_two(n_entries):
            raise ConfigurationError(f"TLB entries must be a power of two: {n_entries}")
        if associativity < 1 or n_entries % associativity:
            raise ConfigurationError(
                f"associativity {associativity} does not divide {n_entries} entries"
            )
        self.layout = layout
        self.n_entries = n_entries
        self.associativity = associativity
        self.n_sets = n_entries // associativity
        self.stats = CounterBag()
        self.pids = array("q", bytes(8 * n_entries))
        self.vpages = array("q", bytes(8 * n_entries))
        self.frames = array("q", bytes(8 * n_entries))
        self.ts = array("q", bytes(8 * n_entries))
        self.valid = bytearray(n_entries)
        self._tick = 0
        # Resident key -> slot, and the frames as plain ints for
        # scalar reads.
        self._map: dict[int, int] = {}
        self._frames_py: list[int] = [0] * n_entries
        # Hot-path constants: page slicing by shift/mask when the page
        # size is a power of two (the usual case), and the counters
        # aliased directly (CounterBag restores in place, so the alias
        # survives checkpoint restore).
        page_size = layout.page_size
        self._page_shift = (
            page_size.bit_length() - 1 if is_power_of_two(page_size) else None
        )
        self._page_mask = page_size - 1
        self._counts = self.stats._counts

    def translate(self, pid: int, vaddr: int) -> int:
        """Translate through the TLB, walking the page table on a miss."""
        page_size = self.layout.page_size
        shift = self._page_shift
        if shift is not None:
            vpage = vaddr >> shift
            offset = vaddr & self._page_mask
        else:
            vpage, offset = divmod(vaddr, page_size)
        key = (pid << PID_SHIFT) | vpage
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
                del self._map[(self.pids[oldest] << PID_SHIFT) | self.vpages[oldest]]
                valid[oldest] = 0
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
        """Invalidate every entry (full flush)."""
        # One "flushed_entries" add per set, including zero-valued adds
        # for empty sets (those mint the counter key, which state
        # digests can see).
        per_set = [0] * self.n_sets
        for key, slot in self._map.items():
            per_set[(key & _VPAGE_MASK) % self.n_sets] += 1
            self.valid[slot] = 0
        self._map.clear()
        for count in per_set:
            self.stats.add("flushed_entries", count)
        self.stats.add("flushes")

    def flush_pid(self, pid: int) -> None:
        """Invalidate only the entries of process *pid* (selective flush)."""
        per_set: list[list[int]] = [[] for _ in range(self.n_sets)]
        for key in self._map:
            if (key >> PID_SHIFT) == pid:
                per_set[(key & _VPAGE_MASK) % self.n_sets].append(key)
        for bucket in per_set:
            for key in bucket:
                self.valid[self._map.pop(key)] = 0
            self.stats.add("flushed_entries", len(bucket))
        self.stats.add("selective_flushes")

    def resident(self) -> list[tuple[int, int]]:
        """Every (pid, vpage) currently cached, for inspection in tests."""
        return sorted((key >> PID_SHIFT, key & _VPAGE_MASK) for key in self._map)

    def entries(self) -> list[tuple[int, int, int]]:
        """Every resident (pid, vpage, frame) triple, sorted.

        The invariant checker cross-checks these cached translations
        against the page tables.
        """
        return sorted(
            (key >> PID_SHIFT, key & _VPAGE_MASK, self._frames_py[slot])
            for key, slot in self._map.items()
        )

    # -- checkpointing ---------------------------------------------------------

    def export_state(self) -> dict:
        """Checkpointable snapshot: per set, the resident entries in
        LRU order (oldest first) as ``((pid, vpage), frame)`` pairs,
        plus the stats."""
        sets: list[list] = [[] for _ in range(self.n_sets)]
        for _, key, slot in sorted(
            (self.ts[slot], key, slot) for key, slot in self._map.items()
        ):
            sets[(key & _VPAGE_MASK) % self.n_sets].append(
                ((key >> PID_SHIFT, key & _VPAGE_MASK), self._frames_py[slot])
            )
        return {"sets": sets, "stats": self.stats.export_state()}

    def restore_state(self, state: dict) -> None:
        """Replace TLB contents (including LRU order) with a snapshot's."""
        self._map.clear()
        # Wiped in place, so every holder of these buffers sees the
        # snapshot.
        self.valid[:] = bytes(len(self.valid))
        self.ts[:] = array("q", bytes(8 * len(self.ts)))
        self._tick = 0
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
                self._map[(int(pid) << PID_SHIFT) | int(vpage)] = slot
        self.stats.restore_state(state["stats"])
