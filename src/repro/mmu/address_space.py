"""Process address spaces built from named segments.

A :class:`MemoryLayout` owns the frame allocator, the page tables of
every process and the reverse map.  Segments come in two flavours:

* private — fresh physical frames for one process;
* shared  — one set of physical frames mapped into several processes,
  each at its own virtual base (and optionally *aliased* twice inside
  one process), which is exactly how synonyms arise.

The trace generator asks a layout for segments; the simulator asks it
for translations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigurationError, TranslationError
from .page_table import FrameAllocator, PageTable, ReverseMap


@dataclass(frozen=True)
class Segment:
    """A contiguous range of virtual pages owned by one process.

    Attributes:
        pid: owning process.
        name: human-readable label ("text", "stack", "shm0", ...).
        base_vaddr: first virtual address of the segment.
        n_pages: length in pages.
        page_size: bytes per page.
    """

    pid: int
    name: str
    base_vaddr: int
    n_pages: int
    page_size: int

    @property
    def size(self) -> int:
        """Segment length in bytes."""
        return self.n_pages * self.page_size

    @property
    def end_vaddr(self) -> int:
        """One past the last virtual address of the segment."""
        return self.base_vaddr + self.size

    def contains(self, vaddr: int) -> bool:
        """True when *vaddr* falls inside this segment."""
        return self.base_vaddr <= vaddr < self.end_vaddr


class MemoryLayout:
    """All address spaces of one simulated machine.

    >>> layout = MemoryLayout(page_size=4096)
    >>> text = layout.add_private_segment(pid=1, name="text", base_vaddr=0x10000, n_pages=4)
    >>> paddr = layout.translate(1, text.base_vaddr + 12)
    >>> paddr % 4096
    12
    """

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size
        self.allocator = FrameAllocator(page_size)
        self.reverse_map = ReverseMap()
        self._tables: dict[int, PageTable] = {}
        self._segments: list[Segment] = []

    # -- construction -------------------------------------------------

    def table(self, pid: int) -> PageTable:
        """The page table of process *pid*, created on first use."""
        if pid not in self._tables:
            self._tables[pid] = PageTable(pid, self.page_size)
        return self._tables[pid]

    def _check_alignment(self, base_vaddr: int) -> None:
        if base_vaddr % self.page_size:
            raise ConfigurationError(
                f"segment base {base_vaddr:#x} is not page aligned"
            )

    def add_private_segment(
        self, pid: int, name: str, base_vaddr: int, n_pages: int
    ) -> Segment:
        """Create a segment backed by fresh private frames."""
        self._check_alignment(base_vaddr)
        first_frame = self.allocator.allocate(n_pages)
        return self._map_segment(pid, name, base_vaddr, n_pages, first_frame)

    def add_shared_segment(
        self, name: str, mappings: list[tuple[int, int]], n_pages: int
    ) -> list[Segment]:
        """Create one physical region mapped into several address spaces.

        *mappings* is a list of ``(pid, base_vaddr)`` pairs.  The same
        pid may appear twice with different bases, producing
        intra-process synonyms.  Returns one :class:`Segment` per
        mapping, in input order.
        """
        if not mappings:
            raise ConfigurationError("shared segment needs at least one mapping")
        first_frame = self.allocator.allocate(n_pages)
        segments = []
        for pid, base_vaddr in mappings:
            self._check_alignment(base_vaddr)
            segments.append(
                self._map_segment(pid, name, base_vaddr, n_pages, first_frame)
            )
        return segments

    def _map_segment(
        self, pid: int, name: str, base_vaddr: int, n_pages: int, first_frame: int
    ) -> Segment:
        table = self.table(pid)
        base_vpage = base_vaddr // self.page_size
        for i in range(n_pages):
            table.map(base_vpage + i, first_frame + i)
            self.reverse_map.note(first_frame + i, pid, base_vpage + i)
        segment = Segment(pid, name, base_vaddr, n_pages, self.page_size)
        self._segments.append(segment)
        return segment

    # -- queries -------------------------------------------------------

    def translate(self, pid: int, vaddr: int) -> int:
        """Translate (*pid*, *vaddr*) to a physical address."""
        try:
            table = self._tables[pid]
        except KeyError:
            raise TranslationError(f"unknown process {pid}") from None
        return table.translate(vaddr)

    def segments(self, pid: int | None = None) -> list[Segment]:
        """All segments, optionally restricted to one process."""
        if pid is None:
            return list(self._segments)
        return [s for s in self._segments if s.pid == pid]

    def pids(self) -> list[int]:
        """All process ids with a page table, sorted."""
        return sorted(self._tables)

    @property
    def physical_size(self) -> int:
        """Bytes of physical memory allocated so far."""
        return self.allocator.frames_allocated * self.page_size


class DemandLayout(MemoryLayout):
    """A layout that maps pages on first touch.

    External traces (binary/din files, SynchroTrace lowerings) carry
    no segment map, so their address spaces cannot be pre-built the
    way the synthetic generator's can.  This layout allocates a fresh
    frame the first time a (pid, page) is referenced — a bump
    allocation, so physical placement is a pure function of first
    touch order, which is the trace order.  Replaying the same trace
    therefore always produces the same translations.

    Because the mapping is built *during* the run, it is replay state:
    checkpoints must carry it (:meth:`export_state` /
    :meth:`restore_state`), otherwise a resumed run would re-allocate
    frames in resume-order rather than trace-order and diverge.
    """

    def translate(self, pid: int, vaddr: int) -> int:
        """Translate, mapping the page on first touch."""
        table = self.table(pid)
        vpage, offset = divmod(vaddr, self.page_size)
        frame = table._map.get(vpage)
        if frame is None:
            frame = self.allocator.allocate(1)
            table.map(vpage, frame)
            self.reverse_map.note(frame, pid, vpage)
        return (frame << table._page_shift) | offset

    def export_state(self) -> dict:
        """The on-demand mapping as checkpointable plain data."""
        return {
            "next_frame": self.allocator._next_frame,
            "tables": {
                str(pid): {
                    str(vpage): frame
                    for vpage, frame in sorted(table._map.items())
                }
                for pid, table in sorted(self._tables.items())
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore a mapping exported by :meth:`export_state`."""
        self.allocator._next_frame = int(state["next_frame"])
        self._tables.clear()
        self.reverse_map = ReverseMap()
        for pid_s, pages in state["tables"].items():
            table = self.table(int(pid_s))
            for vpage_s, frame in pages.items():
                vpage = int(vpage_s)
                table._map[vpage] = int(frame)
                self.reverse_map.note(int(frame), int(pid_s), vpage)
