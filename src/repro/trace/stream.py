"""Bounded-chunk streaming traces (DESIGN.md §14).

The in-memory trace path (``SyntheticWorkload.records()`` feeding a
``list[TraceRecord]`` into the machine) materialises every record and
caps runs at the size of RAM.  This module is the streaming
substrate: a trace is a sequence of fixed-size :class:`TraceChunk`
batches — four parallel numpy ``int64`` vectors per chunk — produced
lazily by a :class:`TraceStream`, so a billion-reference replay holds
at most one chunk at a time.

The chunk layout is deliberately the replay walker's own batch
layout: ``run_soa`` consumes the vectors directly (no ``TraceRecord``
objects are ever built), while the scalar loop and the guarded replay
iterate :meth:`TraceChunk.records`, which yields real records.  The
kind encoding is shared with the walker:

====  =========
code  kind
====  =========
0     INSTR
1     READ
2     WRITE
3     CSWITCH
4     CALL
====  =========

Streams are *resumable*: ``chunks(start=n)`` re-enters the trace at
absolute record index ``n`` (seekable formats jump there; generated
streams regenerate and skip — bounded memory either way), which is
what lets checkpointed replays restart mid-trace.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from itertools import islice

import numpy as np

from ..common.errors import TraceFormatError
from .record import RefKind, TraceRecord

#: Records per chunk unless a stream overrides it.  Matches the
#: walker's 64k-record batch, so one chunk is one batch.
DEFAULT_CHUNK_RECORDS = 1 << 16

#: RefKind -> integer code (the walker's batch encoding).
KIND_TO_CODE: dict[RefKind, int] = {
    RefKind.INSTR: 0,
    RefKind.READ: 1,
    RefKind.WRITE: 2,
    RefKind.CSWITCH: 3,
    RefKind.CALL: 4,
}

#: Integer code -> RefKind, indexable by code.
CODE_TO_KIND: tuple[RefKind, ...] = (
    RefKind.INSTR,
    RefKind.READ,
    RefKind.WRITE,
    RefKind.CSWITCH,
    RefKind.CALL,
)

#: Codes < MEMORY_CODE_LIMIT are memory references.
MEMORY_CODE_LIMIT = 3


class TraceChunk:
    """A bounded batch of trace records as four parallel vectors.

    Attributes:
        cpu, pid, kind, vaddr: ``int64`` numpy vectors of equal length
            (``kind`` holds :data:`KIND_TO_CODE` codes).
        start: absolute record index of the first record, so a chunk
            knows its position in the whole trace.
    """

    __slots__ = ("cpu", "pid", "kind", "vaddr", "start")

    def __init__(
        self,
        cpu: np.ndarray,
        pid: np.ndarray,
        kind: np.ndarray,
        vaddr: np.ndarray,
        start: int = 0,
    ) -> None:
        n = len(cpu)
        if not (len(pid) == len(kind) == len(vaddr) == n):
            raise ValueError("chunk vectors must have equal length")
        self.cpu = cpu
        self.pid = pid
        self.kind = kind
        self.vaddr = vaddr
        self.start = start

    def __len__(self) -> int:
        return len(self.cpu)

    @property
    def end(self) -> int:
        """Absolute record index one past the last record."""
        return self.start + len(self.cpu)

    @property
    def memory_refs(self) -> int:
        """How many records are memory references (not markers)."""
        return int(np.count_nonzero(self.kind < MEMORY_CODE_LIMIT))

    @classmethod
    def from_records(
        cls, records: Iterable[TraceRecord], start: int = 0
    ) -> "TraceChunk":
        """Pack materialised *records* into one chunk.

        This is the one record-to-vector conversion: the walker and
        the binary writer both reach record iterables through it.
        """
        batch = records if isinstance(records, list) else list(records)
        k_i, k_r, k_w, k_cs = CODE_TO_KIND[:4]
        return cls(
            np.asarray([r.cpu for r in batch], dtype=np.int64),
            np.asarray([r.pid for r in batch], dtype=np.int64),
            # Identity compares beat a KIND_TO_CODE lookup: ``RefKind``
            # members hash through ``Enum.__hash__`` (a Python call).
            np.asarray(
                [
                    0 if (k := r.kind) is k_i else 1 if k is k_r
                    else 2 if k is k_w else 3 if k is k_cs else 4
                    for r in batch
                ],
                dtype=np.int64,
            ),
            np.asarray([r.vaddr for r in batch], dtype=np.int64),
            start,
        )

    def records(self) -> Iterator[TraceRecord]:
        """The chunk as :class:`TraceRecord` objects (scalar paths)."""
        kinds = CODE_TO_KIND
        cpu = self.cpu.tolist()
        pid = self.pid.tolist()
        kind = self.kind.tolist()
        vaddr = self.vaddr.tolist()
        for i in range(len(cpu)):
            yield TraceRecord(cpu[i], pid[i], kinds[kind[i]], vaddr[i])

    def tail(self, skip: int) -> "TraceChunk":
        """The chunk minus its first *skip* records (zero-copy views).

        Used when resuming mid-chunk: a seekable reader lands on the
        frame containing the resume point and trims the records that
        were already replayed.
        """
        if skip < 0 or skip > len(self.cpu):
            raise ValueError(
                f"cannot skip {skip} records of a {len(self.cpu)}-record chunk"
            )
        if skip == 0:
            return self
        return TraceChunk(
            self.cpu[skip:],
            self.pid[skip:],
            self.kind[skip:],
            self.vaddr[skip:],
            self.start + skip,
        )


def chunk_iter(
    records: Iterable[TraceRecord],
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    start: int = 0,
) -> Iterator[TraceChunk]:
    """Batch a record iterator into :class:`TraceChunk` instances.

    *start* is the absolute index of the first record of *records*
    (the caller has already skipped that many), stamped onto the
    chunks so downstream checkpoints see absolute positions.
    """
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    it = iter(records)
    position = start
    while True:
        batch = list(islice(it, chunk_records))
        if not batch:
            return
        chunk = TraceChunk.from_records(batch, position)
        position += len(batch)
        yield chunk


class TraceStream:
    """A resumable, bounded-memory source of :class:`TraceChunk`\\ s.

    Subclasses implement :meth:`chunks`; everything else (record
    iteration, provenance, metadata) has working defaults.  Iterating
    a stream yields records, so any API that accepts an iterable of
    records (``Multiprocessor.run``, ``textio.dump``) accepts a stream
    unchanged — the replay walker additionally detects the ``chunks``
    attribute and consumes the vectors directly.

    Attributes:
        format_name: short format identifier ("synthetic", "rtb", …).
        format_version: integer version of the format/generator.
        chunk_records: records per chunk this stream emits.
        n_records: total records, when the format knows it (else None).
        n_cpus: CPU count of the traced machine, when known.
    """

    format_name = "stream"
    format_version = 1
    chunk_records = DEFAULT_CHUNK_RECORDS
    n_records: int | None = None
    n_cpus: int | None = None

    def chunks(self, start: int = 0) -> Iterator[TraceChunk]:
        """Yield chunks from absolute record index *start* onward."""
        raise NotImplementedError

    def records(self, start: int = 0) -> Iterator[TraceRecord]:
        """Flattened record view of :meth:`chunks`."""
        for chunk in self.chunks(start):
            yield from chunk.records()

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.records()

    def provenance(self) -> tuple[str, int, str] | None:
        """``(format_name, format_version, content digest)`` or None.

        Keyed into the persistent result cache so a result computed
        from one trace file can never answer for another.  Streams
        with no stable identity (ad-hoc iterators) return None and are
        not disk-cached.
        """
        return None

    def describe(self) -> dict:
        """Human-facing metadata (``repro-trace info``)."""
        return {
            "format": self.format_name,
            "version": self.format_version,
            "chunk_records": self.chunk_records,
            "records": self.n_records,
            "cpus": self.n_cpus,
        }


class SyntheticTraceStream(TraceStream):
    """A synthetic workload as a stream: generated, never materialised.

    Each :meth:`chunks` call builds a fresh generator from the spec
    (the per-process engines are stateful, so iteration is one-shot)
    and skips *start* records — regeneration costs CPU, not memory,
    which is the trade a resumed billion-reference run wants.

    >>> from .synthetic import WorkloadSpec
    >>> stream = SyntheticTraceStream(WorkloadSpec(total_refs=1000), 256)
    >>> sum(len(c) for c in stream.chunks())  # doctest: +SKIP
    1004
    """

    format_name = "synthetic"

    def __init__(self, spec, chunk_records: int = DEFAULT_CHUNK_RECORDS) -> None:
        if chunk_records < 1:
            raise TraceFormatError(
                f"chunk_records must be >= 1, got {chunk_records}"
            )
        self.spec = spec
        self.chunk_records = chunk_records
        self.n_cpus = spec.n_cpus
        self._layout = None

    @property
    def layout(self):
        """The workload's :class:`~repro.mmu.address_space.MemoryLayout`.

        Built once from the spec; address-space construction is
        deterministic, so this layout matches the one any regeneration
        of the trace translates against.
        """
        if self._layout is None:
            from .synthetic import SyntheticWorkload

            self._layout = SyntheticWorkload(self.spec).layout
        return self._layout

    def chunks(self, start: int = 0) -> Iterator[TraceChunk]:
        from .synthetic import SyntheticWorkload

        source: Iterator[TraceRecord] = iter(SyntheticWorkload(self.spec))
        if start:
            # Regenerate-and-discard: O(start) time, O(1) memory.
            skipped = sum(1 for _ in islice(source, start))
            if skipped < start:
                return
        yield from chunk_iter(source, self.chunk_records, start)

    def provenance(self) -> tuple[str, int, str]:
        digest = hashlib.sha256(repr(self.spec).encode()).hexdigest()
        return (self.format_name, self.format_version, digest)

    def describe(self) -> dict:
        info = super().describe()
        info["workload"] = self.spec.name
        info["total_refs"] = self.spec.total_refs
        return info


class StreamCursor:
    """A :class:`~repro.trace.record.TraceCursor` over a stream.

    Same ``take``/``position`` contract, implemented over
    :meth:`TraceStream.chunks` with at most one chunk of lookahead —
    the checkpointed replay driver uses whichever cursor matches its
    trace without caring which.
    """

    __slots__ = ("stream", "position", "_records")

    def __init__(self, stream: TraceStream, position: int = 0) -> None:
        if position < 0:
            raise ValueError(f"position {position} is negative")
        self.stream = stream
        self.position = position
        self._records = stream.records(position)

    def take(self, n: int) -> list[TraceRecord]:
        """The next at-most-*n* records; advances the position.

        Returns an empty list once the stream is exhausted.
        """
        if n < 1:
            raise ValueError(f"chunk size must be >= 1, got {n}")
        batch = list(islice(self._records, n))
        self.position += len(batch)
        return batch
