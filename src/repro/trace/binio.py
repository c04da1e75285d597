"""The RPTB binary trace container: gzip'd framing of din records.

A ``.rtb`` file is the din-style text format (cpu, pid, kind, vaddr)
re-encoded as fixed-width little-endian records, chunked into
independently gzip-compressed frames behind a fixed-size header::

    header  (32 bytes, uncompressed)
      magic          4s   b"RPTB"
      version        u16  1
      record_size    u16  16
      chunk_records  u32  records per full frame
      n_records      u64  total records in the file
      n_cpus         u16  CPU count of the traced machine
      flags          u16  reserved (0)
      reserved       8s   zeros

    frame (repeated)
      magic          4s   b"RPFR"
      record_count   u32  records in this frame
      payload_len    u32  compressed payload bytes
      payload        payload_len bytes: gzip(record_count * 16 bytes)

    record (16 bytes, little endian)
      cpu   u16 | pid u32 | kind u8 | pad u8 (0) | vaddr u64

Because every frame header carries its compressed length, a reader
builds a **chunk index** — ``(first_record, byte_offset)`` per frame —
by hopping frame headers without decompressing anything, which is what
makes mid-trace resume cheap: seek to the frame containing the resume
record, decompress one frame, trim.  Gzip payloads are written with
``mtime=0`` and a fixed compression level, so encoding is
deterministic and byte-identical round trips (text → binary → text)
are a testable invariant rather than an accident.

Every malformed-input path raises a structured
:class:`~repro.common.errors.TraceFormatError` — bad magic, unknown
version, truncated header, torn frame, mid-record EOF — and a frame
is only ever surfaced whole: the loader never yields partial records.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import struct
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from ..common.errors import TraceFormatError
from .record import TraceRecord
from .stream import (
    DEFAULT_CHUNK_RECORDS,
    KIND_TO_CODE,
    TraceChunk,
    TraceStream,
)

MAGIC = b"RPTB"
FRAME_MAGIC = b"RPFR"
VERSION = 1
RECORD_SIZE = 16

_HEADER = struct.Struct("<4sHHIQHH8s")
_FRAME = struct.Struct("<4sII")

#: Fixed gzip level: part of the format's determinism contract.
_GZIP_LEVEL = 6

#: Numpy view of one record (itemsize == RECORD_SIZE).
_RECORD_DTYPE = np.dtype(
    [
        ("cpu", "<u2"),
        ("pid", "<u4"),
        ("kind", "u1"),
        ("pad", "u1"),
        ("vaddr", "<u8"),
    ]
)
assert _RECORD_DTYPE.itemsize == RECORD_SIZE

_CPU_MAX = (1 << 16) - 1
_PID_MAX = (1 << 32) - 1
_KIND_MAX = len(KIND_TO_CODE) - 1


def _encode_chunk(chunk: TraceChunk) -> bytes:
    """The raw (uncompressed) record bytes of *chunk*."""
    n = len(chunk)
    for name, vec, limit in (
        ("cpu", chunk.cpu, _CPU_MAX),
        ("pid", chunk.pid, _PID_MAX),
        ("kind", chunk.kind, _KIND_MAX),
    ):
        if n and (int(vec.min()) < 0 or int(vec.max()) > limit):
            raise TraceFormatError(
                f"{name} field outside the binary format's range [0, {limit}]"
            )
    if n and int(chunk.vaddr.min()) < 0:
        raise TraceFormatError("negative vaddr cannot be encoded")
    out = np.zeros(n, dtype=_RECORD_DTYPE)
    out["cpu"] = chunk.cpu
    out["pid"] = chunk.pid
    out["kind"] = chunk.kind
    out["vaddr"] = chunk.vaddr
    return out.tobytes()


def _decode_frame(raw: bytes, start: int) -> TraceChunk:
    """Raw record bytes back into a :class:`TraceChunk`."""
    arr = np.frombuffer(raw, dtype=_RECORD_DTYPE)
    kind = arr["kind"].astype(np.int64)
    if len(kind) and int(kind.max()) > _KIND_MAX:
        raise TraceFormatError(
            f"record with unknown kind code {int(kind.max())}",
            column=3,
        )
    return TraceChunk(
        arr["cpu"].astype(np.int64),
        arr["pid"].astype(np.int64),
        kind,
        arr["vaddr"].astype(np.int64),
        start,
    )


class BinaryTraceWriter:
    """Streams records/chunks into an RPTB file (context manager).

    The header is finalised on :meth:`close` (total records and CPU
    count are only known then), so the file is written front to back
    in one pass plus a single seek back to offset 0.
    """

    def __init__(
        self, path: str | Path, chunk_records: int = DEFAULT_CHUNK_RECORDS
    ) -> None:
        if chunk_records < 1:
            raise TraceFormatError(
                f"chunk_records must be >= 1, got {chunk_records}"
            )
        self.path = Path(path)
        self.chunk_records = chunk_records
        self.n_records = 0
        self.n_cpus = 0
        self._pending: list[TraceRecord] = []
        self._handle = open(self.path, "wb")
        self._handle.write(self._header())

    def _header(self) -> bytes:
        return _HEADER.pack(
            MAGIC,
            VERSION,
            RECORD_SIZE,
            self.chunk_records,
            self.n_records,
            self.n_cpus,
            0,
            b"\0" * 8,
        )

    def _write_frame(self, chunk: TraceChunk) -> None:
        if not len(chunk):
            return
        payload = gzip.compress(
            _encode_chunk(chunk), compresslevel=_GZIP_LEVEL, mtime=0
        )
        self._handle.write(_FRAME.pack(FRAME_MAGIC, len(chunk), len(payload)))
        self._handle.write(payload)
        self.n_records += len(chunk)
        top_cpu = int(chunk.cpu.max()) + 1 if len(chunk) else 0
        self.n_cpus = max(self.n_cpus, top_cpu)

    def write_chunk(self, chunk: TraceChunk) -> None:
        """Append one chunk, re-batching to this writer's frame size."""
        if self._pending or len(chunk) != self.chunk_records:
            self.write_records(chunk.records())
            return
        self._write_frame(chunk)

    def write_records(self, records: Iterable[TraceRecord]) -> None:
        """Append records, framing them as batches fill up."""
        pending = self._pending
        for record in records:
            pending.append(record)
            if len(pending) >= self.chunk_records:
                self._write_frame(TraceChunk.from_records(pending))
                pending.clear()

    def close(self) -> None:
        """Flush the partial frame and finalise the header."""
        if self._handle.closed:
            return
        if self._pending:
            self._write_frame(TraceChunk.from_records(self._pending))
            self._pending.clear()
        self._handle.flush()
        self._handle.seek(0)
        self._handle.write(self._header())
        self._handle.close()

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def write_binary(
    source: Iterable[TraceRecord],
    path: str | Path,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> int:
    """Write *source* (any record iterable, including a stream) to
    *path*; returns the number of records written.

    Chunked sources are consumed chunk-at-a-time, so converting a
    trace far larger than memory is safe.
    """
    with BinaryTraceWriter(path, chunk_records) as writer:
        if hasattr(source, "chunks"):
            for chunk in source.chunks():
                writer.write_chunk(chunk)
        else:
            writer.write_records(source)
    # Read after close(): the final partial frame is flushed there.
    return writer.n_records


class BinaryTraceReader(TraceStream):
    """A seekable, resumable stream over an RPTB file."""

    format_name = "rtb"
    format_version = VERSION

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            self._size = os.path.getsize(self.path)
            with open(self.path, "rb") as handle:
                header = handle.read(_HEADER.size)
        except OSError as exc:
            raise TraceFormatError(f"cannot read {self.path}: {exc}") from exc
        if len(header) < _HEADER.size:
            raise TraceFormatError(
                f"{self.path}: truncated header "
                f"({len(header)} of {_HEADER.size} bytes)"
            )
        magic, version, rec_size, chunk_records, n_records, n_cpus, flags, _ = (
            _HEADER.unpack(header)
        )
        if magic != MAGIC:
            raise TraceFormatError(
                f"{self.path}: bad magic {magic!r} (not an RPTB trace)"
            )
        if version != VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported RPTB version {version} "
                f"(expected {VERSION})"
            )
        if rec_size != RECORD_SIZE:
            raise TraceFormatError(
                f"{self.path}: record size {rec_size} != {RECORD_SIZE}"
            )
        if flags != 0:
            raise TraceFormatError(f"{self.path}: unknown flags {flags:#x}")
        if chunk_records < 1:
            raise TraceFormatError(f"{self.path}: chunk_records is 0")
        self.chunk_records = chunk_records
        self.n_records = n_records
        self.n_cpus = n_cpus
        #: (first_record, byte_offset, record_count, payload_len) per
        #: frame, built lazily by hopping frame headers.
        self._index: list[tuple[int, int, int, int]] | None = None

    # -- the chunk index -----------------------------------------------

    def frame_index(self) -> list[tuple[int, int, int, int]]:
        """Scan (once) and return the frame index.

        O(frames) seeks; nothing is decompressed.  Raises
        :class:`TraceFormatError` on torn frame headers, frames that
        run past EOF, or a record-count mismatch with the header.
        """
        if self._index is not None:
            return self._index
        index: list[tuple[int, int, int, int]] = []
        first_record = 0
        with open(self.path, "rb") as handle:
            offset = _HEADER.size
            while offset < self._size:
                handle.seek(offset)
                raw = handle.read(_FRAME.size)
                if len(raw) < _FRAME.size:
                    raise TraceFormatError(
                        f"{self.path}: truncated frame header at byte {offset}"
                    )
                magic, count, payload_len = _FRAME.unpack(raw)
                if magic != FRAME_MAGIC:
                    raise TraceFormatError(
                        f"{self.path}: bad frame magic {magic!r} "
                        f"at byte {offset}"
                    )
                body = offset + _FRAME.size
                if body + payload_len > self._size:
                    raise TraceFormatError(
                        f"{self.path}: frame at byte {offset} runs past "
                        f"end of file (payload {payload_len} bytes, "
                        f"{self._size - body} available)"
                    )
                index.append((first_record, offset, count, payload_len))
                first_record += count
                offset = body + payload_len
        if first_record != self.n_records:
            raise TraceFormatError(
                f"{self.path}: header promises {self.n_records} records, "
                f"frames hold {first_record}"
            )
        self._index = index
        return index

    def _read_frame(
        self, handle, entry: tuple[int, int, int, int]
    ) -> TraceChunk:
        first_record, offset, count, payload_len = entry
        handle.seek(offset + _FRAME.size)
        payload = handle.read(payload_len)
        if len(payload) < payload_len:
            raise TraceFormatError(
                f"{self.path}: truncated frame payload at byte {offset}"
            )
        try:
            raw = gzip.decompress(payload)
        except (OSError, EOFError) as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt frame payload at byte {offset}: {exc}"
            ) from exc
        if len(raw) != count * RECORD_SIZE:
            raise TraceFormatError(
                f"{self.path}: frame at byte {offset} decodes to "
                f"{len(raw)} bytes, expected {count * RECORD_SIZE} "
                "(mid-record EOF)"
            )
        return _decode_frame(raw, first_record)

    # -- the stream API ------------------------------------------------

    def chunks(self, start: int = 0) -> Iterator[TraceChunk]:
        index = self.frame_index()
        if start:
            firsts = [entry[0] for entry in index]
            begin = max(bisect_right(firsts, start) - 1, 0)
        else:
            begin = 0
        with open(self.path, "rb") as handle:
            for entry in index[begin:]:
                if entry[0] + entry[2] <= start:
                    continue
                chunk = self._read_frame(handle, entry)
                if start > chunk.start:
                    chunk = chunk.tail(start - chunk.start)
                yield chunk

    def provenance(self) -> tuple[str, int, str]:
        return (self.format_name, self.format_version, self.digest())

    def digest(self) -> str:
        """SHA-256 of the file bytes (conformance pinning)."""
        digest = hashlib.sha256()
        with open(self.path, "rb") as handle:
            while block := handle.read(1 << 20):
                digest.update(block)
        return digest.hexdigest()

    def describe(self) -> dict:
        info = super().describe()
        info["path"] = str(self.path)
        info["bytes"] = self._size
        info["frames"] = len(self.frame_index())
        info["sha256"] = self.digest()
        return info

