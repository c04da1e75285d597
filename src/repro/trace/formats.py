"""One front door for external traces: :func:`open_trace`.

Callers hand over a path; the format is sniffed, not declared:

- a **directory** holding ``sigil.events.out-<tid>.gz`` files is a
  SynchroTrace-style event trace (:mod:`repro.trace.synchro`);
- a file starting with the ``RPTB`` magic is the gzip-framed binary
  format (:mod:`repro.trace.binio`);
- a file starting with the gzip magic is a gzip'd din-style text
  trace;
- anything else is tried as plain din-style text.

Every reader comes back as a :class:`~repro.trace.stream.TraceStream`,
so downstream code (replay, checkpointing, the CLI) never branches on
format again.
"""

from __future__ import annotations

import gzip
import hashlib
from collections.abc import Iterator
from itertools import islice
from pathlib import Path

from ..common.errors import TraceFormatError
from . import textio
from .binio import MAGIC, BinaryTraceReader
from .stream import DEFAULT_CHUNK_RECORDS, TraceChunk, TraceStream, chunk_iter
from .synchro import SynchroTraceReader, thread_files

_GZIP_MAGIC = b"\x1f\x8b"


class TextTraceStream(TraceStream):
    """A din-style text trace (optionally gzip'd) as a stream.

    Text has no frame index, so ``chunks(start=n)`` re-reads and skips
    — O(n) time, O(1) memory.  Fine for the small text traces the
    format is meant for; convert to binary for big ones.
    """

    format_name = "din"
    format_version = 1

    def __init__(
        self, path: str | Path, chunk_records: int = DEFAULT_CHUNK_RECORDS
    ) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise TraceFormatError(f"{self.path}: no such trace file")
        self.chunk_records = chunk_records

    def chunks(self, start: int = 0) -> Iterator[TraceChunk]:
        source = textio.load(self.path)
        if start:
            skipped = sum(1 for _ in islice(source, start))
            if skipped < start:
                return
        yield from chunk_iter(source, self.chunk_records, start)

    def provenance(self) -> tuple[str, int, str]:
        return (self.format_name, self.format_version, self.digest())

    def digest(self) -> str:
        digest = hashlib.sha256()
        with open(self.path, "rb") as handle:
            while block := handle.read(1 << 20):
                digest.update(block)
        return digest.hexdigest()

    def describe(self) -> dict:
        info = super().describe()
        info["path"] = str(self.path)
        info["sha256"] = self.digest()
        return info


def sniff_format(path: str | Path) -> str:
    """The format name at *path*: ``synchro``, ``rtb``, or ``din``.

    Raises :class:`TraceFormatError` when *path* doesn't exist or a
    directory holds no thread event files.
    """
    path = Path(path)
    if path.is_dir():
        if thread_files(path):
            return "synchro"
        raise TraceFormatError(
            f"{path}: directory holds no sigil.events.out-<tid>.gz files"
        )
    if not path.is_file():
        raise TraceFormatError(f"{path}: no such trace file or directory")
    with open(path, "rb") as handle:
        head = handle.read(4)
    if head[:4] == MAGIC:
        return "rtb"
    if head[:2] == _GZIP_MAGIC:
        # Gzip'd *something*: an RPTB file is never gzip'd whole, so
        # this is a compressed text trace (validated lazily on read).
        return "din"
    return "din"


def open_trace(
    path: str | Path,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    n_cpus: int | None = None,
) -> TraceStream:
    """Open the trace at *path*, sniffing its format.

    Args:
        path: trace file or SynchroTrace directory.
        chunk_records: chunk size for formats that re-batch on read
            (binary traces keep their on-disk frame size).
        n_cpus: CPU count for formats that schedule (SynchroTrace);
            ignored by self-describing formats.
    """
    path = Path(path)
    fmt = sniff_format(path)
    if fmt == "synchro":
        return SynchroTraceReader(
            path, n_cpus=n_cpus or 2, chunk_records=chunk_records
        )
    if fmt == "rtb":
        return BinaryTraceReader(path)
    stream = TextTraceStream(path, chunk_records)
    # Fail fast on garbage: parse the first line now, not mid-replay.
    with gzip.open(path, "rt", encoding="ascii") if path.suffix == ".gz" else open(
        path, encoding="ascii"
    ) as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                if textio.parse_line(line, lineno) is not None:
                    break
                if lineno > 64:
                    break
        except (UnicodeDecodeError, OSError, EOFError) as exc:
            raise TraceFormatError(
                f"{path}: not a recognised trace format: {exc}"
            ) from exc
    return stream
