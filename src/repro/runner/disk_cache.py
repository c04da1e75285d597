"""Persistent on-disk cache of :class:`SimulationResult` objects.

The cache fronts the per-process simulation memo in
``repro.experiments.base``: a simulation that already ran — in this
process, another worker, or a previous invocation — is loaded from
disk instead of being replayed, so re-running ``repro-all`` after a
code-irrelevant change is near-instant.

Entries are **content-keyed**: the file name is a digest of every
parameter that affects the result (trace, scale, geometry, hierarchy
kind, seed, config overrides, and the guard/fault options).  The whole
cache is **versioned by a schema hash** — a digest of the source text
of every package the simulation outcome depends on — so any change to
the simulator's behaviour lands in a fresh subdirectory and stale
entries self-invalidate.  Old schema directories are pruned lazily.

Results are stored with :mod:`pickle` (they are plain stats
containers), written atomically (temp file + ``os.replace``) so
concurrent workers and interrupted runs never leave a torn entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import shutil
from pathlib import Path
from typing import Any

from ..obs import get_logger

logger = get_logger("runner.disk_cache")

#: Subpackages whose source determines simulation results.  Changes to
#: the experiments, runner, obs, analysis and perf layers (rendering,
#: planning, instrumentation, checking, plotting) do not invalidate
#: cached simulations.
_SCHEMA_PACKAGES = (
    "cache",
    "coherence",
    "common",
    "core",
    "faults",
    "hierarchy",
    "mmu",
    "system",
    "trace",
)

_schema_hash: str | None = None


def schema_hash() -> str:
    """Digest of the simulation-relevant source (memoised per process)."""
    global _schema_hash
    if _schema_hash is None:
        import repro

        digest = hashlib.sha256()
        root = Path(repro.__file__).parent
        for package in _SCHEMA_PACKAGES:
            for path in sorted((root / package).rglob("*.py")):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
        _schema_hash = digest.hexdigest()[:16]
    return _schema_hash


def default_cache_dir() -> str:
    """Where the cache lives unless overridden.

    ``$REPRO_CACHE_DIR`` wins; in a source checkout (a ``pyproject.toml``
    three levels above the package) the cache sits next to the benchmark
    artefacts in ``benchmarks/results/cache``; an installed package
    falls back to ``~/.cache/repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    import repro

    repo_root = Path(repro.__file__).resolve().parents[2]
    if (repo_root / "pyproject.toml").is_file():
        return str(repo_root / "benchmarks" / "results" / "cache")
    return str(Path.home() / ".cache" / "repro")


def key_digest(parts: tuple[Any, ...]) -> str:
    """Stable digest of a simulation key tuple.

    Every element is rendered with ``repr`` — the keys are built from
    primitives, enums and option dataclasses whose reprs are stable
    and unambiguous.
    """
    text = "\x1f".join(repr(part) for part in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class ResultCache:
    """One cache root, bound to the current schema hash."""

    def __init__(self, root: str) -> None:
        self.root = Path(root)
        self.schema_dir = self.root / schema_hash()
        self._pruned = False

    def _path(self, parts: tuple[Any, ...]) -> Path:
        return self.schema_dir / f"{key_digest(parts)}.pkl"

    def load(self, parts: tuple[Any, ...]) -> Any | None:
        """The cached result for *parts*, or None.

        A torn or unreadable entry is treated as a miss and removed, so
        the caller re-executes and overwrites it.  Writers are atomic
        (``os.replace``), but a cache directory shared by concurrent
        runs can still surface entries damaged by crashed writers on
        non-atomic filesystems, truncation, or plain disk corruption —
        and a corrupt pickle raises essentially anything
        (``UnpicklingError``, ``EOFError``, ``AttributeError``,
        ``IndexError``, ``ImportError``, ``MemoryError`` on a bogus
        length prefix, …).  A cache must never let any of those escape
        as a crash, so everything except process-fatal exceptions is a
        miss.
        """
        path = self._path(parts)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Another process may have deleted the same corrupt entry
            # between our read and unlink; both orders are fine.
            with contextlib.suppress(OSError):
                path.unlink()
            return None

    def store(self, parts: tuple[Any, ...], result: Any) -> None:
        """Persist *result* under *parts*, atomically.

        Best-effort under concurrency: a sibling process running
        :meth:`clear` can sweep the schema directory (tmp file and
        all) between our write and rename, so the write is retried
        once into a recreated directory rather than crashing the run
        that produced the result.
        """
        self._prune_stale_schemas()
        path = self._path(parts)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        for attempt in range(2):
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{attempt}.tmp")
            try:
                tmp.write_bytes(payload)
                os.replace(tmp, path)
                return
            except FileNotFoundError:
                continue  # directory swept mid-write; recreate and retry
            finally:
                # Unconditional unlink: an exists()-then-unlink() pair
                # races with a concurrent cleaner between the two calls.
                with contextlib.suppress(FileNotFoundError):
                    tmp.unlink()
        # Both attempts lost the race with a concurrent clear(); the run
        # keeps its in-memory result, but a cache dir swept this often
        # never persists anything — make that observable.
        logger.warning(
            "cache store dropped after repeated directory sweeps: %s", path
        )

    def clear(self) -> int:
        """Delete every entry (all schema versions); returns files removed."""
        removed = 0
        if self.root.is_dir():
            removed = sum(1 for _ in self.root.rglob("*.pkl"))
            shutil.rmtree(self.root, ignore_errors=True)
        return removed

    def entry_count(self) -> int:
        """Entries stored under the current schema."""
        if not self.schema_dir.is_dir():
            return 0
        return sum(1 for _ in self.schema_dir.glob("*.pkl"))

    def _prune_stale_schemas(self) -> None:
        """Drop sibling schema directories from older code (once)."""
        if self._pruned:
            return
        self._pruned = True
        if not self.root.is_dir():
            return
        # sorted(): the sweep's removal order is observable (logs,
        # crash timing under concurrent clears); keep it deterministic.
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and entry.name != self.schema_dir.name:
                shutil.rmtree(entry, ignore_errors=True)


_caches: dict[str, ResultCache] = {}


def get_cache(root: str) -> ResultCache:
    """A per-process singleton cache per root directory."""
    cache = _caches.get(root)
    if cache is None:
        cache = _caches[root] = ResultCache(root)
    return cache
