"""Checkpoint/resume for long trace replays.

A checkpoint is a pickle of every piece of mutable simulation state —
tag stores (including replacement-policy order), subentry metadata,
TLB contents in LRU order, write buffers, statistics counters, the
version-stamped memory image, the global version counter, and the
trace position — plus an optional *key* identifying the run
configuration, so a checkpoint is never resumed into a different
experiment.

Because the simulator is deterministic, restoring all of that and
replaying the remaining records produces results bit-identical to an
uninterrupted run; ``tests/test_faults.py`` kills a run mid-trace and
proves it.

Files are written atomically (temp file + ``os.replace``) so an
interruption during the save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from collections.abc import Callable, Sequence
from typing import Any

from ..cache.block import CacheBlock
from ..cache.tagstore import TagStore
from ..coherence.protocol import ShareState
from ..common.errors import CheckpointError
from ..hierarchy.rcache import RCacheBlock, SubEntry
from ..hierarchy.twolevel import TwoLevelHierarchy
from ..obs.log import get_logger
from ..system.multiprocessor import Multiprocessor, SimulationResult
from ..trace.record import TraceCursor, TraceRecord
from ..trace.stream import StreamCursor, TraceStream

logger = get_logger("faults.checkpoint")

FORMAT = "repro-checkpoint"
VERSION = 1

#: Top-level fields :func:`restore_machine` dereferences.  Validated up
#: front so a structurally damaged checkpoint is rejected *before* any
#: machine state is mutated — a mid-restore ``KeyError`` would leave
#: the machine half-overwritten.
_REQUIRED_FIELDS = (
    "key",
    "position",
    "refs",
    "next_version",
    "memory",
    "bus_stats",
    "hierarchies",
)


# -- per-component snapshots ---------------------------------------------------


def _export_block(block: CacheBlock) -> tuple:
    return (
        block.valid,
        block.swapped_valid,
        block.dirty,
        block.tag,
        block.r_pointer,
        block.version,
    )


def _restore_block(block: CacheBlock, state: tuple) -> None:
    (
        block.valid,
        block.swapped_valid,
        block.dirty,
        block.tag,
        block.r_pointer,
        block.version,
    ) = state


def _export_sub(sub: SubEntry) -> tuple:
    return (
        sub.valid,
        sub.inclusion,
        sub.buffer,
        sub.state,
        sub.vdirty,
        sub.rdirty,
        sub.v_pointer,
        sub.version,
    )


def _restore_sub(sub: SubEntry, state: tuple) -> None:
    (
        sub.valid,
        sub.inclusion,
        sub.buffer,
        sub.state,
        sub.vdirty,
        sub.rdirty,
        sub.v_pointer,
        sub.version,
    ) = state


#: What :func:`_export_block` and :func:`_export_sub` give for a
#: power-on block and subentry.
_POWER_ON_BLOCK = (False, False, False, 0, 0, 0)
_POWER_ON_SUB = (False, False, False, ShareState.PRIVATE, False, False, None, 0)


def _export_entry(block: CacheBlock) -> dict[str, Any]:
    entry: dict[str, Any] = {"block": _export_block(block)}
    if isinstance(block, RCacheBlock):
        entry["subentries"] = [_export_sub(s) for s in block.subentries]
    return entry


def _power_on_entries(store: TagStore, n_subentries: int | None) -> list:
    """One power-on entry per way, one shared object (level-2 stores
    pass their subentries per block)."""
    entry: dict[str, Any] = {"block": _POWER_ON_BLOCK}
    if n_subentries is not None:
        entry["subentries"] = [_POWER_ON_SUB] * n_subentries
    return [entry] * store.config.associativity


def _export_store(store: TagStore, n_subentries: int | None = None) -> dict:
    """One entry per set and way, in index order.

    A set that is not live holds power-on blocks only, so each of its
    ways gets the power-on export, one shared entry object, and no set
    is built to export it.
    """
    n_sets = store.config.n_sets
    power_on = _power_on_entries(store, n_subentries)
    blocks: list[dict[str, Any]] = []
    next_set = 0
    for set_index in store.live_sets():
        blocks.extend(power_on * (set_index - next_set))
        blocks.extend(_export_entry(block) for block in store.ways(set_index))
        next_set = set_index + 1
    blocks.extend(power_on * (n_sets - next_set))
    return {"blocks": blocks, "policy": store.policy.export_state()}


def _restore_store(
    store: TagStore, state: dict, n_subentries: int | None = None
) -> None:
    """Inverse of :func:`_export_store`.

    A set that is not live and whose saved entries are all power-on is
    already in its saved state, so it is skipped rather than built.
    """
    live = frozenset(store.live_sets())
    assoc = store.config.associativity
    power_on = _power_on_entries(store, n_subentries)
    entries = state["blocks"]
    for set_index in range(store.config.n_sets):
        saved = entries[set_index * assoc : (set_index + 1) * assoc]
        if set_index not in live and saved == power_on:
            continue
        for block, entry in zip(store.ways(set_index), saved):
            _restore_block(block, entry["block"])
            if isinstance(block, RCacheBlock):
                for sub, sub_state in zip(block.subentries, entry["subentries"]):
                    _restore_sub(sub, sub_state)
    store.policy.restore_state(state["policy"])


def export_hierarchy(hier: TwoLevelHierarchy) -> dict:
    """Snapshot everything mutable in one hierarchy."""
    # _refs and _last_writeback_ref are the hierarchy's only private
    # scalars; the checkpointer is the one sanctioned reader.
    return {
        "refs": hier._refs,
        "last_writeback_ref": hier._last_writeback_ref,
        "counters": hier.stats.counters.export_state(),
        "writeback_intervals": hier.stats.writeback_intervals.export_state(),
        "tlb": hier.tlb.export_state(),
        "write_buffer": hier.write_buffer.export_state(),
        "l1s": [_export_store(l1.store) for l1 in hier.l1_caches],
        "l2": _export_store(hier.rcache.store, hier.rcache.n_subentries),
    }


def restore_hierarchy(hier: TwoLevelHierarchy, state: dict) -> None:
    """Restore a hierarchy from :func:`export_hierarchy` output."""
    if len(state["l1s"]) != len(hier.l1_caches):
        raise CheckpointError(
            f"checkpoint has {len(state['l1s'])} level-1 caches, "
            f"machine has {len(hier.l1_caches)}"
        )
    hier._refs = state["refs"]
    hier._last_writeback_ref = state["last_writeback_ref"]
    # The drain countdown is derived state: it hits zero exactly at
    # references that are multiples of the drain period.
    hier._drain_countdown = (
        hier.drain_period - state["refs"] % hier.drain_period
    )
    hier.stats.counters.restore_state(state["counters"])
    hier.stats.writeback_intervals.restore_state(state["writeback_intervals"])
    hier.tlb.restore_state(state["tlb"])
    hier.write_buffer.restore_state(state["write_buffer"])
    for l1, l1_state in zip(hier.l1_caches, state["l1s"]):
        _restore_store(l1.store, l1_state)
    _restore_store(hier.rcache.store, state["l2"], hier.rcache.n_subentries)


def export_machine(
    machine: Multiprocessor,
    position: int,
    refs: int,
    key: tuple | None = None,
) -> dict:
    """Snapshot a whole machine plus the trace position."""
    state = {
        "format": FORMAT,
        "version": VERSION,
        "key": key,
        "position": position,
        "refs": refs,
        "next_version": machine.version_counter.next_value,
        "memory": machine.bus.memory.export_state(),
        "bus_stats": machine.bus.stats.export_state(),
        "hierarchies": [export_hierarchy(h) for h in machine.hierarchies],
    }
    # Demand-mapped layouts (external traces) build their page tables
    # during the run, so the mapping is replay state: without it a
    # resume would re-allocate frames in resume order and diverge.
    if hasattr(machine.layout, "export_state"):
        state["layout"] = machine.layout.export_state()
    return state


def restore_machine(machine: Multiprocessor, state: dict) -> tuple[int, int]:
    """Restore *machine* in place; returns (trace position, refs done)."""
    if len(state["hierarchies"]) != machine.n_cpus:
        raise CheckpointError(
            f"checkpoint has {len(state['hierarchies'])} CPUs, "
            f"machine has {machine.n_cpus}"
        )
    machine.version_counter.next_value = state["next_version"]
    if "layout" in state and hasattr(machine.layout, "restore_state"):
        machine.layout.restore_state(state["layout"])
    machine.bus.memory.restore_state(state["memory"])
    machine.bus.stats.restore_state(state["bus_stats"])
    for hier, hier_state in zip(machine.hierarchies, state["hierarchies"]):
        restore_hierarchy(hier, hier_state)
    return state["position"], state["refs"]


# -- files -------------------------------------------------------------------


def save_checkpoint(path: str, state: dict) -> None:
    """Write *state* atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    try:
        with open(tmp, "wb") as handle:
            pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> dict:
    """Read and validate a checkpoint file.

    Any unreadable file raises :class:`CheckpointError` — never a raw
    decode error.  A truncated or corrupt pickle raises essentially
    anything (``UnpicklingError``, ``EOFError``, ``AttributeError``,
    ``IndexError``, ``MemoryError`` on a torn length prefix, …), so
    the net is deliberately wide; structural validation then rejects
    well-formed pickles that are not complete checkpoints before any
    restore touches machine state.
    """
    try:
        with open(path, "rb") as handle:
            state = pickle.load(handle)
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(state, dict) or state.get("format") != FORMAT:
        raise CheckpointError(f"{path} is not a repro checkpoint")
    if state.get("version") != VERSION:
        raise CheckpointError(
            f"checkpoint version {state.get('version')} unsupported "
            f"(expected {VERSION})"
        )
    missing = [field for field in _REQUIRED_FIELDS if field not in state]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} is incomplete: missing {', '.join(missing)}"
        )
    if not isinstance(state["hierarchies"], list):
        raise CheckpointError(f"checkpoint {path} is incomplete: bad hierarchies")
    return state


# -- the resumable driver -------------------------------------------------------


def run_checkpointed(
    machine: Multiprocessor,
    records: Sequence[TraceRecord] | TraceStream,
    path: str,
    key: tuple | None = None,
    chunk: int = 50_000,
    check_values: bool = False,
    guard: Any = None,
    on_chunk: Callable[[int], None] | None = None,
) -> SimulationResult:
    """Replay *records* with a checkpoint after every *chunk* records.

    *records* is either a materialised sequence or a
    :class:`~repro.trace.stream.TraceStream` — a stream is consumed
    through a :class:`~repro.trace.stream.StreamCursor`, so only one
    batch is ever held in memory and a resume re-enters the stream at
    the checkpointed absolute position.

    If *path* exists, the run resumes from it (validating *key*, a
    tuple identifying the experiment configuration, against the saved
    one).  A corrupt or truncated checkpoint file is logged, discarded
    and the run restarts from the trace beginning; only a *valid*
    checkpoint recorded under a different key is a hard error.  On
    successful completion the checkpoint file is deleted.
    *check_values* and *guard* are passed to every chunk's
    :meth:`Multiprocessor.run`; a checkpoint holds no guard state, so
    a resumed guard paces its checks from the resume point.
    *on_chunk* is called with the trace position after each saved
    chunk — the test suite uses it to kill the run mid-trace.
    """
    if chunk < 1:
        raise CheckpointError(f"chunk must be >= 1, got {chunk}")
    position = 0
    refs_done = 0
    if os.path.exists(path):
        state = None
        try:
            state = load_checkpoint(path)
        except CheckpointError as exc:
            # A corrupt or truncated checkpoint (crashed writer, torn
            # disk) must not kill the run it exists to protect: log,
            # discard, restart from the trace beginning.  The machine
            # is untouched — load_checkpoint validates structure before
            # restore_machine mutates anything.
            logger.warning(
                "discarding unusable checkpoint: path=%s error=%s "
                "action=restart-from-beginning",
                path,
                exc,
            )
            with contextlib.suppress(OSError):
                os.remove(path)
        if state is not None:
            if key is not None and tuple(state["key"]) != tuple(key):
                # A *valid* checkpoint for a different run is a caller
                # error, not corruption: resuming it would silently
                # produce the wrong experiment's numbers.
                raise CheckpointError(
                    f"checkpoint {path} belongs to a different run: "
                    f"{state['key']} != {key}"
                )
            position, refs_done = restore_machine(machine, state)
    cursor: TraceCursor | StreamCursor
    if isinstance(records, TraceStream):
        cursor = StreamCursor(records, position)
    else:
        cursor = TraceCursor(records, position)
    while batch := cursor.take(chunk):
        result = machine.run(
            batch,
            check_values=check_values,
            guard=guard,
            ref_offset=refs_done,
        )
        refs_done += result.refs_processed
        save_checkpoint(
            path, export_machine(machine, cursor.position, refs_done, key=key)
        )
        if on_chunk is not None:
            on_chunk(cursor.position)
    if os.path.exists(path):
        os.remove(path)
    return SimulationResult(
        per_cpu=[hier.stats for hier in machine.hierarchies],
        bus_transactions=machine.bus.stats.as_dict(),
        refs_processed=refs_done,
        tlb_per_cpu=[
            hier.tlb.stats.as_dict() for hier in machine.hierarchies
        ],
    )
