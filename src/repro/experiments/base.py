"""Shared infrastructure for the per-table experiment runners.

Several paper tables draw on the same simulations (Table 6, Figures
4–6 and Tables 11–13 all use the VR/RR runs over three size pairs),
so results are memoised per process, keyed by every parameter that
affects them.  One trace feeds many configurations, so each synthetic
trace is generated once per run into the run's *trace store* (a
directory of RPTB files) and every simulation streams it from there;
the trace analyses keep a small LRU of decoded record lists.

The default trace scale is intentionally far below the paper's 3.3M
references so that the whole suite runs in minutes of pure Python;
set the ``REPRO_SCALE`` environment variable (or pass ``scale=``) to
raise it — 1.0 reproduces the full trace lengths.
"""

from __future__ import annotations

import atexit
import os
import re
import shutil
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from time import perf_counter

from ..faults import (
    FaultConfig,
    FaultInjector,
    FaultKind,
    FaultyBus,
    InvariantGuard,
    run_checkpointed,
)
from ..hierarchy.config import HierarchyConfig, HierarchyKind
from ..mmu.address_space import MemoryLayout
from ..obs import get_tracer
from ..obs.recorder import get_recorder
from ..system.multiprocessor import Multiprocessor, SimulationResult
from ..trace.record import TraceRecord
from ..trace.workloads import get_spec, make_workload

#: The paper's three main size pairs (L1/L2), Table 6.
SIZE_PAIRS: list[tuple[str, str]] = [("4K", "64K"), ("8K", "128K"), ("16K", "256K")]
#: The small-first-level pairs of Table 7.
SMALL_SIZE_PAIRS: list[tuple[str, str]] = [
    (".5K", "64K"),
    ("1K", "128K"),
    ("2K", "256K"),
]

#: Traces above this many references are decoded again instead of cached.
_TRACE_CACHE_LIMIT = 600_000

#: Distinct (trace, scale) record lists kept in memory at once.  A run
#: walks traces one at a time, each feeding many configurations, so a
#: handful of slots gives full reuse while bounding resident memory.
_TRACE_CACHE_ENTRIES = 4


def default_scale() -> float:
    """The trace scale experiments run at unless overridden."""
    return float(os.environ.get("REPRO_SCALE", "0.1"))


@dataclass
class ExperimentResult:
    """What one experiment runner returns.

    Attributes:
        experiment_id: paper artefact id, e.g. ``"table6"``.
        title: the paper's caption.
        text: rendered tables/series, ready to print.
        data: raw numbers keyed by meaningful names, consumed by the
            test suite and by EXPERIMENTS.md generation.
        scale: trace scale the experiment ran at.
    """

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)
    scale: float = 1.0

    def render(self) -> str:
        """The printable report."""
        header = f"== {self.experiment_id}: {self.title} (scale={self.scale:g}) =="
        return f"{header}\n{self.text}"


@dataclass(frozen=True)
class RunOptions:
    """Cross-cutting options applied to every simulation of a run.

    Set from the CLI (``--check-every``, ``--guard-policy``,
    ``--checkpoint`` …) via :func:`set_run_options`; the defaults are
    a plain unguarded run, so existing callers are unaffected.

    Attributes:
        check_every: run the invariant guard every N accesses
            (None disables the guard).
        guard_policy: "fail-fast", "repair" or "log".
        fault_rate: per-access probability for each metadata fault
            kind (0 disables injection).
        fault_seed: seed of the fault injector's RNG.
        checkpoint_dir: directory for checkpoint files; enables
            resumable replay (None disables it).
        checkpoint_every: trace records replayed between checkpoints.
        cache_dir: root of the persistent result cache; None disables
            disk caching (the in-process memo still applies).
        trace_provenance: ``(format, version, digest)`` of an external
            trace feeding the run; :func:`simulate` fills it in for
            ``file:`` traces so cached results are pinned to the exact
            file bytes they were computed from.
        trace_store: directory of the run's trace store (see
            :func:`stored_trace`); None uses the process's own.  Where
            the store lives changes no result, so it takes no part in
            equality, hashing or :meth:`result_key_parts`.
    """

    check_every: int | None = None
    guard_policy: str = "fail-fast"
    fault_rate: float = 0.0
    fault_seed: int = 0
    checkpoint_dir: str | None = None
    checkpoint_every: int = 50_000
    cache_dir: str | None = None
    trace_provenance: tuple | None = None
    trace_store: str | None = field(default=None, compare=False)

    def result_key_parts(self) -> tuple:
        """The option fields that can affect simulation *results*.

        Used for the disk-cache key: ``cache_dir`` (where results go),
        ``trace_store`` and the checkpoint directory path (not whether
        checkpointing is on) are excluded, so runs differing only in
        bookkeeping locations share cached results.
        """
        return (
            self.check_every,
            self.guard_policy,
            self.fault_rate,
            self.fault_seed,
            self.checkpoint_dir is not None,
            self.checkpoint_every,
            self.trace_provenance,
        )


_run_options = RunOptions()


def set_run_options(options: RunOptions) -> RunOptions:
    """Install *options* for subsequent simulations; returns the old ones."""
    global _run_options
    previous = _run_options
    _run_options = options
    return previous


def get_run_options() -> RunOptions:
    """The options currently applied to simulations."""
    return _run_options


#: Metadata fault kinds --fault-rate spreads its probability over.
_INJECTED_KINDS = (
    FaultKind.FLIP_INCLUSION,
    FaultKind.FLIP_VDIRTY,
    FaultKind.FLIP_L1_DIRTY,
    FaultKind.CORRUPT_V_POINTER,
    FaultKind.CORRUPT_TLB,
)


_trace_cache: OrderedDict[
    tuple[str, float], tuple[list[TraceRecord], MemoryLayout]
] = OrderedDict()
_sim_cache: dict[tuple, SimulationResult] = {}
#: The trace store of callers that install none, made on first use.
_process_store: str | None = None

#: Simulations actually replayed (not served from memo or disk) since
#: the last :func:`clear_caches`.  The runner's warm-cache tests and
#: the pool's run report both read this.
_executed_simulations = 0


def executed_simulations() -> int:
    """How many simulations were replayed (cache misses) so far."""
    return _executed_simulations


def clear_caches() -> None:
    """Drop memoised traces and simulations (tests use this).

    The trace store is emptied, and when the installed options name a
    disk cache, its entries are removed too, so "clear" means the next
    simulation really runs.
    """
    global _executed_simulations
    _trace_cache.clear()
    _workload_layout.cache_clear()
    root = _run_options.trace_store or _process_store
    if root is not None:
        shutil.rmtree(root, ignore_errors=True)
    _sim_cache.clear()
    _executed_simulations = 0
    get_recorder().clear()
    if _run_options.cache_dir is not None:
        from ..runner.disk_cache import get_cache

        get_cache(_run_options.cache_dir).clear()


def _remove_store(root: str, owner: int) -> None:
    if os.getpid() == owner:  # not in a forked child exiting normally
        shutil.rmtree(root, ignore_errors=True)


def trace_store() -> str:
    """The directory this run's synthetic traces are generated into.

    The installed options' ``trace_store`` when set (the CLI makes one
    per invocation), else a process-scoped temporary directory,
    created on first use and removed at exit.
    """
    global _process_store
    if _run_options.trace_store is not None:
        return _run_options.trace_store
    if _process_store is None:
        _process_store = tempfile.mkdtemp(prefix="repro-traces-")
        atexit.register(_remove_store, _process_store, os.getpid())
    return _process_store


def stored_trace(name: str, scale: float) -> str:
    """The RPTB file of surrogate trace *name* at *scale* in the store.

    The first call in a run generates the trace through
    :meth:`SyntheticWorkload.records` and renames the written file
    into place, so no reader sees a partial file; every later call, in
    this process or a pool worker sharing the store, generates nothing.
    """
    root = trace_store()
    path = os.path.join(root, f"{name}-{scale!r}.rtb")
    if not os.path.exists(path):
        from ..trace.binio import write_binary

        os.makedirs(root, exist_ok=True)
        partial = f"{path}.{os.getpid()}.partial"
        write_binary(make_workload(name, scale).records(), partial)
        os.replace(partial, path)
    return path


@lru_cache(maxsize=_TRACE_CACHE_ENTRIES)
def _workload_layout(name: str, scale: float) -> MemoryLayout:
    """The layout trace *name* at *scale* was generated against (built
    from the spec alone, identically in every process)."""
    return make_workload(name, scale).layout


def trace_records(
    name: str, scale: float
) -> tuple[list[TraceRecord], MemoryLayout]:
    """The surrogate trace *name* at *scale*, with its address layout.

    For the trace analyses: the records are decoded from the run's
    trace store, never generated a second time.  Decoded traces are
    kept in a small LRU (``_TRACE_CACHE_ENTRIES`` slots, each at most
    ``_TRACE_CACHE_LIMIT`` references) so a long multi-trace run
    cannot grow memory without bound.
    """
    from ..trace.binio import BinaryTraceReader

    key = (name, scale)
    cached = _trace_cache.get(key)
    if cached is not None:
        _trace_cache.move_to_end(key)
        return cached
    records = list(BinaryTraceReader(stored_trace(name, scale)))
    result = (records, _workload_layout(name, scale))
    if get_spec(name, scale).total_refs <= _TRACE_CACHE_LIMIT:
        _trace_cache[key] = result
        while len(_trace_cache) > _TRACE_CACHE_ENTRIES:
            _trace_cache.popitem(last=False)
    return result


def trace_stream(name: str, scale: float):
    """A bounded-memory trace stream for *name*, with layout and CPUs.

    ``file:<path>`` names open an external trace file or directory
    (format sniffed by :func:`repro.trace.formats.open_trace`) over a
    demand-mapped layout; any other name streams the surrogate trace
    at *scale* from the run's trace store (:func:`stored_trace`).
    Returns ``(stream, layout, n_cpus)``.
    """
    from ..mmu.address_space import DemandLayout
    from ..trace.binio import BinaryTraceReader
    from ..trace.formats import open_trace

    if name.startswith("file:"):
        stream = open_trace(name[len("file:") :])
        return stream, DemandLayout(), stream.n_cpus or 2
    stream = BinaryTraceReader(stored_trace(name, scale))
    return stream, _workload_layout(name, scale), get_spec(name, scale).n_cpus


def simulation_config(
    l1_size: str,
    l2_size: str,
    kind: HierarchyKind,
    split_l1: bool = False,
    block_size: str | int = 16,
    config_overrides: tuple[tuple[str, object], ...] = (),
) -> HierarchyConfig:
    """The hierarchy configuration :func:`simulate` replays for these
    arguments: :meth:`HierarchyConfig.sized` with *config_overrides*
    applied."""
    return HierarchyConfig.sized(
        l1_size,
        l2_size,
        block_size=block_size,
        kind=kind,
        split_l1=split_l1,
        **dict(config_overrides),
    )


def simulation_key(
    trace_name: str,
    scale: float,
    l1_size: str,
    l2_size: str,
    kind: HierarchyKind,
    split_l1: bool = False,
    block_size: str | int = 16,
    seed: int = 0,
    config_overrides: tuple[tuple[str, object], ...] = (),
) -> tuple:
    """The identity of one simulation, minus the run options.

    The planner, pool and memo all key on this; appending the
    installed options' identity gives the memo key, and appending
    their :meth:`RunOptions.result_key_parts` gives the disk key.
    """
    return (
        trace_name,
        scale,
        l1_size,
        l2_size,
        kind,
        split_l1,
        block_size,
        seed,
        config_overrides,
    )


def disk_key(key: tuple, options: RunOptions) -> tuple:
    """The persistent-cache key for *key* under *options*."""
    return key + options.result_key_parts()


def memo_get(key: tuple) -> SimulationResult | None:
    """The memoised result for *key* under the installed options."""
    return _sim_cache.get(key + (_run_options,))


def seed_memo(key: tuple, result: SimulationResult) -> None:
    """Install a precomputed result so :func:`simulate` reuses it.

    The pool calls this with worker-produced results; the key must
    come from :func:`simulation_key` under the same installed options.
    """
    cache_key = key + (_run_options,)
    _sim_cache[cache_key] = result
    get_recorder().record(cache_key, result)


def simulate(
    trace_name: str,
    scale: float,
    l1_size: str,
    l2_size: str,
    kind: HierarchyKind,
    split_l1: bool = False,
    block_size: str | int = 16,
    seed: int = 0,
    config_overrides: tuple[tuple[str, object], ...] = (),
) -> SimulationResult:
    """Run (or reuse) one full-machine simulation.

    Honours the installed :class:`RunOptions`: an invariant guard
    every ``check_every`` accesses, seeded metadata fault injection,
    checkpointed (resumable) replay, and — when ``cache_dir`` is set —
    a persistent result cache fronted by the in-process memo.  The
    memo key includes the options, so guarded and unguarded results
    never mix.

    *config_overrides* is a sorted tuple of ``(field, value)`` pairs
    applied on top of :meth:`HierarchyConfig.sized` — the ablation
    studies use it to vary associativity, write policy and buffering
    while still sharing traces and the caches.
    """
    global _executed_simulations
    options = _run_options
    stream = None
    if trace_name.startswith("file:"):
        stream, layout, n_cpus = trace_stream(trace_name, scale)
        # Pin the cached result to the exact trace bytes it was
        # computed from, so one file can never answer for another.
        provenance = stream.provenance()
        if provenance != options.trace_provenance:
            options = replace(options, trace_provenance=provenance)
    key = simulation_key(
        trace_name,
        scale,
        l1_size,
        l2_size,
        kind,
        split_l1,
        block_size,
        seed,
        config_overrides,
    )
    cache_key = key + (options,)
    cached = _sim_cache.get(cache_key)
    if cached is not None:
        get_recorder().record(cache_key, cached)
        return cached
    disk = None
    # With a tracer attached, the disk cache is bypassed entirely: the
    # event stream only exists when the simulation actually replays, so
    # a disk hit would leave trace counts short of the metrics counts
    # (and storing a traced run would be redundant with an untraced one).
    if options.cache_dir is not None and get_tracer() is None:
        from ..runner.disk_cache import get_cache

        disk = get_cache(options.cache_dir)
        stored = disk.load(disk_key(key, options))
        if stored is not None:
            _sim_cache[cache_key] = stored
            get_recorder().record(cache_key, stored)
            return stored
    gen_started = perf_counter()
    if stream is None:
        # A surrogate trace: generated into the store by the first
        # simulation of the run that needs it, streamed by all.
        stream, layout, n_cpus = trace_stream(trace_name, scale)
    trace_gen_s = perf_counter() - gen_started
    config = simulation_config(
        l1_size, l2_size, kind, split_l1, block_size, config_overrides
    )

    injector = None
    bus = None
    if options.fault_rate > 0.0:
        injector = FaultInjector(
            FaultConfig(
                probabilities={
                    k: options.fault_rate for k in _INJECTED_KINDS
                },
                seed=options.fault_seed,
            )
        )
        bus = FaultyBus(injector)
    guard = None
    if options.check_every is not None:
        guard = InvariantGuard(options.guard_policy, options.check_every)

    build_started = perf_counter()
    machine = Multiprocessor(layout, n_cpus, config, seed=seed, bus=bus)
    build_s = perf_counter() - build_started
    if options.checkpoint_dir is not None:
        os.makedirs(options.checkpoint_dir, exist_ok=True)
        stem = "-".join(
            str(part.value if isinstance(part, HierarchyKind) else part)
            for part in key
        )
        # "file:/path/to.rtb" trace names carry path separators that
        # must not leak into the checkpoint file name.
        stem = re.sub(r"[^A-Za-z0-9._-]+", "_", stem)
        path = os.path.join(options.checkpoint_dir, f"{stem}.ckpt")
        result = run_checkpointed(
            machine,
            stream,
            path,
            key=tuple(repr(part) for part in key),
            chunk=options.checkpoint_every,
            injector=injector,
            guard=guard,
        )
    else:
        result = machine.run(stream, injector=injector, guard=guard)
    result.timings["trace_gen_s"] = trace_gen_s
    result.timings["build_s"] = build_s
    _executed_simulations += 1
    _sim_cache[cache_key] = result
    get_recorder().record(cache_key, result)
    if disk is not None:
        disk.store(disk_key(key, options), result)
    return result
