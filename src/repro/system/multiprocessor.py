"""The shared-bus multiprocessor (paper Figure 1).

A :class:`Multiprocessor` instantiates one private two-level hierarchy
per CPU on a single snooping bus and replays a trace through them.
It owns the global write-version counter, so a value oracle (enabled
with ``check_values=True``) can verify that every read observes the
most recent write to its physical block — across CPUs, synonyms,
context switches and write buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable
from time import perf_counter
from typing import Any

from ..coherence.bus import Bus, MainMemory
from ..common.errors import InclusionError, ProtocolError
from ..hierarchy.config import HierarchyConfig
from ..hierarchy.stats import HierarchyStats
from ..hierarchy.twolevel import TwoLevelHierarchy
from ..mmu.address_space import MemoryLayout
from ..trace.record import RefKind, TraceRecord


class VersionCounter:
    """Monotonic write-version source shared by all hierarchies.

    Functionally ``itertools.count(1).__next__``, but with the next
    value exposed as a plain attribute so checkpoints can capture and
    restore it exactly.
    """

    __slots__ = ("next_value",)

    def __init__(self, start: int = 1) -> None:
        self.next_value = start

    def __call__(self) -> int:
        value = self.next_value
        self.next_value += 1
        return value


@dataclass(slots=True)
class SimulationResult:
    """Everything a simulation run produced.

    Attributes:
        per_cpu: one :class:`HierarchyStats` per CPU, in CPU order.
        bus_transactions: bus transaction counts by type.
        refs_processed: memory references simulated.
        timings: per-phase wall-clock seconds ("trace_gen_s",
            "replay_s", "guard_s"); informational only — never part
            of equality-relevant experiment data.
        tlb_per_cpu: one TLB counter snapshot per CPU, in CPU order
            (empty on results restored from pre-observability caches).
    """

    per_cpu: list[HierarchyStats]
    bus_transactions: dict[str, int] = field(default_factory=dict)
    refs_processed: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    tlb_per_cpu: list[dict[str, int]] = field(default_factory=list)

    def aggregate(self) -> HierarchyStats:
        """Machine-wide statistics (sum over CPUs)."""
        total = HierarchyStats()
        for stats in self.per_cpu:
            total.merge(stats)
        return total

    @property
    def h1(self) -> float:
        """Machine-wide level-1 hit ratio."""
        return self.aggregate().l1_hit_ratio()

    @property
    def h2(self) -> float:
        """Machine-wide local level-2 hit ratio."""
        return self.aggregate().l2_hit_ratio()

    def metrics(self, cpu: int | None = None) -> Any:
        """This result projected into the unified metrics namespace.

        Returns a :class:`repro.obs.MetricsRegistry` — machine-wide by
        default, or one CPU's view with *cpu*.  The projection is a
        pure function of the result's counters, so it is deterministic
        and cache-safe.
        """
        from ..obs.metrics import registry_from_result

        return registry_from_result(self, cpu=cpu)


class Multiprocessor:
    """N CPUs, each with a private hierarchy, on one snooping bus.

    >>> from repro.hierarchy import HierarchyConfig
    >>> from repro.trace import SyntheticWorkload, WorkloadSpec
    >>> workload = SyntheticWorkload(WorkloadSpec(total_refs=2000))
    >>> machine = Multiprocessor(
    ...     workload.layout, n_cpus=2, config=HierarchyConfig.sized("1K", "8K")
    ... )
    >>> result = machine.run(workload)
    >>> result.refs_processed
    2000
    """

    __slots__ = (
        "layout",
        "config",
        "bus",
        "version_counter",
        "hierarchies",
        "engine",
    )

    def __init__(
        self,
        layout: MemoryLayout,
        n_cpus: int,
        config: HierarchyConfig,
        seed: int = 0,
        bus: Bus | None = None,
        tracer: Any = None,
        engine: str = "object",
    ) -> None:
        if engine not in ("object", "soa"):
            raise ValueError(f"unknown engine {engine!r} (use 'object' or 'soa')")
        self.layout = layout
        self.config = config
        self.engine = engine
        self.bus = bus if bus is not None else Bus(MainMemory())
        self.version_counter = VersionCounter()
        if engine == "soa":
            from ..core.soa import SoAHierarchy as hierarchy_cls
        else:
            hierarchy_cls = TwoLevelHierarchy
        self.hierarchies = [
            hierarchy_cls(
                config,
                layout,
                self.bus,
                next_version=self.version_counter,
                seed=seed + cpu * 97,
            )
            for cpu in range(n_cpus)
        ]
        if tracer is None:
            # Pick up the session tracer (if any) so embedding layers
            # need no explicit plumbing to get machines traced.
            from ..obs import get_tracer

            tracer = get_tracer()
        if tracer is not None:
            for hier in self.hierarchies:
                hier.set_tracer(tracer)

    @property
    def n_cpus(self) -> int:
        """Number of processors."""
        return len(self.hierarchies)

    def run(
        self,
        records: Iterable[TraceRecord],
        check_values: bool = False,
        max_refs: int | None = None,
        injector: Any = None,
        guard: Any = None,
        ref_offset: int = 0,
    ) -> SimulationResult:
        """Replay *records* through the machine.

        *records* is any iterable of :class:`TraceRecord` — a list, a
        generator, or a :class:`~repro.trace.stream.TraceStream`
        (streams iterate as records; the SoA engine additionally
        recognises a stream's ``chunks`` attribute and consumes its
        vectors directly, holding one bounded chunk at a time).

        With *check_values*, every read is compared against a value
        oracle (the globally most recent write to its physical block);
        a mismatch raises :class:`ProtocolError`, making this the
        strongest end-to-end coherence check in the test suite.
        *max_refs* stops the run after that many memory references.

        *injector* (a ``repro.faults.FaultInjector``) is consulted
        before every access to flip metadata bits; *guard* (a
        ``repro.faults.InvariantGuard``) is consulted after every
        access and may repair corruption and replay the access.  Both
        are duck-typed here so the system layer carries no dependency
        on the faults package.  Combining ``check_values`` with a
        repairing guard is unsupported: a repair that discards dirty
        data legitimately changes observed versions.

        *ref_offset* biases the access indices reported to the
        injector and guard — a resumed checkpointed run passes the
        number of references already replayed so scheduled faults and
        check pacing see absolute indices.
        """
        # Wall-clock reads below time the replay/guard phases for
        # SimulationResult.timings — metadata, never simulation
        # state (repro-lint RPS102 pragmas mark each read).
        started = perf_counter()  # rps: ignore[RPS102]
        guard_seconds = 0.0
        if (
            injector is None
            and guard is None
            and not check_values
            and max_refs is None
        ):
            if self.engine == "soa":
                refs = self._run_soa(records)
            else:
                refs = self._run_fast(records)
        else:
            refs, guard_seconds = self._run_general(
                records, check_values, max_refs, injector, guard, ref_offset
            )
            if self.engine == "soa":
                # The SoA change logs are only consumed by _run_soa;
                # a long object-path run would grow them unboundedly.
                for hier in self.hierarchies:
                    hier.clear_change_logs()
        timings = {"replay_s": perf_counter() - started}  # rps: ignore[RPS102]
        if guard is not None:
            timings["guard_s"] = guard_seconds
        return SimulationResult(
            per_cpu=[hier.stats for hier in self.hierarchies],
            bus_transactions=self.bus.stats.as_dict(),
            refs_processed=refs,
            timings=timings,
            tlb_per_cpu=[hier.tlb.stats.as_dict() for hier in self.hierarchies],
        )

    def _run_soa(self, records: Iterable[TraceRecord]) -> int:
        """The struct-of-arrays replay loop (``engine="soa"``)."""
        from ..core.soa import run_soa

        return run_soa(self, records)

    def _run_fast(self, records: Iterable[TraceRecord]) -> int:
        """The unguarded replay loop — every attribute hoisted into a
        local, with the reference-class dispatch reduced to two
        identity compares (only CSWITCH and CALL are not memory)."""
        hierarchies = self.hierarchies
        cswitch = RefKind.CSWITCH
        call = RefKind.CALL
        refs = 0
        for record in records:
            kind = record.kind
            if kind is cswitch:
                hierarchies[record.cpu].context_switch(record.pid)
                continue
            if kind is call:
                continue
            hierarchies[record.cpu].access(record.pid, record.vaddr, kind)
            refs += 1
        return refs

    def _run_general(
        self,
        records: Iterable[TraceRecord],
        check_values: bool,
        max_refs: int | None,
        injector: Any,
        guard: Any,
        ref_offset: int,
    ) -> tuple[int, float]:
        """The fully instrumented replay loop (oracle, faults, guard).

        Returns (references replayed, seconds spent in the guard).
        """
        if guard is not None:
            guard.watch(self.bus, self.hierarchies)
        oracle: dict[int, int] = {}
        block_bits = self.config.l1.block_bits
        guard_seconds = 0.0
        refs = 0
        for record in records:
            if max_refs is not None and refs >= max_refs:
                break
            hier = self.hierarchies[record.cpu]
            kind = record.kind
            if kind is RefKind.CSWITCH:
                hier.context_switch(record.pid)
                continue
            if not kind.is_memory:
                continue
            if injector is not None:
                injector.tick(hier, ref_offset + refs + 1)
            try:
                result = hier.access(record.pid, record.vaddr, kind)
            except (InclusionError, ProtocolError):
                # Injected corruption tripped the hierarchy's own
                # validation before the guard's next check; a repairing
                # guard sweeps, repairs and replays.
                if guard is None:
                    raise
                guard_started = perf_counter()  # rps: ignore[RPS102]
                recovered = guard.on_access_error(
                    hier, record.pid, record.vaddr, kind, ref_offset + refs + 1
                )
                guard_seconds += perf_counter() - guard_started  # rps: ignore[RPS102]
                if recovered is None:
                    raise
                result = recovered
            refs += 1
            if guard is not None:
                guard_started = perf_counter()  # rps: ignore[RPS102]
                replay = guard.after_access(
                    hier, record.pid, record.vaddr, kind, ref_offset + refs
                )
                guard_seconds += perf_counter() - guard_started  # rps: ignore[RPS102]
                if replay is not None:
                    result = replay
            if check_values:
                paddr = self.layout.translate(record.pid, record.vaddr)
                pblock = paddr >> block_bits
                if kind is RefKind.WRITE:
                    oracle[pblock] = result.version
                else:
                    expected = oracle.get(pblock, 0)
                    if result.version != expected:
                        raise ProtocolError(
                            f"cpu {record.cpu} read version {result.version} "
                            f"of block {pblock:#x}, expected {expected} "
                            f"(outcome {result.outcome.value})"
                        )
        return refs, guard_seconds

    def settle(self) -> None:
        """Drain every write buffer (end-of-run bookkeeping)."""
        for hier in self.hierarchies:
            hier.drain_write_buffer()
