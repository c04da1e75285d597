"""The shared-bus multiprocessor (paper Figure 1).

A :class:`Multiprocessor` instantiates one private two-level hierarchy
per CPU on a single snooping bus and replays a trace through them.
It owns the global write-version counter, so a value oracle (enabled
with ``check_values=True``) can verify that every read observes the
most recent write to its physical block — across CPUs, synonyms,
context switches and write buffers.  The oracle lives as long as the
machine, so a checked trace may be replayed in pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable
from time import perf_counter
from typing import Any

from ..coherence.bus import Bus, MainMemory
from ..common.errors import ProtocolError
from ..hierarchy.config import HierarchyConfig
from ..hierarchy.stats import HierarchyStats
from ..hierarchy.twolevel import AccessResult, TwoLevelHierarchy
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
            "build_s", "replay_s"); informational only —
            never part of equality-relevant experiment data.
        tlb_per_cpu: one TLB counter snapshot per CPU, in CPU order
            (empty on results restored from pre-observability caches).
        walker: the replay walker's meter, ``{"escapes": references
            sent to ``TwoLevelHierarchy.access``, "native": references
            its native miss handlers committed, "escapes_by": the
            escapes by the native screen's bail reason, ``gate`` for
            a run outside the native gate}``; empty when the
            walker did not replay the run (the scalar loop, which
            guarded and value-checked runs take) and on results
            assembled from several runs (checkpointed replay).  Like *timings*, it describes how
            the result was computed, not the simulation, so no metric,
            digest or equivalence check reads it.
    """

    per_cpu: list[HierarchyStats]
    bus_transactions: dict[str, int] = field(default_factory=dict)
    refs_processed: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    tlb_per_cpu: list[dict[str, int]] = field(default_factory=list)
    walker: dict[str, Any] = field(default_factory=dict)

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


def _stale_read(
    record: TraceRecord, pblock: int, result: AccessResult, expected: int
) -> ProtocolError:
    """The value oracle's error for a read of a stale version."""
    return ProtocolError(
        f"cpu {record.cpu} read version {result.version} "
        f"of block {pblock:#x}, expected {expected} "
        f"(outcome {result.outcome.value})"
    )


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
        "value_oracle",
        "hierarchies",
    )

    def __init__(
        self,
        layout: MemoryLayout,
        n_cpus: int,
        config: HierarchyConfig,
        seed: int = 0,
        tracer: Any = None,
    ) -> None:
        self.layout = layout
        self.config = config
        self.bus = Bus(MainMemory())
        self.version_counter = VersionCounter()
        # Physical block -> latest written version, read and updated by
        # every checked run; None once an unchecked run or a checkpoint
        # restore has changed the machine behind its back.
        self.value_oracle: dict[int, int] | None = {}
        self.hierarchies = [
            TwoLevelHierarchy(
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

    def __del__(self) -> None:
        # Each hierarchy and the bus reference each other (``Bus.attach``).
        # Detaching them when the machine goes lets reference counting
        # free its arrays at once; left to the cyclic collector, dead
        # machines pile up between full collections and set the peak RSS
        # of a run of many simulations.
        bus = getattr(self, "bus", None)
        if bus is not None:
            bus.detach_all()

    @property
    def n_cpus(self) -> int:
        """Number of processors."""
        return len(self.hierarchies)

    def run(
        self,
        records: Iterable[TraceRecord],
        check_values: bool = False,
        guard: Any = None,
        ref_offset: int = 0,
    ) -> SimulationResult:
        """Replay *records* through the machine.

        *records* is any iterable of :class:`TraceRecord` — a list, a
        generator, or a :class:`~repro.trace.stream.TraceStream`.
        A plain run replays through the walker
        (``repro.core.soa.run_soa``), which recognises a stream's
        ``chunks`` attribute and consumes its vectors directly,
        holding one bounded chunk at a time.  A checked run goes
        through the scalar loop of :meth:`run_scalar`.

        With *check_values*, every read is compared against a value
        oracle (the globally most recent write to its physical block);
        a mismatch raises :class:`ProtocolError`, making this the
        strongest end-to-end coherence check in the test suite.  The
        oracle is the machine's, so consecutive checked runs check one
        trace in pieces.  A run without *check_values* does not keep
        it, and a checked run after one raises :class:`ValueError`.

        *guard* (a ``repro.faults.InvariantGuard``, duck-typed so the
        system layer carries no dependency on the faults package)
        watches the bus for the length of the run and is consulted
        after every access; it raises ``IntegrityError`` at the first
        invariant violation.  *ref_offset* biases the access indices
        the guard reports — a resumed checkpointed run passes the
        number of references already replayed, so an error names the
        absolute index.
        """
        if check_values and self.value_oracle is None:
            raise ValueError(
                "value oracle is stale: an unchecked run or a checkpoint "
                "restore changed this machine since its last checked run"
            )
        oracle = self.value_oracle if check_values else None
        self.value_oracle = oracle
        # Wall-clock reads time the replay for SimulationResult.timings
        # — metadata, never simulation state (repro-lint RPS102
        # pragmas mark each read).
        started = perf_counter()  # rps: ignore[RPS102]
        walker: dict[str, Any] = {}
        if guard is None and not check_values:
            # Imported here so that start-up does not load the walker.
            from ..core.soa import run_soa

            refs, walker = run_soa(self, records)
        else:
            observer = self.bus.observer
            if guard is not None:
                guard.watch(self.bus, self.hierarchies)
            try:
                refs = self._run_fast(records, guard, oracle, ref_offset)
            finally:
                self.bus.observer = observer
        timings = {"replay_s": perf_counter() - started}  # rps: ignore[RPS102]
        return self._result(refs, timings, walker)

    def run_scalar(self, records: Iterable[TraceRecord]) -> SimulationResult:
        """Replay *records* through the scalar loop.

        Every reference goes through ``TwoLevelHierarchy.access``.
        This is the reference the walker must match bit for bit
        (``repro-diff``, the equivalence tests); :meth:`run` takes it
        only for a guarded or value-checked run.
        """
        self.value_oracle = None
        started = perf_counter()  # rps: ignore[RPS102]
        refs = self._run_fast(records)
        return self._result(
            refs, {"replay_s": perf_counter() - started}  # rps: ignore[RPS102]
        )

    def _result(
        self,
        refs: int,
        timings: dict[str, float],
        walker: dict[str, Any] | None = None,
    ) -> SimulationResult:
        return SimulationResult(
            per_cpu=[hier.stats for hier in self.hierarchies],
            bus_transactions=self.bus.stats.as_dict(),
            refs_processed=refs,
            timings=timings,
            tlb_per_cpu=[hier.tlb.stats.as_dict() for hier in self.hierarchies],
            walker=walker or {},
        )

    def _run_fast(
        self,
        records: Iterable[TraceRecord],
        guard: Any = None,
        oracle: dict[int, int] | None = None,
        ref_offset: int = 0,
    ) -> int:
        """The scalar replay loop: every attribute hoisted into a
        local, with the reference-class dispatch reduced to two
        identity compares (only CSWITCH and CALL are not memory).

        *guard* is consulted after every access.  *oracle*, when
        given, maps each physical block to its latest written version,
        and every read must observe that version.
        """
        hierarchies = self.hierarchies
        cswitch = RefKind.CSWITCH
        call = RefKind.CALL
        write = RefKind.WRITE
        translate = self.layout.translate
        block_bits = self.config.l1.block_bits
        refs = 0
        for record in records:
            kind = record.kind
            if kind is cswitch:
                hierarchies[record.cpu].context_switch(record.pid)
                continue
            if kind is call:
                continue
            hier = hierarchies[record.cpu]
            result = hier.access(record.pid, record.vaddr, kind)
            refs += 1
            if guard is not None:
                guard.after_access(
                    hier, record.pid, record.vaddr, kind, ref_offset + refs
                )
            if oracle is not None:
                pblock = translate(record.pid, record.vaddr) >> block_bits
                if kind is write:
                    oracle[pblock] = result.version
                else:
                    expected = oracle.get(pblock, 0)
                    if result.version != expected:
                        raise _stale_read(record, pblock, result, expected)
        return refs

    def settle(self) -> None:
        """Drain every write buffer (end-of-run bookkeeping)."""
        for hier in self.hierarchies:
            hier.drain_write_buffer()
