"""Synthetic multiprocessor address-trace generation.

This module substitutes for the ATUM VAX traces (`pops`, `thor`,
`abaqus`) used in the paper, which are not publicly available.  The
generator reproduces the *statistical shape* that drives every
mechanism the paper evaluates:

* an instruction stream with loops and procedure calls, where each
  call produces a burst of register-save stack writes (Table 1's
  write clustering) and each return a couple of stack reads;
* data references with tunable temporal locality (an LRU-stack reuse
  model) split between stack, private data, shared read/write
  segments and an intra-process alias region;
* shared segments mapped at *different virtual addresses* in every
  process — the source of synonyms;
* context switches between the processes of each CPU at a workload-
  dependent rate (rare for pops/thor surrogates, frequent for the
  abaqus surrogate);
* a reference-mix feedback controller that steers the emitted
  instruction/read/write mix to the Table 5 targets.

Everything is driven by one seeded PRNG per process plus one for the
machine, so a given :class:`WorkloadSpec` always yields the same trace.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from collections.abc import Iterator
from itertools import accumulate

from ..common.errors import ConfigurationError
from ..mmu.address_space import MemoryLayout, Segment
from .record import RefKind, TraceRecord

_INSTR = RefKind.INSTR
_READ = RefKind.READ
_WRITE = RefKind.WRITE
_CALL = RefKind.CALL
#: The memory kinds, in the mix controller's order.
_MEMORY_KINDS = (_INSTR, _READ, _WRITE)

#: Distribution of stack writes per procedure call, taken from the
#: shape of the paper's Table 1 (pops): dominated by 6- and 9-write
#: register-save sequences.
CALL_WRITE_WEIGHTS: dict[int, float] = {
    6: 0.373,
    7: 0.115,
    8: 0.113,
    9: 0.238,
    10: 0.072,
    11: 0.049,
    12: 0.036,
    16: 0.004,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Every knob of one synthetic workload.

    The defaults are neutral; `repro.trace.workloads` defines the three
    paper surrogates.  Fractions refer to the memory-reference mix
    (markers excluded); ``write_frac`` is implied as the remainder.
    """

    name: str = "synthetic"
    n_cpus: int = 2
    total_refs: int = 100_000
    instr_frac: float = 0.50
    read_frac: float = 0.40
    context_switches: int = 4
    processes_per_cpu: int = 2
    seed: int = 1989

    # Address-space geometry (pages).
    page_size: int = 4096
    text_pages: int = 16
    data_pages: int = 64
    stack_pages: int = 8
    shared_pages: int = 16
    n_shared_segments: int = 2
    alias_pages: int = 4

    # Instruction-stream behaviour.
    call_rate: float = 0.007
    return_read_count: int = 2
    max_call_depth: int = 12
    loop_rate: float = 0.05
    loop_len_instrs: tuple[int, int] = (16, 400)
    loop_iter_mean: float = 60.0
    hot_functions: int = 32

    # Data-stream behaviour.
    stack_ref_frac: float = 0.22
    shared_ref_frac: float = 0.06
    shared_write_frac: float = 0.25
    alias_ref_frac: float = 0.01
    data_reuse_prob: float = 0.97
    reuse_window_blocks: int = 4096
    reuse_mean_depth: float = 24.0
    # A fraction of reuses draw from a much deeper exponential: these
    # are the medium-distance re-references that miss a small level 1
    # but hit the large level 2 (they set the paper's h2 range).
    reuse_long_prob: float = 0.18
    reuse_long_mean: float = 900.0
    data_block_size: int = 16

    # Hot-subset concentration for shared and alias regions: most
    # references go to a geometrically-distributed hot head so blocks
    # are re-touched while still cached (producing synonym hits and
    # invalidation traffic); the rest spread uniformly.
    shared_hot_prob: float = 0.7
    shared_hot_mean: float = 24.0
    alias_hot_mean: float = 12.0

    # Mix-controller jitter: probability of a random (weighted) pick
    # instead of the deficit-steered pick.
    mix_jitter: float = 0.10

    @property
    def write_frac(self) -> float:
        """Write fraction implied by the instruction/read fractions."""
        return 1.0 - self.instr_frac - self.read_frac

    def __post_init__(self) -> None:
        if self.n_cpus < 1:
            raise ConfigurationError("need at least one CPU")
        if self.total_refs < 1:
            raise ConfigurationError("total_refs must be positive")
        if self.processes_per_cpu < 1:
            raise ConfigurationError("need at least one process per CPU")
        if not 0 < self.instr_frac < 1 or not 0 <= self.read_frac < 1:
            raise ConfigurationError("fractions must lie in (0, 1)")
        if self.write_frac < 0:
            raise ConfigurationError("instr_frac + read_frac exceed 1")
        if self.context_switches < 0:
            raise ConfigurationError("context_switches must be >= 0")

    def scaled(self, scale: float) -> "WorkloadSpec":
        """A copy with reference count and switch count scaled.

        The context-switch *rate* is preserved so cache behaviour per
        reference is unchanged; only trace length shrinks or grows.
        """
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        switches = round(self.context_switches * scale)
        if self.context_switches > 0:
            switches = max(1, switches)
        return replace(
            self,
            total_refs=max(1, round(self.total_refs * scale)),
            context_switches=switches,
        )


# Virtual bases.  All processes share the same private-segment layout
# (as real programs do); shared segments get per-process bases so the
# same physical page has several virtual names (synonyms).
_TEXT_BASE = 0x0001_0000
_DATA_BASE = 0x0100_0000
_STACK_BASE = 0x7FF0_0000
# The second alias base is deliberately *not* cache-size aligned with
# the first (it differs in bits 13-14), so that for level-1 caches
# larger than a page the two virtual names of a block fall in
# different sets and exercise the paper's `move` synonym path; for
# page-sized caches the index lies within the page offset and
# synonyms are always same-set, as the paper notes.
_ALIAS_BASE_A = 0x2000_0000
_ALIAS_BASE_B = 0x2800_6000
_SHARED_BASE = 0x4000_0000
_SHARED_SEG_STRIDE = 0x0100_0000
_SHARED_PID_STRIDE = 0x0010_2000


@dataclass
class _ProcessSegments:
    """The segments one process engine draws addresses from."""

    text: Segment
    data: Segment
    stack: Segment
    alias_a: Segment
    alias_b: Segment
    shared: list[Segment] = field(default_factory=list)


class _ProcessEngine:
    """Generates the reference stream of a single process.

    One engine per process; its state (program counter, call stack,
    reuse window) survives across the context switches of its CPU, so
    a process resumes where it left off — which is what makes the
    V-cache flush matter.
    """

    def __init__(self, pid: int, spec: WorkloadSpec, segs: _ProcessSegments,
                 rng: random.Random) -> None:
        self.pid = pid
        self.spec = spec
        self.segs = segs
        self.rng = rng
        self.pending: deque[tuple[RefKind, int]] = deque()

        # Instruction state.  Call-stack frames save the caller's loop
        # so a call inside a loop resumes iterating after the return —
        # without this, instruction locality collapses to sequential
        # streaming and the level-1 hit ratio falls far below reality.
        self.pc = segs.text.base_vaddr
        # (return pc, saved sp, loop_start, loop_end, loop_iters)
        self.call_stack: list[tuple[int, int, int, int, int]] = []
        self.loop_start = 0
        self.loop_end = 0
        self.loop_iters = 0
        self.sp = segs.stack.end_vaddr - 64

        # Data-reuse stack: *distinct* block base addresses in true LRU
        # order (an OrderedDict used as a move-to-end list).  Depth
        # sampling indexes a periodically refreshed snapshot so a draw
        # of stack distance d really lands on the d-th most recently
        # used distinct block — the property that makes the h1/h2 knobs
        # analytically predictable — while staying O(1) amortised.
        self.lru_stack: OrderedDict[int, None] = OrderedDict()
        self._lru_snapshot: list[int] = []
        self._refs_since_snapshot = 0
        # Live ring of the most recent appends: short-depth draws use
        # it so they stay genuinely short (the snapshot can be up to a
        # refresh period stale, which would smear them outward).
        self._recent: deque[int] = deque(maxlen=128)
        self.data_frontier = segs.data.base_vaddr
        # Pre-seed the reuse stack with the data segment: the traced
        # program has been running before the trace window opens (ATUM
        # snapshots start mid-execution), so deep stack distances exist
        # from the first reference instead of needing to accumulate
        # through the tiny frontier rate.
        n_seed = min(
            spec.reuse_window_blocks,
            segs.data.size // spec.data_block_size,
        )
        for i in range(n_seed):
            self.lru_stack[
                segs.data.base_vaddr + i * spec.data_block_size
            ] = None
        self._lru_snapshot = list(self.lru_stack)

        # Running mix counts for the feedback controller, one slot per
        # memory kind in _MEMORY_KINDS order.
        self.counts = [0, 0, 0]
        self.total = 0
        # The mix targets, built once: ``_pick_kind`` runs for every
        # generated event and must not rebuild them (or hash a RefKind).
        fracs = (spec.instr_frac, spec.read_frac, spec.write_frac)
        self._targets = tuple(enumerate(fracs))
        self._cum_fracs = list(accumulate(fracs))

        # Call-burst sampling table.
        self._burst_sizes = list(CALL_WRITE_WEIGHTS)
        self._burst_weights = list(CALL_WRITE_WEIGHTS.values())

        # Hot-function entry points for calls (Zipf-ish reuse).
        n_funcs = max(4, spec.hot_functions)
        span = segs.text.size - 256
        self._functions = [
            segs.text.base_vaddr + (rng.randrange(span) & ~0x3)
            for _ in range(n_funcs)
        ]

    # -- mix controller ------------------------------------------------

    def _pick_kind(self) -> RefKind:
        if self.rng.random() < self.spec.mix_jitter:
            return self.rng.choices(_MEMORY_KINDS, cum_weights=self._cum_fracs)[0]
        # Deficit steering: pick the kind lagging its target most.
        total = self.total + 1
        counts = self.counts
        best, best_deficit = 0, float("-inf")
        for index, frac in self._targets:
            deficit = frac * total - counts[index]
            if deficit > best_deficit:
                best, best_deficit = index, deficit
        return _MEMORY_KINDS[best]

    # -- instruction engine ----------------------------------------------

    def _clamp_pc(self) -> None:
        text = self.segs.text
        if not text.contains(self.pc):
            self.pc = text.base_vaddr

    def _start_loop(self) -> None:
        lo, hi = self.spec.loop_len_instrs
        length = self.rng.randrange(lo, hi + 1) * 4
        self.loop_start = self.pc
        self.loop_end = min(self.pc + length, self.segs.text.end_vaddr - 4)
        # Geometric iteration count with the configured mean.
        mean = self.spec.loop_iter_mean
        self.loop_iters = min(int(self.rng.expovariate(1.0 / mean)) + 1, 10_000)

    def _do_call(self) -> None:
        burst = self.rng.choices(self._burst_sizes, weights=self._burst_weights)[0]
        self.pending.append((RefKind.CALL, 0))
        for _ in range(burst):
            self.sp -= 4
            if self.sp < self.segs.stack.base_vaddr + 64:
                self.sp = self.segs.stack.end_vaddr - 64
            self.pending.append((RefKind.WRITE, self._clamp_stack(self.sp)))
        self.call_stack.append(
            (
                self.pc,
                self.sp + burst * 4,
                self.loop_start,
                self.loop_end,
                self.loop_iters,
            )
        )
        # Zipf-flavoured function choice: low indices much hotter.
        index = min(
            int(self.rng.paretovariate(1.2)) - 1, len(self._functions) - 1
        )
        self.pc = self._functions[index]
        self.loop_iters = 0  # the callee starts fresh

    def _do_return(self) -> None:
        return_pc, saved_sp, loop_start, loop_end, loop_iters = (
            self.call_stack.pop()
        )
        for i in range(self.spec.return_read_count):
            self.pending.append((RefKind.READ, self._clamp_stack(self.sp + i * 4)))
        self.pc = return_pc
        self.sp = saved_sp
        self.loop_start = loop_start
        self.loop_end = loop_end
        self.loop_iters = loop_iters

    def _next_instr(self) -> int:
        addr = self.pc
        self.pc += 4
        if self.loop_iters > 0 and self.pc >= self.loop_end:
            self.loop_iters -= 1
            self.pc = self.loop_start
        self._clamp_pc()

        roll = self.rng.random()
        spec = self.spec
        if roll < spec.call_rate:
            if len(self.call_stack) < spec.max_call_depth:
                self._do_call()
            elif self.call_stack:
                self._do_return()
        elif roll < spec.call_rate * 2:
            if self.call_stack:
                self._do_return()
        elif roll < spec.call_rate * 2 + spec.loop_rate and self.loop_iters == 0:
            self._start_loop()
        return addr

    # -- data engine ----------------------------------------------------

    def _hot_block(self, n_blocks: int, mean: float) -> int:
        """A block index concentrated near 0 (geometric with *mean*)."""
        index = int(self.rng.expovariate(1.0 / mean))
        return index if index < n_blocks else self.rng.randrange(n_blocks)

    def _shared_addr(self) -> int:
        spec = self.spec
        seg = self.rng.choice(self.segs.shared)
        n_blocks = seg.size // spec.data_block_size
        if self.rng.random() < spec.shared_hot_prob:
            block = self._hot_block(n_blocks, spec.shared_hot_mean)
        else:
            block = self.rng.randrange(n_blocks)
        return seg.base_vaddr + block * spec.data_block_size

    def _alias_addr(self) -> int:
        seg = self.segs.alias_a if self.rng.random() < 0.5 else self.segs.alias_b
        n_blocks = seg.size // self.spec.data_block_size
        block = self._hot_block(n_blocks, self.spec.alias_hot_mean)
        return seg.base_vaddr + block * self.spec.data_block_size

    _SNAPSHOT_PERIOD = 1024

    def _touch_lru(self, base: int) -> None:
        stack = self.lru_stack
        if base in stack:
            stack.move_to_end(base)
        else:
            stack[base] = None
            if len(stack) > self.spec.reuse_window_blocks:
                stack.popitem(last=False)

    def _private_addr(self) -> int:
        spec = self.spec
        self._refs_since_snapshot += 1
        if (
            self._refs_since_snapshot >= self._SNAPSHOT_PERIOD
            or not self._lru_snapshot
        ):
            self._lru_snapshot = list(self.lru_stack)
            self._refs_since_snapshot = 0
        snapshot = self._lru_snapshot
        recent = self._recent
        if recent and self.rng.random() < spec.data_reuse_prob:
            if self.rng.random() < spec.reuse_long_prob:
                depth = int(self.rng.expovariate(1.0 / spec.reuse_long_mean))
                if depth >= len(snapshot):
                    depth = len(snapshot) - 1
                base = snapshot[len(snapshot) - 1 - depth]
            else:
                depth = int(self.rng.expovariate(1.0 / spec.reuse_mean_depth))
                if depth >= len(recent):
                    depth = len(recent) - 1
                base = recent[len(recent) - 1 - depth]
        else:
            self.data_frontier += spec.data_block_size
            if self.data_frontier >= self.segs.data.end_vaddr:
                self.data_frontier = self.segs.data.base_vaddr
            base = self.data_frontier
        self._touch_lru(base)
        recent.append(base)
        return base + (self.rng.randrange(self.spec.data_block_size // 4) * 4)

    def _clamp_stack(self, addr: int) -> int:
        stack = self.segs.stack
        return min(max(addr, stack.base_vaddr), stack.end_vaddr - 4)

    def _next_data(self) -> int:
        spec = self.spec
        roll = self.rng.random()
        if roll < spec.stack_ref_frac:
            return self._clamp_stack(self.sp + self.rng.randrange(-8, 24) * 4)
        roll -= spec.stack_ref_frac
        if roll < spec.shared_ref_frac:
            return self._shared_addr()
        roll -= spec.shared_ref_frac
        if roll < spec.alias_ref_frac:
            return self._alias_addr()
        return self._private_addr()

    # -- main step -------------------------------------------------------

    def next_event(self) -> tuple[RefKind, int]:
        """Produce the next (kind, vaddr) event for this process."""
        if self.pending:
            kind, addr = self.pending.popleft()
        else:
            kind = self._pick_kind()
            if kind is _INSTR:
                addr = self._next_instr()
            else:
                addr = self._next_data()
        # Identity compares: ``RefKind.is_memory`` hashes the member.
        if kind is _INSTR:
            self.counts[0] += 1
        elif kind is _READ:
            self.counts[1] += 1
        elif kind is _WRITE:
            self.counts[2] += 1
        else:
            return kind, addr
        self.total += 1
        return kind, addr


class SyntheticWorkload:
    """A complete machine workload: address spaces plus trace stream.

    Iterating yields :class:`TraceRecord` events, round-robin across
    CPUs, one memory reference per CPU turn, with CSWITCH markers
    injected per the switch schedule.  The workload owns the
    :class:`MemoryLayout` the simulator translates against.  Each
    iteration reseeds the generators from the spec, so every pass
    yields the same trace.

    >>> spec = WorkloadSpec(name="tiny", total_refs=100, context_switches=1)
    >>> workload = SyntheticWorkload(spec)
    >>> records = list(workload)
    >>> sum(1 for r in records if r.is_memory)
    100
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.layout = MemoryLayout(spec.page_size)
        self._segments: dict[int, _ProcessSegments] = {}
        self._cpu_processes: list[list[int]] = []
        self._build_address_spaces()

    # -- construction ------------------------------------------------------

    def _build_address_spaces(self) -> None:
        spec = self.spec
        layout = self.layout
        pids_by_cpu: list[list[int]] = []
        next_pid = 1
        for _cpu in range(spec.n_cpus):
            pids = []
            for _ in range(spec.processes_per_cpu):
                pids.append(next_pid)
                next_pid += 1
            pids_by_cpu.append(pids)
        all_pids = [pid for pids in pids_by_cpu for pid in pids]

        # Shared segments: one physical region, per-process virtual base.
        shared_by_pid: dict[int, list[Segment]] = {pid: [] for pid in all_pids}
        for s in range(spec.n_shared_segments):
            mappings = [
                (pid, _SHARED_BASE + s * _SHARED_SEG_STRIDE
                 + pid * _SHARED_PID_STRIDE)
                for pid in all_pids
            ]
            segments = layout.add_shared_segment(
                f"shm{s}", mappings, spec.shared_pages
            )
            for segment in segments:
                shared_by_pid[segment.pid].append(segment)

        for cpu, pids in enumerate(pids_by_cpu):
            for pid in pids:
                text = layout.add_private_segment(
                    pid, "text", _TEXT_BASE, spec.text_pages
                )
                data = layout.add_private_segment(
                    pid, "data", _DATA_BASE, spec.data_pages
                )
                stack = layout.add_private_segment(
                    pid, "stack", _STACK_BASE, spec.stack_pages
                )
                alias_a, alias_b = layout.add_shared_segment(
                    f"alias-p{pid}",
                    [(pid, _ALIAS_BASE_A), (pid, _ALIAS_BASE_B)],
                    spec.alias_pages,
                )
                self._segments[pid] = _ProcessSegments(
                    text=text, data=data, stack=stack,
                    alias_a=alias_a, alias_b=alias_b,
                    shared=shared_by_pid[pid],
                )
        self._cpu_processes = pids_by_cpu

    def _switch_schedule(self, rng: random.Random) -> list[list[int]]:
        """Per-CPU sorted switch points, in per-CPU memory-ref counts."""
        spec = self.spec
        per_cpu_refs = spec.total_refs // spec.n_cpus
        schedule: list[list[int]] = [[] for _ in range(spec.n_cpus)]
        if spec.context_switches == 0 or per_cpu_refs < 2:
            return schedule
        for j in range(spec.context_switches):
            cpu = j % spec.n_cpus
            slot = j // spec.n_cpus
            switches_on_cpu = (
                spec.context_switches + spec.n_cpus - 1 - cpu
            ) // spec.n_cpus
            span = per_cpu_refs / (switches_on_cpu + 1)
            jitter = rng.uniform(-span / 4, span / 4)
            point = int((slot + 1) * span + jitter)
            schedule[cpu].append(min(max(point, 1), per_cpu_refs - 1))
        for points in schedule:
            points.sort()
        return schedule

    # -- iteration ----------------------------------------------------------

    def __iter__(self) -> Iterator[TraceRecord]:
        spec = self.spec
        n_cpus = spec.n_cpus
        per_cpu = [spec.total_refs // n_cpus] * n_cpus
        for i in range(spec.total_refs - sum(per_cpu)):
            per_cpu[i] += 1

        schedule = self._switch_schedule(random.Random(spec.seed))
        engines = {
            pid: _ProcessEngine(
                pid, spec, segs,
                random.Random((spec.seed << 16) ^ (pid * 2_654_435_761)),
            )
            for pid, segs in self._segments.items()
        }
        current = [0] * n_cpus  # index into the CPU's process list
        emitted = [0] * n_cpus
        switch_pos = [0] * n_cpus

        active = list(range(n_cpus))
        while active:
            for cpu in list(active):
                if emitted[cpu] >= per_cpu[cpu]:
                    active.remove(cpu)
                    continue
                points = schedule[cpu]
                if (switch_pos[cpu] < len(points)
                        and emitted[cpu] >= points[switch_pos[cpu]]):
                    switch_pos[cpu] += 1
                    current[cpu] = (current[cpu] + 1) % len(
                        self._cpu_processes[cpu]
                    )
                    pid = self._cpu_processes[cpu][current[cpu]]
                    yield TraceRecord(cpu, pid, RefKind.CSWITCH)
                pid = self._cpu_processes[cpu][current[cpu]]
                engine = engines[pid]
                # Emit until one memory reference has gone out (markers
                # such as CALL don't count against the budget).
                while True:
                    kind, addr = engine.next_event()
                    yield TraceRecord(cpu, pid, kind, addr)
                    # CALL is the only marker an engine emits.
                    if kind is not _CALL:
                        emitted[cpu] += 1
                        break

    def records(self) -> list[TraceRecord]:
        """Materialise the whole trace (convenient for small traces)."""
        return list(self)
