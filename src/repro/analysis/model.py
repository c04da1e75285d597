"""The concrete two-processor world the model checker drives.

The checker does not re-transcribe the protocol by hand — it executes
the real implementation (``hierarchy/twolevel.py`` + ``coherence/``)
on a machine small enough that every protocol-relevant configuration
of one tracked physical block is reachable within a few hundred
abstract states, and extracts the transition table from what the code
actually does.  The abstraction maps a concrete machine onto:

    (cpu0 view, cpu1 view, memory-fresh?)

where each CPU view is the tracked block's level-1 copies (virtual
name, valid/swapped, dirty, fresh), its R-cache subentry bits
(inclusion, buffer, share state, vdirty, rdirty, fresh) and its
write-buffer entry (swapped, fresh).  "Fresh" compares a copy's
version stamp against the globally last written version — the value
oracle folded into the state.

Geometry (chosen so every protocol path is exercisable):

* page size 32 B — small enough that the level-1 index bits (4-5)
  reach past the page offset (5 bits), which is the precondition for
  synonyms landing in *different* level-1 sets (the paper's *move*
  resolution; with larger pages only *sameset* is reachable).
* level 1: 64 B, 16 B blocks, direct-mapped (4 sets).
* level 2: 128 B, 32 B blocks, direct-mapped (4 sets, 2 subentries).
* one shared page mapped at (pid 1, 0x100), (pid 1, 0x120) — an
  intra-process synonym pair for CPU 0 — and (pid 2, 0x100) for
  CPU 1; it owns frame 0, so the tracked sub-block is pblock 0
  (level-1 sets 0 and 2 virtually, level-2 set 0).
* two private 9-page arenas provide conflict addresses that evict
  the tracked block from level 1 (same level-1 set, different level-2
  set) and from level 2 (same level-2 set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..cache.write_buffer import WriteBufferEntry
from ..coherence.bus import Bus, MainMemory
from ..coherence.messages import BusOp, BusTransaction
from ..coherence.protocol import ShareState, WritePolicy
from ..common.errors import InclusionError, ProtocolError
from ..faults.checkpoint import export_hierarchy, restore_hierarchy
from ..hierarchy.checker import check_coherence, scan_hierarchy
from ..hierarchy.config import HierarchyConfig, HierarchyKind, Protocol
from ..hierarchy.twolevel import TwoLevelHierarchy
from ..mmu.address_space import MemoryLayout
from ..system.multiprocessor import VersionCounter
from ..trace.record import RefKind

#: Bytes per page — must keep the level-1 index above the page offset.
PAGE_SIZE = 32
#: CPU 0 runs process 1, CPU 1 runs process 2.
PIDS = (1, 2)
#: Primary virtual name of the tracked shared page (both processes).
VADDR_A = 0x100
#: CPU 0's synonym name for the same page (different level-1 set).
VADDR_SYN = 0x120
#: Physical sub-block number under observation (frame 0, offset 0).
TRACKED_PBLOCK = 0

#: Conflict-read addresses: (event name, cpu, vaddr).  Chosen per the
#: module docstring so that between them, the tracked block can be
#: evicted from either of its possible level-1 sets (virtual or
#: physical indexing) and from its level-2 set.
_CONFLICTS = (
    ("x0", 0, 0x200),   # frame 1:  L1 set 0 (virtual), L2 set 1
    ("x0s", 0, 0x220),  # frame 2:  L1 set 2 (virtual) / 0 (physical), L2 set 2
    ("y0", 0, 0x260),   # frame 4:  L2 set 0 — forces a level-2 eviction
    ("x1", 1, 0x200),   # frame 10: L1 set 0 (both indexings), L2 set 2
    ("y1", 1, 0x240),   # frame 12: L2 set 0 — forces a level-2 eviction
)


@dataclass(frozen=True)
class Scenario:
    """One (organisation, protocol, write policy) configuration."""

    name: str
    kind: HierarchyKind
    protocol: Protocol
    write_policy: WritePolicy

    def describe(self) -> dict[str, str]:
        """JSON-friendly identification."""
        return {
            "name": self.name,
            "kind": self.kind.value,
            "protocol": self.protocol.value,
            "write_policy": self.write_policy.value,
        }


def _scenarios() -> tuple[Scenario, ...]:
    out = []
    for kind in HierarchyKind:
        for protocol in Protocol:
            out.append(
                Scenario(
                    f"{kind.value}-{protocol.value}-wb",
                    kind,
                    protocol,
                    WritePolicy.WRITE_BACK,
                )
            )
    for protocol in Protocol:
        out.append(
            Scenario(
                f"vr-{protocol.value}-wt",
                HierarchyKind.VR,
                protocol,
                WritePolicy.WRITE_THROUGH,
            )
        )
    return tuple(out)


#: The full scenario matrix ``repro-verify --exhaustive`` explores:
#: all three organisations under both protocols with a write-back
#: level 1, plus V-R under both protocols with a write-through level 1.
SCENARIOS: tuple[Scenario, ...] = _scenarios()


def scenario_named(name: str) -> Scenario:
    """Look up a scenario by its report name."""
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in SCENARIOS)
    raise KeyError(f"unknown scenario {name!r}; choose from: {known}")


class ProtocolModel:
    """A concrete machine plus the abstraction the explorer quotients by."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        layout = MemoryLayout(page_size=PAGE_SIZE)
        layout.add_shared_segment(
            "shm",
            [(PIDS[0], VADDR_A), (PIDS[0], VADDR_SYN), (PIDS[1], VADDR_A)],
            n_pages=1,
        )
        layout.add_private_segment(PIDS[0], "arena0", 0x200, n_pages=9)
        layout.add_private_segment(PIDS[1], "arena1", 0x200, n_pages=9)
        self.layout = layout
        config = HierarchyConfig.sized(
            "64",
            "128",
            block_size=16,
            l2_block_size=32,
            kind=scenario.kind,
            page_size=PAGE_SIZE,
            l1_write_policy=scenario.write_policy,
            protocol=scenario.protocol,
        )
        self.bus = Bus(MainMemory())
        self.version_counter = VersionCounter()
        # A drain period beyond any reachable path length makes write
        # buffer draining an *explicit* event (d0/d1) instead of hidden
        # modulo-counter state the abstraction cannot see.
        self.hierarchies = [
            TwoLevelHierarchy(
                config,
                layout,
                self.bus,
                next_version=self.version_counter,
                drain_period=1 << 30,
                seed=cpu * 97,
            )
            for cpu in range(2)
        ]
        # Version stamp of the last write to the tracked block — the
        # value oracle every read event and freshness bit compares to.
        self._expected = 0
        self._events = self._build_events()

    # -- event vocabulary ---------------------------------------------------

    def _build_events(self) -> tuple[tuple[str, int, str, int | None], ...]:
        vr = self.scenario.kind.virtual_l1
        events: list[tuple[str, int, str, int | None]] = [
            ("r0", 0, "read", VADDR_A),
            ("w0", 0, "write", VADDR_A),
            ("r1", 1, "read", VADDR_A),
            ("w1", 1, "write", VADDR_A),
        ]
        if vr:
            # Synonym accesses and context switches only change state
            # for a virtually-addressed level 1.
            events += [
                ("r0s", 0, "read", VADDR_SYN),
                ("w0s", 0, "write", VADDR_SYN),
                ("cs0", 0, "cswitch", None),
                ("cs1", 1, "cswitch", None),
            ]
        events += [
            (name, cpu, "read", vaddr) for name, cpu, vaddr in _CONFLICTS
        ]
        events += [("d0", 0, "drain", None), ("d1", 1, "drain", None)]
        return tuple(events)

    def events(self) -> tuple[str, ...]:
        """The event names, in deterministic exploration order."""
        return tuple(name for name, _, _, _ in self._events)

    def apply(self, event: str) -> tuple[bool, list[str]]:
        """Apply one event to the concrete machine.

        Returns ``(applied, violations)`` — *applied* is False when
        the event is inapplicable in the current state (draining an
        empty buffer).  *violations* carries read-oracle failures.
        Protocol exceptions raised by the implementation propagate to
        the explorer, which records them as error transitions.
        """
        for name, cpu, action, vaddr in self._events:
            if name == event:
                break
        else:
            raise KeyError(f"unknown event {event!r}")
        hier = self.hierarchies[cpu]
        if action == "drain":
            if not len(hier.write_buffer):
                return False, []
            # Sanctioned private access: draining one entry is the
            # bus-timing event; the public drain empties the buffer.
            hier._drain_one()
            return True, []
        if action == "cswitch":
            hier.context_switch(PIDS[cpu])
            return True, []
        kind = RefKind.WRITE if action == "write" else RefKind.READ
        assert vaddr is not None
        result = hier.access(PIDS[cpu], vaddr, kind)
        violations: list[str] = []
        tracked = (
            self.layout.translate(PIDS[cpu], vaddr) >> 4 == TRACKED_PBLOCK
        )
        if tracked:
            if kind is RefKind.WRITE:
                self._expected = result.version
            elif result.version != self._expected:
                violations.append(
                    f"read oracle: cpu{cpu} observed version "
                    f"{result.version}, expected {self._expected} "
                    f"(outcome {result.outcome.value})"
                )
        return True, violations

    # -- abstraction --------------------------------------------------------

    def abstract(self) -> tuple:
        """The abstract state of the current concrete machine."""
        mem_fresh = self.bus.memory.peek(TRACKED_PBLOCK) == self._expected
        return (
            self._abstract_cpu(0),
            self._abstract_cpu(1),
            mem_fresh,
        )

    def _abstract_cpu(self, cpu: int) -> tuple:
        hier = self.hierarchies[cpu]
        if self.scenario.kind.virtual_l1:
            keys = (("a", VADDR_A), ("s", VADDR_SYN))
        else:
            keys = (("p", TRACKED_PBLOCK << 4),)
        copies = []
        for label, key in keys:
            block = hier.l1_caches[0].store.find(key, include_swapped=True)
            if block is not None:
                status = "S" if block.swapped_valid else "V"
                if block.dirty:
                    status += "D"
                copies.append(
                    (label, status, block.version == self._expected)
                )
        found = hier.rcache.lookup_sub_block(TRACKED_PBLOCK)
        sub_state: tuple | None = None
        if found is not None:
            sub = found[1]
            sub_state = (
                sub.inclusion,
                sub.buffer,
                sub.state.value,
                sub.vdirty,
                sub.rdirty,
                sub.version == self._expected,
            )
        entry = self.hierarchies[cpu].write_buffer.find(TRACKED_PBLOCK)
        wb_state: tuple | None = None
        if entry is not None:
            wb_state = (entry.swapped, entry.version == self._expected)
        return (tuple(copies), sub_state, wb_state)

    @staticmethod
    def describe_state(state: tuple) -> dict[str, Any]:
        """Render an abstract state tuple as a JSON-friendly dict."""
        def cpu_view(view: tuple) -> dict[str, Any]:
            copies, sub, wb = view
            out: dict[str, Any] = {
                "l1": [
                    {"name": name, "status": status, "fresh": fresh}
                    for name, status, fresh in copies
                ]
            }
            if sub is not None:
                out["sub"] = {
                    "inclusion": sub[0],
                    "buffer": sub[1],
                    "share": sub[2],
                    "vdirty": sub[3],
                    "rdirty": sub[4],
                    "fresh": sub[5],
                }
            if wb is not None:
                out["write_buffer"] = {"swapped": wb[0], "fresh": wb[1]}
            return out

        return {
            "cpu0": cpu_view(state[0]),
            "cpu1": cpu_view(state[1]),
            "memory_fresh": state[2],
        }

    # -- invariants ---------------------------------------------------------

    def check_invariants(self) -> list[str]:
        """Every DESIGN.md §5 invariant, on the current concrete state."""
        out: list[str] = []
        for hier in self.hierarchies:
            for violation in scan_hierarchy(hier):
                out.append(f"cpu{hier.cpu}: {violation.message}")
        try:
            check_coherence(self.hierarchies)
        except ProtocolError as exc:
            out.append(f"coherence: {exc}")
        out.extend(self._check_tracked())
        return out

    def _tracked_evidence(self, cpu: int) -> dict[str, Any]:
        """Everything one hierarchy holds of the tracked block."""
        hier = self.hierarchies[cpu]
        found = hier.rcache.lookup_sub_block(TRACKED_PBLOCK)
        sub = found[1] if found is not None else None
        blocks = []
        if self.scenario.kind.virtual_l1:
            for key in (VADDR_A, VADDR_SYN):
                block = hier.l1_caches[0].store.find(key, include_swapped=True)
                if block is not None:
                    blocks.append(block)
        else:
            block = hier.l1_caches[0].store.find(
                TRACKED_PBLOCK << 4, include_swapped=True
            )
            if block is not None:
                blocks.append(block)
        entry = hier.write_buffer.find(TRACKED_PBLOCK)
        write_through = (
            self.scenario.write_policy is WritePolicy.WRITE_THROUGH
        )
        # Data newer than memory may live in a dirty level-1 copy, in
        # either subentry dirty bit, or in flight in the write buffer
        # (buffer bit) — write-through or not.
        dirty = (
            any(b.dirty for b in blocks)
            or (sub is not None and sub.dirty_anywhere)
            or entry is not None
        )
        # Exclusive ownership is narrower: pending *write-through* data
        # is not ownership (an update broadcast can merge it while the
        # block stays SHARED), so it does not demand PRIVATE state.
        exclusive_dirty = (
            any(b.dirty for b in blocks)
            or (sub is not None and (sub.vdirty or sub.rdirty))
            or (sub is not None and sub.buffer and not write_through)
            or (entry is not None and not write_through)
        )
        has_copy = bool(blocks) or sub is not None or entry is not None
        versions = [b.version for b in blocks]
        if sub is not None:
            versions.append(sub.version)
        if entry is not None:
            versions.append(entry.version)
        return {
            "sub": sub,
            "blocks": blocks,
            "entry": entry,
            "dirty": dirty,
            "exclusive_dirty": exclusive_dirty,
            "has_copy": has_copy,
            "versions": versions,
        }

    def _check_tracked(self) -> list[str]:
        out: list[str] = []
        evidence = [self._tracked_evidence(cpu) for cpu in range(2)]
        for cpu, mine in enumerate(evidence):
            peer = evidence[1 - cpu]
            sub = mine["sub"]
            if sub is None:
                continue
            # Exclusivity: PRIVATE means no other cache holds any copy.
            if sub.state is ShareState.PRIVATE and peer["has_copy"]:
                out.append(
                    f"exclusivity: cpu{cpu} holds the tracked block "
                    "PRIVATE while the peer still has a copy"
                )
            # Dirty data must be held exclusively (the update protocol
            # keeps shared copies clean by broadcasting).
            if sub.state is ShareState.SHARED and mine["exclusive_dirty"]:
                out.append(
                    f"dirty-shared: cpu{cpu} holds the tracked block "
                    "dirty while marked SHARED"
                )
        # No lost update: the latest written version must survive in
        # memory or in at least one cached/buffered copy.
        held = {self.bus.memory.peek(TRACKED_PBLOCK)}
        for mine in evidence:
            held.update(mine["versions"])
        if self._expected not in held:
            out.append(
                f"lost update: version {self._expected} is held nowhere "
                f"(held: {sorted(held)})"
            )
        # Memory freshness: with no dirty copy anywhere, memory must
        # already hold the latest version.
        if not any(mine["dirty"] for mine in evidence):
            mem = self.bus.memory.peek(TRACKED_PBLOCK)
            if mem != self._expected:
                out.append(
                    f"stale memory: no cache holds the tracked block "
                    f"dirty but memory has version {mem}, "
                    f"expected {self._expected}"
                )
        return out

    # -- snapshot / restore -------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Capture the complete mutable machine state."""
        return {
            "hierarchies": [export_hierarchy(h) for h in self.hierarchies],
            "memory": self.bus.memory.export_state(),
            "bus_stats": self.bus.stats.export_state(),
            "next_version": self.version_counter.next_value,
            "expected": self._expected,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Return the machine to a :meth:`snapshot` state."""
        for hier, hier_state in zip(self.hierarchies, state["hierarchies"]):
            restore_hierarchy(hier, hier_state)
        self.bus.memory.restore_state(state["memory"])
        self.bus.stats.restore_state(state["bus_stats"])
        self.version_counter.next_value = state["next_version"]
        self._expected = state["expected"]


# -- the static subentry x bus-event cross product ----------------------------

#: Coherence operations a subentry can be confronted with by a peer.
_SNOOP_OPS = (
    BusOp.READ_MISS,
    BusOp.READ_MODIFIED_WRITE,
    BusOp.INVALIDATE,
    BusOp.WRITE_UPDATE,
)


def _sub_combo_name(
    inclusion: bool, buffer: bool, share: ShareState, vdirty: bool, rdirty: bool
) -> str:
    flags = "".join(
        ch
        for ch, on in (
            ("I", inclusion),
            ("B", buffer),
            ("v", vdirty),
            ("r", rdirty),
        )
        if on
    )
    return f"{share.value}:{flags or '-'}"


def all_sub_combos() -> list[tuple[bool, bool, ShareState, bool, bool]]:
    """Every (inclusion, buffer, share, vdirty, rdirty) combination."""
    out = []
    for inclusion in (False, True):
        for buffer in (False, True):
            for share in (ShareState.PRIVATE, ShareState.SHARED):
                for vdirty in (False, True):
                    for rdirty in (False, True):
                        out.append((inclusion, buffer, share, vdirty, rdirty))
    return out


def snoop_table(scenario: Scenario) -> list[dict[str, Any]]:
    """The full subentry-state x bus-event reaction table.

    For every one of the 32 subentry bit combinations, a fresh machine
    is forced into that configuration (with structurally consistent
    surroundings: a linked level-1 child when the inclusion bit is
    set, a write-buffer entry when the buffer bit is set) and each
    coherence transaction is delivered to the snoop handler.  The
    outcome — the new subentry state, or the defensive exception the
    implementation raises — is recorded verbatim.

    Rows where the implementation raises are exactly the "missing
    transitions" of the protocol table; :func:`repro.analysis.explore`
    cross-references them against the dynamically reachable combos to
    prove each one unreachable (or surface it as a genuine gap).
    """
    rows: list[dict[str, Any]] = []
    for inclusion, buffer, share, vdirty, rdirty in all_sub_combos():
        for op in _SNOOP_OPS:
            model = ProtocolModel(scenario)
            hier = model.hierarchies[0]
            rblock = hier.rcache.store.ways(0)[0]
            rblock.tag = 0
            sub = rblock.subentries[0]
            sub.valid = True
            sub.inclusion = inclusion
            sub.buffer = buffer
            sub.state = share
            sub.vdirty = vdirty
            sub.rdirty = rdirty
            sub.version = 3
            rblock.refresh_valid()
            if inclusion:
                # The child's key is virtual for V-R, physical for R-R
                # (the unshielded probe searches by physical address).
                key = VADDR_A if scenario.kind.virtual_l1 else 0
                child = hier.l1_caches[0].store.ways(0)[0]
                child.fill(hier.l1_caches[0].config.tag(key), (0, 0, 0), 4)
                child.dirty = vdirty
                sub.v_pointer = (0, 0, 0)
            if buffer:
                hier.write_buffer.push(
                    WriteBufferEntry(TRACKED_PBLOCK, 5, swapped=False)
                )
            version = 6 if op is BusOp.WRITE_UPDATE else None
            txn = BusTransaction(op, 1, TRACKED_PBLOCK, version)
            row: dict[str, Any] = {
                "sub": _sub_combo_name(inclusion, buffer, share, vdirty, rdirty),
                "op": op.value,
            }
            try:
                reply = hier.snoop(txn)
            except (ProtocolError, InclusionError) as exc:
                row["outcome"] = "raise"
                row["error"] = f"{type(exc).__name__}: {exc}"
            else:
                row["outcome"] = "ok"
                row["has_copy"] = reply.has_copy
                row["supplied"] = reply.supplied_version is not None
                after = (
                    _sub_combo_name(
                        sub.inclusion,
                        sub.buffer,
                        sub.state,
                        sub.vdirty,
                        sub.rdirty,
                    )
                    if sub.valid
                    else "invalid"
                )
                row["after"] = after
            rows.append(row)
    return rows
