"""Runtime invariant guard: fail fast on corrupted metadata.

The guard watches a running machine and periodically re-establishes
the structural invariants of DESIGN.md §5 using the incremental scans
in ``repro.hierarchy.checker``:

* after every access it marks the level-1 and level-2 sets the access
  touched; every ``check_every`` accesses it scans the accumulated
  sets (plus the cheap global invariants: buffer bits and the TLB),
  and every ``full_every``-th such check it sweeps the whole
  hierarchy;
* at every coherence-transaction boundary (via ``Bus.observer``) it
  scans the affected level-2 set of every *remote* hierarchy
  immediately; the *originating* hierarchy is mid-access — its tag
  state is legitimately half-updated — so its set is only marked
  pending and scanned at the next access boundary.

The first scan that finds a violation raises :class:`IntegrityError`
carrying the access index, the faulting address, every violation and
a snapshot of the affected tag-store sets.
"""

from __future__ import annotations

from ..coherence.bus import Bus
from ..coherence.messages import BusTransaction
from ..common.errors import IntegrityError
from ..hierarchy.checker import (
    Violation,
    scan_buffer_bits,
    scan_hierarchy,
    scan_l1_set,
    scan_l2_set,
    scan_tlb,
)
from ..hierarchy.twolevel import TwoLevelHierarchy
from ..obs import get_tracer
from ..trace.record import RefKind


class InvariantGuard:
    """Incremental invariant checking for one machine.

    One guard serves every hierarchy on the bus; install it with
    :meth:`watch` (``Multiprocessor.run(guard=...)`` does this for
    you, and uninstalls it when the run ends).
    """

    def __init__(self, check_every: int = 1000, full_every: int = 16) -> None:
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        if full_every < 1:
            raise ValueError(f"full_every must be >= 1, got {full_every}")
        self.check_every = check_every
        self.full_every = full_every
        tracer = get_tracer()
        # Pre-resolved "guard" category slot (see TwoLevelHierarchy
        # .set_tracer for the pattern): None when untraced.
        self._tr_guard = (
            tracer if tracer is not None and tracer.wants("guard") else None
        )
        self._hierarchies: dict[int, TwoLevelHierarchy] = {}
        # Per-CPU accumulators between due checks.
        self._touched: dict[int, set[tuple]] = {}
        self._counts: dict[int, int] = {}
        self._checks: dict[int, int] = {}

    # -- installation -------------------------------------------------------

    def watch(self, bus: Bus, hierarchies: list[TwoLevelHierarchy]) -> None:
        """Attach to *bus* and *hierarchies* (idempotent: a checkpointed
        run watches again for every chunk and keeps its pacing)."""
        for hier in hierarchies:
            self._hierarchies[hier.cpu] = hier
            self._touched.setdefault(hier.cpu, set())
            self._counts.setdefault(hier.cpu, 0)
            self._checks.setdefault(hier.cpu, 0)
        bus.observer = self._on_transaction

    # -- coherence-boundary checks ------------------------------------------

    def _on_transaction(self, txn: BusTransaction) -> None:
        for cpu, hier in self._hierarchies.items():
            address = txn.pblock * hier.rcache.sub_block_size
            l2_set = hier.rcache.config.set_index(address)
            if cpu == txn.origin:
                # The origin is mid-access; check at the next boundary.
                self._touched[cpu].add(("l2", l2_set))
                continue
            violations = scan_l2_set(hier, l2_set)
            violations.extend(self._scan_buffer_block(hier, txn.pblock))
            if violations:
                self._fail(hier, violations, None, address)

    @staticmethod
    def _scan_buffer_block(
        hier: TwoLevelHierarchy, pblock: int
    ) -> list[Violation]:
        """Buffer-bit/write-buffer agreement for one block only.

        The full :func:`scan_buffer_bits` sweeps every level-2 block —
        far too expensive per bus transaction; the transaction can only
        have disturbed its own block, so check just that one.
        """
        found = hier.rcache.lookup_sub_block(pblock)
        flagged = found is not None and found[1].buffer
        buffered = hier.write_buffer.find(pblock) is not None
        if flagged == buffered:
            return []
        return [
            Violation(
                "buffer",
                ("buffer", pblock),
                f"buffer bits disagree with write-buffer contents for "
                f"block {pblock:#x} (bit={flagged}, buffered={buffered})",
            )
        ]

    # -- access-boundary checks -----------------------------------------------

    def after_access(
        self,
        hier: TwoLevelHierarchy,
        pid: int,
        vaddr: int,
        kind: RefKind,
        access_index: int,
    ) -> None:
        """Mark the sets the access touched and run any due check."""
        cpu = hier.cpu
        touched = self._touched.setdefault(cpu, set())
        l1 = hier.l1_for(kind)
        if hier.kind.virtual_l1:
            key = vaddr | (pid << 48) if hier.config.l1_pid_tags else vaddr
        else:
            key = hier.layout.translate(pid, vaddr)
        touched.add(("l1", l1.index, l1.config.set_index(key)))
        paddr = hier.layout.translate(pid, vaddr)
        touched.add(("l2", hier.rcache.config.set_index(paddr)))

        self._counts[cpu] = self._counts.get(cpu, 0) + 1
        if self._counts[cpu] % self.check_every:
            return
        self._checks[cpu] = self._checks.get(cpu, 0) + 1
        if self._checks[cpu] % self.full_every == 0:
            violations = scan_hierarchy(hier)
        else:
            violations = self._scan_sites(hier, touched)
            violations.extend(scan_buffer_bits(hier))
            violations.extend(scan_tlb(hier))
        touched.clear()
        if violations:
            self._fail(hier, violations, access_index, vaddr)

    def _scan_sites(
        self, hier: TwoLevelHierarchy, sites: set[tuple]
    ) -> list[Violation]:
        out: list[Violation] = []
        for site in sorted(sites):
            if site[0] == "l2":
                out.extend(scan_l2_set(hier, site[1]))
            else:
                _, cache_index, set_index = site
                out.extend(
                    scan_l1_set(hier, hier.l1_caches[cache_index], set_index)
                )
        return out

    # -- reporting ---------------------------------------------------------------

    def _fail(
        self,
        hier: TwoLevelHierarchy,
        violations: list[Violation],
        access_index: int | None,
        address: int,
    ) -> None:
        """Trace one event per violation, then raise."""
        if self._tr_guard is not None:
            for violation in violations:
                self._tr_guard.emit(
                    "guard",
                    "violation",
                    cpu=hier.cpu,
                    access_index=access_index if access_index is not None else 0,
                    site=str(violation.site),
                )
        raise IntegrityError(
            f"{len(violations)} invariant violation(s) detected: "
            f"{violations[0].message}",
            access_index=access_index,
            address=address,
            violations=violations,
            snapshot=self._snapshot(hier, violations),
        )

    def _snapshot(
        self, hier: TwoLevelHierarchy, violations: list[Violation]
    ) -> dict[str, list[str]]:
        """Tag-store contents of every set a violation names."""
        snap: dict[str, list[str]] = {}
        for violation in violations:
            site = violation.site
            if site[0] == "l2" and 0 <= site[1] < hier.rcache.config.n_sets:
                snap[f"l2 set {site[1]}"] = [
                    f"{block!r} {block.subentries}"  # type: ignore[attr-defined]
                    for block in hier.rcache.store.ways(site[1])
                ]
            elif site[0] == "l1" and 0 <= site[1] < len(hier.l1_caches):
                l1 = hier.l1_caches[site[1]]
                if 0 <= site[2] < l1.config.n_sets:
                    snap[f"{l1.name} set {site[2]}"] = [
                        repr(block) for block in l1.store.ways(site[2])
                    ]
            elif site[0] == "buffer":
                snap["write buffer"] = [
                    repr(entry) for entry in hier.write_buffer.entries()
                ]
            elif site[0] == "tlb":
                snap.setdefault("tlb", [repr(hier.tlb.entries())])
        return snap
