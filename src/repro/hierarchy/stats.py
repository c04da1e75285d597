"""Per-hierarchy statistics.

Every counter the paper's tables need is collected here, split by
reference class (instruction fetch / data read / data write) so that
Tables 8–10 can report per-class level-1 hit ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.stats import CounterBag, IntervalHistogram, ratio
from ..trace.record import RefKind

#: Reference classes tracked separately.
_CLASSES = (RefKind.INSTR, RefKind.READ, RefKind.WRITE)

#: Counter names per (kind, hit) — precomputed so the per-access hot
#: path never builds an f-string.
_L1_KEYS: dict[tuple[RefKind, bool], str] = {
    (kind, hit): f"l1_{'hits' if hit else 'misses'}_{kind.value}"
    for kind in _CLASSES
    for hit in (True, False)
}


@dataclass(slots=True)
class HierarchyStats:
    """Counters for one processor's cache hierarchy.

    The central quantities:

    * ``l1_hits/l1_misses`` per class — level-1 (valid) hit behaviour.
    * ``l2_hits/l2_misses`` — outcome of level-1 misses at level 2
      (local hit ratio h2 = l2_hits / (l2_hits + l2_misses)).
    * ``synonym_*`` — level-2 hits resolved by moving/re-tagging an
      existing level-1 copy (V-R only).
    * ``coherence_to_l1`` — messages the level-2 cache had to send down
      to level 1 on behalf of bus traffic (Tables 11–13).
    * ``writeback_intervals`` — distances (in references) between
      successive level-1 write-backs (Tables 2 and 3).
    """

    counters: CounterBag = field(default_factory=CounterBag)
    writeback_intervals: IntervalHistogram = field(
        default_factory=lambda: IntervalHistogram(top=10)
    )

    def record_l1(self, kind: RefKind, hit: bool) -> None:
        """Count a level-1 lookup outcome for one reference class."""
        self.counters.add(_L1_KEYS[kind, hit])

    def record_l2(self, hit: bool) -> None:
        """Count the level-2 outcome of a level-1 miss."""
        self.counters.add("l2_hits" if hit else "l2_misses")

    # -- derived ratios ----------------------------------------------------

    def _sum(self, prefix: str, kinds: tuple[RefKind, ...] = _CLASSES) -> int:
        return self.counters.total(f"{prefix}_{k.value}" for k in kinds)

    def l1_refs(self, *kinds: RefKind) -> int:
        """References that looked up level 1, optionally by class."""
        selected = kinds or _CLASSES
        return self._sum("l1_hits", selected) + self._sum("l1_misses", selected)

    def l1_hit_ratio(self, *kinds: RefKind) -> float:
        """h1, optionally restricted to some reference classes."""
        selected = kinds or _CLASSES
        return ratio(self._sum("l1_hits", selected), self.l1_refs(*selected))

    def l2_hit_ratio(self) -> float:
        """h2 — local hit ratio of level 2 (per level-1 miss)."""
        hits = self.counters["l2_hits"]
        misses = self.counters["l2_misses"]
        return ratio(hits, hits + misses)

    def coherence_to_l1(self) -> int:
        """Total coherence messages percolated to level 1."""
        return self.counters.total(
            (
                "l1_coherence_invalidations",
                "l1_coherence_flushes",
                "l1_coherence_buffer_ops",
                "l1_coherence_probes",
                "l1_inclusion_invalidations",
            )
        )

    def merge(self, other: "HierarchyStats") -> None:
        """Accumulate *other* into this object (for machine-wide sums)."""
        self.counters.merge(other.counters)

    def summary(self) -> dict[str, float | int]:
        """A flat report dict used by examples and experiment runners."""
        out: dict[str, float | int] = dict(self.counters.as_dict())
        out["h1"] = round(self.l1_hit_ratio(), 4)
        out["h2"] = round(self.l2_hit_ratio(), 4)
        out["coherence_to_l1"] = self.coherence_to_l1()
        return out
