"""Low-overhead structured event tracing for the simulator.

The hierarchy's interesting transitions — synonym detection and
moves, inclusion-forced invalidations, swapped-valid lazy write-backs,
coherence reactions, invariant-guard detections — emit
typed :class:`TraceEvent` records through an :class:`EventTracer`.

Overhead discipline:

* **Off by default.**  No tracer attached means every emit site is a
  single ``is None`` test on a pre-resolved attribute, and the
  per-access fast path (`TwoLevelHierarchy.access`) carries no test
  at all — events only originate from the miss/eviction/snoop paths.
* **Category pre-resolution.**  Components don't filter per event;
  they cache ``tracer if tracer.wants(category) else None`` per
  category when the tracer is attached, so a filtered-out category
  costs the same as tracing off.
* **Bounded memory.**  Events land in a ring buffer (``capacity``
  newest events); an optional JSONL sink streams *every* event to
  disk, so the file and the per-event-type counts are complete even
  when the ring has wrapped.

Events round-trip through JSONL (:meth:`EventTracer.write_jsonl`,
:func:`read_jsonl`), one JSON object per line, making traces greppable
and diffable across runs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Any

from ..common.errors import ConfigurationError
from ..common.stats import CounterBag

#: Every category an event may carry.  ``--trace=<cat>,<cat>`` filters
#: against these.
CATEGORIES: frozenset[str] = frozenset(
    {
        "synonym",  # V-R synonym detection: sameset re-tags and moves
        "inclusion",  # inclusion-forced level-1 invalidations
        "writeback",  # write-buffer pushes (incl. swapped-valid), cancels
        "coherence",  # snooped transactions percolating into a hierarchy
        "guard",  # invariant-guard detections
    }
)


def parse_categories(spec: str) -> frozenset[str]:
    """Parse a ``--trace`` argument: ``"all"`` or a comma list."""
    if spec in ("", "all"):
        return CATEGORIES
    chosen = frozenset(part.strip() for part in spec.split(",") if part.strip())
    unknown = chosen - CATEGORIES
    if unknown:
        raise ConfigurationError(
            f"unknown trace categories {sorted(unknown)}; "
            f"choose from {sorted(CATEGORIES)}"
        )
    return chosen


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace event.

    Attributes:
        seq: 1-based position in the run's event stream.
        category: one of :data:`CATEGORIES`.
        name: event type within the category (e.g. ``"move"``).
        cpu: originating CPU, or -1 when not CPU-specific.
        fields: event-specific payload (JSON-serialisable scalars).
    """

    seq: int
    category: str
    name: str
    cpu: int = -1
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The JSONL wire form."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "cat": self.category,
            "name": self.name,
            "cpu": self.cpu,
        }
        if self.fields:
            out["fields"] = self.fields
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceEvent":
        """Rebuild an event from its wire form."""
        return cls(
            seq=data["seq"],
            category=data["cat"],
            name=data["name"],
            cpu=data.get("cpu", -1),
            fields=data.get("fields", {}),
        )


class EventTracer:
    """Collects :class:`TraceEvent` records with bounded memory.

    Attributes:
        categories: the categories this tracer accepts.
        counts: events per ``"category.name"`` — complete even after
            the ring wraps.
        emitted: total accepted events (equals the last seq).
    """

    def __init__(
        self,
        categories: frozenset[str] | None = None,
        capacity: int = 65536,
        sink: IO[str] | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"ring capacity must be >= 1: {capacity}")
        chosen = CATEGORIES if categories is None else frozenset(categories)
        unknown = chosen - CATEGORIES
        if unknown:
            raise ConfigurationError(
                f"unknown trace categories {sorted(unknown)}; "
                f"choose from {sorted(CATEGORIES)}"
            )
        self.categories = chosen
        self.capacity = capacity
        self.counts = CounterBag()
        self.emitted = 0
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        self._sink = sink

    def wants(self, category: str) -> bool:
        """True when events of *category* would be recorded."""
        return category in self.categories

    def emit(self, category: str, name: str, cpu: int = -1, **fields: Any) -> None:
        """Record one event (dropped silently if filtered out)."""
        if category not in self.categories:
            return
        self.emitted += 1
        event = TraceEvent(self.emitted, category, name, cpu, fields)
        self._ring.append(event)
        self.counts.add(f"{category}.{name}")
        if self._sink is not None:
            self._sink.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")

    def events(self) -> list[TraceEvent]:
        """The newest ``capacity`` events, oldest first."""
        return list(self._ring)

    def count(self, category: str, name: str) -> int:
        """How many ``category.name`` events were emitted (ever)."""
        return self.counts[f"{category}.{name}"]

    def write_jsonl(self, path: str) -> int:
        """Dump the ring's events to *path*; returns events written.

        When a streaming sink is attached the sink file is already the
        complete record — this writes just the retained window.
        """
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        return len(events)

    def close(self) -> None:
        """Flush and drop the sink (the tracer stays usable, unsunk)."""
        if self._sink is not None:
            self._sink.flush()
            self._sink = None

    def __repr__(self) -> str:
        return (
            f"EventTracer({sorted(self.categories)}, "
            f"emitted={self.emitted}, retained={len(self._ring)})"
        )


def read_jsonl(path: str) -> list[TraceEvent]:
    """Load a JSONL event file written by a sink or :meth:`write_jsonl`."""
    events: list[TraceEvent] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events
