"""The unified metrics registry: one namespace over every counter.

Components keep collecting into their hot-path-friendly
:class:`~repro.common.stats.CounterBag` objects (a dict increment is
the cheapest thing Python can do per access); this module is the
*query* layer that projects those scattered bags into one dotted
namespace — ``l1.hit.read``, ``r.synonym_move``, ``tlb.miss``,
``bus.invalidate``, ``wb.swapped_push`` — so every experiment table,
the CLI's ``--metrics-out`` snapshot and the run manifest all speak
the same metric names.

Three typed metric kinds exist:

* :class:`CounterMetric` — a monotonically growing integer.
* :class:`HistogramMetric` — integer buckets with a catch-all top
  bucket (the shape of the paper's inter-write-interval tables).
* :class:`TimerMetric` — accumulated wall-clock seconds with a lap
  count.  Timers are deliberately *excluded* from
  :func:`registry_from_result`: wall-clock is nondeterministic, and
  metric snapshots must be bit-identical across ``--jobs`` settings.

Registries merge (worker metrics fold into the parent's registry) and
round-trip through plain JSON dicts via :meth:`MetricsRegistry.snapshot`
and :meth:`MetricsRegistry.from_snapshot`.
"""

from __future__ import annotations

import re
from collections import Counter as _Counter
from collections.abc import Iterable
from typing import Any

from ..common.errors import ConfigurationError

#: Metric names are dotted paths: at least two lowercase segments.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def validate_name(name: str) -> str:
    """Return *name* if it is a well-formed dotted metric name."""
    if not _NAME_RE.match(name):
        raise ConfigurationError(
            f"bad metric name {name!r}: expected dotted lowercase segments "
            "like 'l1.hit.read'"
        )
    return name


class CounterMetric:
    """A named, monotonically growing integer."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (negative amounts are rejected)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"CounterMetric({self.name}={self.value})"


class HistogramMetric:
    """Integer-interval buckets ``1..top-1`` plus a catch-all top bucket."""

    __slots__ = ("name", "top", "buckets", "top_count", "observations")

    kind = "histogram"

    def __init__(self, name: str, top: int = 10) -> None:
        if top < 2:
            raise ValueError(f"histogram {name}: top must be >= 2, got {top}")
        self.name = name
        self.top = top
        self.buckets: _Counter[int] = _Counter()
        self.top_count = 0
        self.observations = 0

    def record(self, value: int, count: int = 1) -> None:
        """Record *value* observed *count* times."""
        if value < 1:
            raise ValueError(f"histogram {self.name}: value must be >= 1")
        self.observations += count
        if value >= self.top:
            self.top_count += count
        else:
            self.buckets[value] += count

    def merge(self, other: "HistogramMetric") -> None:
        """Fold *other* into this histogram (tops must agree)."""
        if other.top != self.top:
            raise ValueError(
                f"histogram {self.name}: cannot merge top={other.top} "
                f"into top={self.top}"
            )
        self.buckets.update(other.buckets)
        self.top_count += other.top_count
        self.observations += other.observations

    def as_dict(self) -> dict[str, int]:
        """JSON-friendly snapshot: bucket label -> count."""
        out = {str(i): self.buckets.get(i, 0) for i in range(1, self.top)}
        out[f"{self.top}+"] = self.top_count
        return out

    def __repr__(self) -> str:
        return f"HistogramMetric({self.name}, n={self.observations})"


class TimerMetric:
    """Accumulated seconds plus a lap count."""

    __slots__ = ("name", "seconds", "laps")

    kind = "timer"

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.laps = 0

    def add(self, seconds: float) -> None:
        """Record one lap of *seconds*."""
        if seconds < 0:
            raise ValueError(f"timer {self.name}: negative lap {seconds}")
        self.seconds += seconds
        self.laps += 1

    def __repr__(self) -> str:
        return f"TimerMetric({self.name}, {self.seconds:.3f}s/{self.laps})"


class MetricsRegistry:
    """Typed metrics under one dotted namespace.

    >>> reg = MetricsRegistry()
    >>> reg.inc("l1.hit.read", 3)
    >>> reg.value("l1.hit.read")
    3
    >>> reg.total(prefix="l1.")
    3
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}

    # -- typed access ------------------------------------------------------

    def _get_or_create(self, name: str, cls: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(validate_name(name))
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"  # type: ignore[attr-defined]
            )
        return metric

    def counter(self, name: str) -> CounterMetric:
        """The counter *name*, created on first use."""
        return self._get_or_create(name, CounterMetric)

    def histogram(self, name: str, top: int = 10) -> HistogramMetric:
        """The histogram *name*, created on first use."""
        metric = self._get_or_create(name, HistogramMetric)
        if metric.top != top:
            raise ConfigurationError(
                f"histogram {name!r} exists with top={metric.top}, not {top}"
            )
        return metric

    def timer(self, name: str) -> TimerMetric:
        """The timer *name*, created on first use."""
        return self._get_or_create(name, TimerMetric)

    def inc(self, name: str, amount: int = 1) -> None:
        """Shorthand for ``counter(name).inc(amount)``."""
        self.counter(name).inc(amount)

    # -- queries -----------------------------------------------------------

    def names(self, prefix: str = "") -> list[str]:
        """Metric names (optionally under *prefix*), sorted."""
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str) -> int:
        """A counter's value; 0 when the counter never fired."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        if not isinstance(metric, CounterMetric):
            raise ConfigurationError(f"metric {name!r} is not a counter")
        return metric.value

    def total(self, *names: str, prefix: str | None = None) -> int:
        """Sum of the named counters, plus every counter under *prefix*."""
        total = sum(self.value(name) for name in names)
        if prefix is not None:
            total += sum(
                metric.value
                for name, metric in self._metrics.items()
                if name.startswith(prefix) and isinstance(metric, CounterMetric)
            )
        return total

    # -- merge and snapshot ---------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every metric of *other* into this registry."""
        for name, metric in other._metrics.items():
            if isinstance(metric, CounterMetric):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, HistogramMetric):
                self.histogram(name, top=metric.top).merge(metric)
            elif isinstance(metric, TimerMetric):
                mine = self.timer(name)
                mine.seconds += metric.seconds
                mine.laps += metric.laps

    def snapshot(self) -> dict[str, Any]:
        """A deterministic, JSON-ready view of every metric.

        Keys are sorted, so two registries holding the same values
        serialise to byte-identical JSON — the worker-merge tests rely
        on this.
        """
        counters: dict[str, int] = {}
        histograms: dict[str, dict[str, int]] = {}
        timers: dict[str, dict[str, float]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, CounterMetric):
                counters[name] = metric.value
            elif isinstance(metric, HistogramMetric):
                histograms[name] = metric.as_dict()
            else:
                timers[name] = {
                    "seconds": round(metric.seconds, 6),
                    "laps": metric.laps,
                }
        return {
            "counters": counters,
            "histograms": histograms,
            "timers": timers,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        reg = cls()
        for name, value in snapshot.get("counters", {}).items():
            reg.counter(name).inc(value)
        for name, buckets in snapshot.get("histograms", {}).items():
            top = max(
                (int(label[:-1]) for label in buckets if label.endswith("+")),
                default=10,
            )
            hist = reg.histogram(name, top=top)
            for label, count in buckets.items():
                if count == 0:
                    continue
                hist.record(top if label.endswith("+") else int(label), count)
        for name, timing in snapshot.get("timers", {}).items():
            timer = reg.timer(name)
            timer.seconds = float(timing["seconds"])
            timer.laps = int(timing["laps"])
        return reg

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


# -- canonical namespace over the simulator's counters ----------------------

#: Hierarchy counter -> canonical metric name.  Every counter a
#: :class:`~repro.hierarchy.stats.HierarchyStats` can hold appears
#: here; a counter missing from the map lands under ``misc.`` so it is
#: never silently dropped (and a test asserts standard runs produce no
#: ``misc.`` metrics).
HIERARCHY_METRIC_NAMES: dict[str, str] = {
    "l1_hits_i": "l1.hit.instr",
    "l1_hits_r": "l1.hit.read",
    "l1_hits_w": "l1.hit.write",
    "l1_misses_i": "l1.miss.instr",
    "l1_misses_r": "l1.miss.read",
    "l1_misses_w": "l1.miss.write",
    "l1_evictions": "l1.eviction",
    "swapped_restores": "l1.swapped_restore",
    "l1_coherence_invalidations": "l1.coherence.invalidate",
    "l1_coherence_flushes": "l1.coherence.flush",
    "l1_coherence_buffer_ops": "l1.coherence.buffer_op",
    "l1_coherence_probes": "l1.coherence.probe",
    "l1_coherence_updates": "l1.coherence.update",
    "l1_inclusion_invalidations": "l1.inclusion.invalidate",
    "l2_hits": "r.hit",
    "l2_misses": "r.miss",
    "l2_evictions": "r.eviction",
    "synonym_moves": "r.synonym_move",
    "synonym_sameset": "r.synonym_sameset",
    "context_switches": "cpu.context_switch",
    "swapped_blocks": "cpu.swapped_block",
    "writebacks": "wb.push",
    "swapped_writebacks": "wb.swapped_push",
    "writeback_stalls": "wb.stall",
    "writeback_cancels": "wb.cancel",
    "wt_writes": "wb.wt_write",
    "wt_write_merges": "wb.wt_merge",
    "wt_synonym_updates": "wb.wt_synonym_update",
    "wt_buffer_forwards": "wb.wt_forward",
}

#: TLB counter -> canonical metric name.
TLB_METRIC_NAMES: dict[str, str] = {
    "hits": "tlb.hit",
    "misses": "tlb.miss",
    "evictions": "tlb.eviction",
    "flushes": "tlb.flush",
    "flushed_entries": "tlb.flushed_entry",
    "selective_flushes": "tlb.selective_flush",
}

#: Events the runtime sanitizers count (``repro.analysis.runtime``).
#: ``sanitize.determinism_violation`` only moves when a
#: :class:`~repro.analysis.runtime.DeterminismGuard` in ``count`` mode
#: observes a nondeterminism source being read from guarded code.
SANITIZE_METRIC_NAMES: tuple[str, ...] = (
    "sanitize.determinism_violation",
)

#: The coherence messages Tables 11-13 count as "percolated to level 1"
#: (note ``l1.coherence.update`` is excluded: the paper counts update
#: broadcasts separately from invalidation/flush traffic).
COHERENCE_TO_L1_METRICS: tuple[str, ...] = (
    "l1.coherence.invalidate",
    "l1.coherence.flush",
    "l1.coherence.buffer_op",
    "l1.coherence.probe",
    "l1.inclusion.invalidate",
)


def _fold_bag(
    registry: MetricsRegistry, counts: dict[str, int], names: dict[str, str]
) -> None:
    for raw, amount in counts.items():
        if amount == 0:
            continue
        registry.inc(names.get(raw, f"misc.{raw}"), amount)


def registry_from_result(result: Any, cpu: int | None = None) -> MetricsRegistry:
    """Project one :class:`SimulationResult` into the unified namespace.

    *result* is duck-typed (``per_cpu``, ``tlb_per_cpu``,
    ``bus_transactions``, ``refs_processed``) to keep this module free
    of simulator imports.  With *cpu*, only that CPU's hierarchy and
    TLB counters are included; machine-shared metrics (``bus.*`` and
    ``sim.refs``) appear only in the machine-wide (``cpu=None``) view.

    Wall-clock timings are deliberately omitted — see the module
    docstring.
    """
    registry = MetricsRegistry()
    per_cpu = result.per_cpu if cpu is None else [result.per_cpu[cpu]]
    tlbs: Iterable[dict[str, int]] = getattr(result, "tlb_per_cpu", ())
    if cpu is not None:
        all_tlbs = list(tlbs)
        tlbs = [all_tlbs[cpu]] if cpu < len(all_tlbs) else []
    for stats in per_cpu:
        _fold_bag(registry, stats.counters.as_dict(), HIERARCHY_METRIC_NAMES)
        intervals = stats.writeback_intervals
        if intervals.observations:
            hist = registry.histogram("wb.interval", top=intervals.top)
            for value, count in intervals.export_state()["buckets"].items():
                hist.record(value, count)
            if intervals.count_top():
                hist.record(intervals.top, intervals.count_top())
    for tlb_counts in tlbs:
        _fold_bag(registry, tlb_counts, TLB_METRIC_NAMES)
    if cpu is None:
        for op, count in result.bus_transactions.items():
            if count:
                registry.inc(f"bus.{op}", count)
        registry.inc("sim.refs", result.refs_processed)
    return registry
