"""Run-level metrics accumulation across simulations.

The experiment layer executes many simulations per CLI invocation —
some fresh, some replayed from the in-process memo or the disk cache,
some duplicated across experiments that share a configuration.  The
:class:`RunRecorder` collects exactly one :class:`SimulationResult`
per *unique* simulation (keyed by the same cache key the runner uses)
and projects them all into a single merged
:class:`~repro.obs.metrics.MetricsRegistry`.

Deduplication is what makes the merged snapshot deterministic across
``--jobs`` settings: a worker pool resolves each unique simulation
once, a serial loop may *ask* for it several times but records it
once, so both produce byte-identical snapshots.
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry, registry_from_result


class RunRecorder:
    """Accumulates unique simulation results for metrics merging."""

    def __init__(self) -> None:
        self._results: dict[Any, Any] = {}

    def record(self, key: Any, result: Any) -> None:
        """Remember *result* under *key*; first write wins."""
        self._results.setdefault(key, result)

    def __len__(self) -> int:
        return len(self._results)

    def registry(self) -> MetricsRegistry:
        """Merge every recorded result into one registry.

        Results are folded in key-sorted order so the merged snapshot
        is independent of execution (and completion) order.
        """
        merged = MetricsRegistry()
        for key in sorted(self._results, key=repr):
            merged.merge(registry_from_result(self._results[key]))
        return merged

    def clear(self) -> None:
        """Forget everything (used between CLI invocations)."""
        self._results.clear()


_RECORDER = RunRecorder()


def get_recorder() -> RunRecorder:
    """The process-wide recorder the experiment layer feeds."""
    return _RECORDER
