"""Observability: metrics registry, event tracing, manifests, logging.

This package is the uniform instrumentation surface for the
simulator.  Counters stay in the hot-path-friendly
:class:`~repro.common.stats.CounterBag` storage they always had; the
:class:`MetricsRegistry` is the *query* layer that projects them into
one dotted namespace (``l1.hit.read``, ``r.synonym_move``,
``tlb.miss``, ``bus.invalidate``, …) that every experiment table and
the CLI's ``--metrics-out`` snapshot share.

A session-global :class:`EventTracer` can be attached with
:func:`set_tracer`; simulator components pick it up at construction
time and pre-resolve their categories, so tracing off costs nothing.
"""

from __future__ import annotations

from .log import LEVELS, configure, get_logger
from .manifest import RunManifest, git_revision
from .metrics import (
    COHERENCE_TO_L1_METRICS,
    HIERARCHY_METRIC_NAMES,
    SANITIZE_METRIC_NAMES,
    TLB_METRIC_NAMES,
    CounterMetric,
    HistogramMetric,
    MetricsRegistry,
    TimerMetric,
    registry_from_result,
    validate_name,
)
from .recorder import RunRecorder, get_recorder
from .tracing import (
    CATEGORIES,
    EventTracer,
    TraceEvent,
    parse_categories,
    read_jsonl,
)

_TRACER: EventTracer | None = None


def set_tracer(tracer: EventTracer | None) -> EventTracer | None:
    """Install (or clear) the session tracer; returns the previous one.

    Simulations built *after* this call pick the tracer up; already
    constructed hierarchies are unaffected.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def get_tracer() -> EventTracer | None:
    """The session tracer, or None when tracing is off."""
    return _TRACER


__all__ = [
    "CATEGORIES",
    "COHERENCE_TO_L1_METRICS",
    "HIERARCHY_METRIC_NAMES",
    "LEVELS",
    "SANITIZE_METRIC_NAMES",
    "TLB_METRIC_NAMES",
    "CounterMetric",
    "EventTracer",
    "HistogramMetric",
    "MetricsRegistry",
    "RunManifest",
    "RunRecorder",
    "TimerMetric",
    "TraceEvent",
    "configure",
    "get_logger",
    "get_recorder",
    "get_tracer",
    "git_revision",
    "parse_categories",
    "read_jsonl",
    "registry_from_result",
    "set_tracer",
    "validate_name",
]
