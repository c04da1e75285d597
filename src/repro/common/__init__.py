"""Shared utilities: sizes, errors, counters."""

from .errors import (
    CheckpointError,
    ConfigurationError,
    InclusionError,
    IntegrityError,
    ProtocolError,
    ReproError,
    TraceFormatError,
    TranslationError,
)
from .params import format_size, is_power_of_two, log2_exact, parse_size
from .stats import CounterBag, IntervalHistogram, ratio

__all__ = [
    "CheckpointError",
    "ConfigurationError",
    "CounterBag",
    "InclusionError",
    "IntegrityError",
    "IntervalHistogram",
    "ProtocolError",
    "ReproError",
    "TraceFormatError",
    "TranslationError",
    "format_size",
    "is_power_of_two",
    "log2_exact",
    "parse_size",
    "ratio",
]
