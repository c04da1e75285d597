"""Fault injection, runtime invariant guarding, and checkpoint/resume.

The robustness harness for the simulator: a seeded
:class:`FaultInjector` corrupts cache metadata, TLB entries and bus
transactions; an :class:`InvariantGuard` detects the damage with the
incremental checkers and recovers per a :class:`GuardPolicy`; and the
checkpoint module makes long trace replays interruptible and
resumable with bit-identical results.
"""

from .bus import FaultyBus
from .checkpoint import (
    export_hierarchy,
    export_machine,
    load_checkpoint,
    restore_hierarchy,
    restore_machine,
    run_checkpointed,
    save_checkpoint,
)
from .guard import GuardedHierarchy, GuardPolicy, InvariantGuard
from .injector import FaultConfig, FaultEvent, FaultInjector, FaultKind

__all__ = [
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultyBus",
    "GuardPolicy",
    "GuardedHierarchy",
    "InvariantGuard",
    "export_hierarchy",
    "export_machine",
    "load_checkpoint",
    "restore_hierarchy",
    "restore_machine",
    "run_checkpointed",
    "save_checkpoint",
]
