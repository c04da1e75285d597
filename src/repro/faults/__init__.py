"""Runtime invariant guarding and checkpoint/resume.

An :class:`InvariantGuard` re-checks the structural invariants with
the incremental checkers while a machine replays a trace and raises
:class:`~repro.common.errors.IntegrityError` at the first violation;
the checkpoint module makes long trace replays interruptible and
resumable with bit-identical results.
"""

from .checkpoint import (
    export_hierarchy,
    export_machine,
    load_checkpoint,
    restore_hierarchy,
    restore_machine,
    run_checkpointed,
    save_checkpoint,
)
from .guard import InvariantGuard

__all__ = [
    "InvariantGuard",
    "export_hierarchy",
    "export_machine",
    "load_checkpoint",
    "restore_hierarchy",
    "restore_machine",
    "run_checkpointed",
    "save_checkpoint",
]
