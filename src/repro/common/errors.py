"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors such as :class:`TypeError`.

Errors that describe a corrupted simulation state carry structured
*context* — at minimum the access index at which the problem surfaced
and the offending physical block — so a test (or a bug report) can
pinpoint the failure without parsing the message.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Keyword arguments beyond the message are retained in
    :attr:`context` and appended to the rendered message, e.g.::

        raise ProtocolError("bad state", access_index=17, pblock=0x40)
    """

    def __init__(self, message: str = "", **context: Any) -> None:
        super().__init__(message)
        self.message = message
        self.context = {k: v for k, v in context.items() if v is not None}

    def __str__(self) -> str:
        if not self.context:
            return self.message
        rendered = ", ".join(
            f"{key}={value:#x}"
            if key in ("pblock", "address") and isinstance(value, int)
            else f"{key}={value!r}"
            for key, value in sorted(self.context.items())
        )
        return f"{self.message} [{rendered}]"


class ConfigurationError(ReproError):
    """A cache, trace or system configuration is inconsistent.

    Examples: a cache size that is not a power of two, a block size
    larger than the page size, an associativity that does not divide
    the number of blocks.
    """


class TranslationError(ReproError):
    """A virtual address could not be translated.

    Raised when a process references a virtual page that has no
    mapping in its page table.  In the simulated machine this would be
    a page fault delivered to the operating system; the simulator
    treats it as a hard error because synthetic workloads only touch
    mapped pages.
    """


class ProtocolError(ReproError):
    """The coherence protocol reached an inconsistent state.

    This always indicates a bug in a hierarchy implementation (for
    instance two caches holding the same block dirty), never a bad
    input, so it is raised eagerly to fail the simulation loudly.
    """


class InclusionError(ReproError):
    """The multilevel inclusion property was violated.

    Raised by the consistency checkers when a first-level block has no
    second-level parent, or when the pointer linkage between levels is
    broken.
    """


class IntegrityError(ReproError):
    """The runtime invariant guard detected corrupted metadata.

    Unlike :class:`InclusionError` (raised by offline checkers between
    runs), this is raised *mid-simulation* by the runtime invariant
    guard (``repro.faults.guard``) and carries enough forensic context
    to reproduce and debug:

    Attributes:
        access_index: memory reference count when the corruption was
            detected (None for a check at a coherence boundary).
        address: the virtual address being accessed when detection
            triggered, or for a check at a coherence boundary the
            physical address of the transaction's block.
        violations: the invariant violations found (the checker's
            ``Violation`` records).
        snapshot: the contents of every affected set, block by block,
            rendered as strings.
    """

    def __init__(
        self,
        message: str,
        access_index: int | None = None,
        address: int | None = None,
        violations: list[Any] | None = None,
        snapshot: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message, access_index=access_index, address=address)
        self.access_index = access_index
        self.address = address
        self.violations = violations or []
        self.snapshot = snapshot or {}


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or from another run."""


class TraceFormatError(ReproError):
    """A trace file could not be parsed."""
