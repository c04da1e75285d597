"""Structured logging for the CLI and library diagnostics.

Everything the simulator logs hangs off the ``repro`` logger
hierarchy (``repro.cli``, ``repro.runner``, ``repro.faults`` …), so
one :func:`configure` call controls the whole tree.  Library modules
call :func:`get_logger` and never install handlers themselves — an
embedding application keeps full control — while the CLI installs a
single stderr handler whose level is the ``--log-level`` flag.

Experiment *output* (rendered tables) is a product, not a diagnostic:
it still goes to stdout.  Status lines, runner reports and checkpoint
warnings go through here, which is what makes ``--log-level error``
actually silence them.
"""

from __future__ import annotations

import logging
import sys
from typing import TextIO

#: Accepted ``--log-level`` spellings.
LEVELS = ("debug", "info", "warning", "error")

_FORMAT = "%(levelname)s %(name)s: %(message)s"


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` tree (``get_logger("cli")`` ->
    ``repro.cli``).  Pass a dotted name already starting with
    ``repro`` to address an existing channel directly."""
    if name == "repro" or name.startswith("repro."):
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")


def configure(level: str = "info", stream: TextIO | None = None) -> logging.Logger:
    """Install one stderr handler on the ``repro`` root logger.

    Idempotent: repeated calls replace the previous handler rather
    than stacking duplicates (the CLI may be invoked many times in one
    process, e.g. under tests).  Returns the root ``repro`` logger.
    """
    if level not in LEVELS:
        raise ValueError(f"log level must be one of {LEVELS}, got {level!r}")
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_cli", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    handler._repro_cli = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(level.upper())
    # The CLI owns diagnostics: don't duplicate through the root logger.
    root.propagate = False
    return root
