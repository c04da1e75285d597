"""Runtime sanitizer hook: what static analysis cannot prove.

The companion to the RPS rules of ``repro-lint``
(:mod:`repro.analysis.sanitize`) is :class:`DeterminismGuard`, a
context manager that patches the nondeterminism sources (wall clock,
the process-global ``random`` functions, ``uuid``, ``os.urandom``) to
**raise** :class:`DeterminismViolation` when called from repo code
outside the allowlisted timing/provenance paths.  Static taint
analysis follows the call graph it can see; the guard catches what it
cannot (dynamic dispatch, monkeypatching, new code).  Tier-1 runs
wrap simulation under it, turning "a clock snuck into a keyed path"
from a silent cache-poisoning bug into a loud test failure.

It is dependency-free and safe to import anywhere; nothing here
touches the hot replay path.
"""

from __future__ import annotations

import functools
import os
import random
import sys
import time
import uuid
from typing import Any, Callable


class DeterminismViolation(RuntimeError):
    """A nondeterminism source was read from a guarded code path."""


#: Modules allowed to read guarded sources: provenance stamps and
#: wall-clock timing metadata.  The guard matches them as path
#: suffixes; the static RPS102 rule treats them as taint barriers.
CLOCK_ALLOWED: tuple[str, ...] = (
    "repro/obs/manifest.py",  # created_at provenance stamps
    "repro/experiments/cli.py",  # per-experiment wall timings
    "repro/runner/pool.py",  # RunReport.elapsed_s
)

#: (module object, attribute) pairs the guard patches.  Deliberately
#: excludes ``time.monotonic``/``perf_counter``: those are the
#: *allowed* timing clocks and the hot paths bind them at import time
#: anyway.
_PATCH_TARGETS: tuple[tuple[Any, str], ...] = (
    (time, "time"),
    (time, "time_ns"),
    (random, "random"),
    (random, "randint"),
    (random, "randrange"),
    (random, "getrandbits"),
    (random, "choice"),
    (random, "shuffle"),
    (random, "sample"),
    (random, "uniform"),
    (uuid, "uuid1"),
    (uuid, "uuid4"),
    (os, "urandom"),
)


class DeterminismGuard:
    """Patch nondeterminism sources to raise (or count) in repo code.

    Only repo code outside :data:`CLOCK_ALLOWED` is policed.  Callers
    outside the ``repro`` package (stdlib ``logging``,
    ``multiprocessing`` handshakes, test files) always pass through:
    the guard polices this repo, not the world.

    Args:
        mode: ``"raise"`` (default) raises
            :class:`DeterminismViolation` at the offending call;
            ``"count"`` records it and calls through — useful for
            surveying a long run without aborting it.
        registry: optional :class:`~repro.obs.MetricsRegistry`;
            violations bump ``sanitize.determinism_violation``.

    Usage::

        with DeterminismGuard():
            result = simulate("paper-mix", scale=0.01)
    """

    def __init__(self, mode: str = "raise", registry: Any = None) -> None:
        if mode not in ("raise", "count"):
            raise ValueError(f'mode must be "raise" or "count", got {mode!r}')
        self.mode = mode
        self.registry = registry
        self.violations: list[tuple[str, str, int]] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # -- caller classification -----------------------------------------

    def _guarded_caller(self) -> tuple[str, int] | None:
        """The first non-runtime frame, when it is unallowlisted repo
        code; None when the call came from outside the repo or from
        an allowlisted module."""
        frame = sys._getframe(2)
        filename = frame.f_code.co_filename.replace("\\", "/")
        if "/repro/" not in filename and not filename.endswith("repro"):
            return None
        if filename.endswith(CLOCK_ALLOWED):
            return None
        return filename, frame.f_lineno

    def _wrap(self, source: str, original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            caller = self._guarded_caller()
            if caller is None:
                return original(*args, **kwargs)
            filename, lineno = caller
            self.violations.append((source, filename, lineno))
            if self.registry is not None:
                self.registry.inc("sanitize.determinism_violation")
            if self.mode == "raise":
                raise DeterminismViolation(
                    f"{source} called from {filename}:{lineno} inside a "
                    "determinism-guarded run — seed it, route it through "
                    "an allowlisted timing path, or fix the leak"
                )
            return original(*args, **kwargs)

        return wrapper

    # -- context manager -----------------------------------------------

    def __enter__(self) -> "DeterminismGuard":
        if self._originals:
            raise RuntimeError("DeterminismGuard is not reentrant")
        for module, attr in _PATCH_TARGETS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            source = f"{module.__name__}.{attr}"
            setattr(module, attr, self._wrap(source, original))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)
        self._originals.clear()
