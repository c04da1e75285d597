"""Runtime sanitizer hooks: what static analysis cannot prove.

Two companions to the RPS rules of ``repro-lint``
(:mod:`repro.analysis.sanitize`):

* :class:`LoopStallWatchdog` — a daemon thread that heartbeats the
  asyncio event loop.  If the loop stops responding for longer than
  the threshold (a blocking call slipped past RPS201, a pathological
  handler), it dumps the loop thread's current stack to the log and
  bumps the ``serve.loop_stall`` counter, so stalls are attributable
  instead of showing up only as mysterious tail latency.
  ``repro-serve --sanitize`` installs one for the server's lifetime.
* :class:`DeterminismGuard` — a context manager that patches the
  nondeterminism sources (wall clock, the process-global ``random``
  functions, ``uuid``, ``os.urandom``) to **raise**
  :class:`DeterminismViolation` when called from repo code outside
  the allowlisted timing/provenance paths.  Static taint analysis
  follows the call graph it can see; the guard catches what it
  cannot (dynamic dispatch, monkeypatching, new code).  Tier-1 runs
  wrap simulation under it, turning "a clock snuck into a keyed
  path" from a silent cache-poisoning bug into a loud test failure.

Both are dependency-free and safe to import anywhere; nothing here
touches the hot replay path.
"""

from __future__ import annotations

import functools
import os
import random
import sys
import threading
import time
import traceback
import uuid
from time import monotonic
from typing import Any, Callable

from ..obs import get_logger

logger = get_logger("analysis.runtime")


class DeterminismViolation(RuntimeError):
    """A nondeterminism source was read from a guarded code path."""


#: Modules allowed to read guarded sources: provenance stamps and
#: wall-clock timing metadata.  The guard matches them as path
#: suffixes; the static RPS102 rule treats them as taint barriers.
CLOCK_ALLOWED: tuple[str, ...] = (
    "repro/obs/manifest.py",  # created_at provenance stamps
    "repro/experiments/cli.py",  # per-experiment wall timings
    "repro/runner/pool.py",  # RunReport.elapsed_s
    "repro/serve/admission.py",  # token-bucket clock
    "repro/serve/breaker.py",  # sliding-window clock
    "repro/analysis/runtime.py",  # the watchdog measures stalls
)

#: (module object, attribute) pairs the guard patches.  Deliberately
#: excludes ``time.monotonic``/``perf_counter``: those are the
#: *allowed* timing clocks (asyncio itself reads ``time.monotonic``
#: every loop iteration) and the hot paths bind them at import time
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
    outside the ``repro`` package (stdlib ``logging``, ``asyncio``,
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


class LoopStallWatchdog:
    """Detect and attribute asyncio event-loop stalls.

    A daemon thread posts a heartbeat onto the loop every *poll_s*
    seconds (``call_soon_threadsafe``) and measures how stale the
    last executed heartbeat is.  A gap beyond *threshold_s* means the
    loop thread is stuck in a callback; the watchdog logs that
    thread's current stack once per stall episode and increments
    *metric* on *registry* (``serve.loop_stall`` by default), then
    re-arms when the loop recovers.

    The watchdog never touches loop internals and adds one trivial
    callback per poll interval; it is safe to leave on in production.
    """

    def __init__(
        self,
        loop: Any,
        threshold_s: float = 0.5,
        poll_s: float = 0.05,
        registry: Any = None,
        metric: str = "serve.loop_stall",
    ) -> None:
        if threshold_s <= 0 or poll_s <= 0:
            raise ValueError("threshold_s and poll_s must be > 0")
        self._loop = loop
        self._threshold = threshold_s
        self._poll = poll_s
        self._registry = registry
        self._metric = metric
        self._last_beat = monotonic()
        self._loop_thread: int | None = None
        self._stalled = False
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._watch, name="repro-loop-watchdog", daemon=True
        )
        #: Stall episodes observed (monotonically growing).
        self.stalls = 0

    def _beat(self) -> None:
        self._loop_thread = threading.get_ident()
        self._last_beat = monotonic()

    def _dump_loop_stack(self) -> str:
        frame = sys._current_frames().get(self._loop_thread or -1)
        if frame is None:
            return "<loop thread stack unavailable>"
        return "".join(traceback.format_stack(frame))

    def _watch(self) -> None:
        while not self._stop.wait(self._poll):
            try:
                self._loop.call_soon_threadsafe(self._beat)
            except RuntimeError:
                return  # loop closed under us; nothing left to watch
            gap = monotonic() - self._last_beat
            if gap > self._threshold:
                if not self._stalled:
                    self._stalled = True
                    self.stalls += 1
                    if self._registry is not None:
                        self._registry.inc(self._metric)
                    logger.warning(
                        "event loop stalled for %.3fs; loop thread stack:\n%s",
                        gap,
                        self._dump_loop_stack(),
                    )
            else:
                self._stalled = False

    def start(self) -> "LoopStallWatchdog":
        self._last_beat = monotonic()
        try:
            self._loop.call_soon_threadsafe(self._beat)
        except RuntimeError:
            pass
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)
