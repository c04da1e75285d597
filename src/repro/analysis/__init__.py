"""Static verification tooling: model checker, analyzer, runtime guards.

The package exports nothing itself; import the submodule you need.
Its console entry points:

* ``repro-verify`` (:mod:`repro.analysis.verify`) — an explicit-state
  model checker that drives a tiny two-processor machine through every
  protocol-relevant event, enumerates the reachable quotient of
  (V-cache state x R-subentry state x peer state x write-buffer
  state) for one tracked physical block, and checks the DESIGN.md §5
  invariants on every reachable state.
* ``repro-lint`` (:mod:`repro.analysis.driver`) — the one stdlib-``ast``
  analyzer.  It runs two rule sets over one parse of each file: the
  per-file RPL rules (:mod:`repro.analysis.lint`: metric-name
  validity, tracer slot discipline, ``__slots__`` on hot classes, no
  allocation in hot loops) and the whole-package RPS rules
  (:mod:`repro.analysis.sanitize`: determinism taint from
  nondeterminism sources into cache keys, simulation state and
  metrics snapshots).  One set of ``# rps: ignore[...]`` pragmas and
  one fingerprint baseline (:mod:`repro.analysis.findings`) cover
  both.
* ``repro-diff`` (:mod:`repro.analysis.differential`) — the
  walker-vs-scalar differential harness.

The runtime companion of the RPS rules,
:class:`~repro.analysis.runtime.DeterminismGuard`, lives in
:mod:`repro.analysis.runtime` and backs ``repro-experiment
--sanitize``.
"""
