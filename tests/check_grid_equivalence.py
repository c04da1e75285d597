"""Standalone check: the walker matches the scalar loop on the whole grid.

Used by CI's ``walker-vs-scalar`` job::

    python -m tests.check_grid_equivalence

Replays every simulation that ``plan_jobs(experiment_ids(), SCALE)``
plans (every paper table and ablation, 64 configurations) through the
replay walker (``Multiprocessor.run``) and the scalar reference loop
(``Multiprocessor.run_scalar``) and requires equal counters,
byte-identical metrics snapshots and equal state digests, with the
replay and compare code of ``repro-diff``
(``repro.analysis.differential``).  Each machine is the one
``simulate()`` would build, fed from the same trace store.
``repro-diff`` covers one size pair per organisation; this covers
every size pair, split level 1 and the ablations' associativities,
write-buffer depths, write policies and protocols.  Exits 0 when every
simulation matches, 1 otherwise.
"""

from __future__ import annotations

from time import perf_counter

from repro.analysis.differential import compare_runs, replay_trace
from repro.experiments import experiment_ids
from repro.experiments.base import simulation_config, trace_stream
from repro.runner.planner import plan_jobs

#: The grid's trace scale here: the whole grid replays on both paths,
#: one process, in about 90 s on a 2-core container.  Most of that is
#: exporting and digesting the machine states, which scale with cache
#: capacity, not with the trace.
SCALE = 0.01


def main() -> int:
    """Compare both replay paths on every planned simulation."""
    started = perf_counter()
    jobs = sorted(plan_jobs(experiment_ids(), SCALE), key=repr)
    failed = 0
    for job in jobs:
        config = simulation_config(
            job.l1,
            job.l2,
            job.kind,
            job.split_l1,
            job.block_size,
            job.config_overrides,
        )
        scalar, walker = (
            replay_trace(path, *trace_stream(job.trace, SCALE), config, job.seed)
            for path in ("scalar", "walker")
        )
        mismatches = compare_runs(scalar, walker, "walker")
        failed += bool(mismatches)
        print(f"{'FAIL' if mismatches else 'ok  '} {job}")
        for line in mismatches[:20]:
            print(f"     {line}")
    print(
        f"{len(jobs) - failed} of {len(jobs)} simulations match at scale "
        f"{SCALE} ({perf_counter() - started:.1f}s)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
