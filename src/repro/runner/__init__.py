"""Parallel experiment runner: job planning, worker pool, disk cache.

This package turns a list of experiment ids into a deduplicated set
of simulation jobs, fans the jobs out across worker processes, and
persists every result in a content-keyed on-disk cache so repeated
runs only pay for what actually changed.

The layering is strict: ``repro.experiments`` knows nothing about
processes — runners call :func:`repro.experiments.base.simulate`,
which transparently hits the memo (pre-seeded by the pool) and the
disk cache.  The runner only *pre-computes* what the runners would
compute anyway.

:func:`run_jobs` fails fast: the first failing job stops the pool and
re-raises.  The disk cache is what makes an interrupted or failed run
resumable — each result is stored as it completes, so a rerun with
the same cache directory executes only the jobs still missing.
"""

from .disk_cache import ResultCache, default_cache_dir, get_cache, schema_hash
from .planner import PLANNERS, SimJob, plan_jobs
from .pool import RunReport, run_jobs

__all__ = [
    "PLANNERS",
    "ResultCache",
    "RunReport",
    "SimJob",
    "default_cache_dir",
    "get_cache",
    "plan_jobs",
    "run_jobs",
    "schema_hash",
]
